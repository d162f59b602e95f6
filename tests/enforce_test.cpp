// Control-plane enforcement tests, including the §4.7 capability-matrix
// methodology: every capability exercised by an experiment with and without
// the grant.
#include <gtest/gtest.h>

#include "enforce/control_policy.h"

namespace peering::enforce {
namespace {

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }

ExperimentGrant basic_grant() {
  ExperimentGrant grant;
  grant.experiment_id = "exp1";
  grant.allocated_prefixes = {pfx("184.164.224.0/23")};
  grant.allowed_origin_asns = {61574};
  grant.max_updates_per_day = 144;
  return grant;
}

/// Applies `f` to a mutable copy of the context's attributes and swaps the
/// shared pointer (contexts carry immutable AttrsPtr).
template <typename F>
void edit_attrs(AnnouncementContext& ctx, F&& f) {
  bgp::PathAttributes attrs = *ctx.attrs;
  f(attrs);
  ctx.attrs = bgp::make_attrs(std::move(attrs));
}

AnnouncementContext context(const std::string& exp = "exp1",
                            const std::string& prefix = "184.164.224.0/24",
                            std::vector<bgp::Asn> path = {61574}) {
  AnnouncementContext ctx;
  ctx.experiment_id = exp;
  ctx.pop_id = "amsterdam01";
  ctx.prefix = pfx(prefix);
  edit_attrs(ctx, [&](bgp::PathAttributes& a) {
    a.as_path = bgp::AsPath(std::move(path));
  });
  ctx.now = SimTime() + Duration::hours(1);
  return ctx;
}

class EnforcerTest : public ::testing::Test {
 protected:
  EnforcerTest() {
    enforcer_.install_default_rules({47065, 47064});
    enforcer_.set_grant(basic_grant());
  }
  ControlPlaneEnforcer enforcer_;
};

TEST_F(EnforcerTest, BasicAnnouncementAccepted) {
  auto v = enforcer_.check(context());
  EXPECT_EQ(v.action, Verdict::Action::kAccept);
}

TEST_F(EnforcerTest, UnknownExperimentFailsClosed) {
  auto v = enforcer_.check(context("ghost"));
  EXPECT_EQ(v.action, Verdict::Action::kReject);
  EXPECT_EQ(v.rule, "unknown-experiment");
}

TEST_F(EnforcerTest, HijackRejected) {
  // Announcing space outside the allocation = prefix hijack.
  auto v = enforcer_.check(context("exp1", "8.8.8.0/24"));
  EXPECT_EQ(v.action, Verdict::Action::kReject);
  EXPECT_EQ(v.rule, "prefix-ownership");
}

TEST_F(EnforcerTest, MoreSpecificInsideAllocationAccepted) {
  auto v = enforcer_.check(context("exp1", "184.164.225.0/24"));
  EXPECT_EQ(v.action, Verdict::Action::kAccept);
}

TEST_F(EnforcerTest, LessSpecificCoveringAllocationRejected) {
  auto v = enforcer_.check(context("exp1", "184.164.224.0/20"));
  EXPECT_EQ(v.action, Verdict::Action::kReject);
}

TEST_F(EnforcerTest, UnauthorizedOriginRejected) {
  auto v = enforcer_.check(context("exp1", "184.164.224.0/24", {64999}));
  EXPECT_EQ(v.action, Verdict::Action::kReject);
  EXPECT_EQ(v.rule, "origin-asn");
}

TEST_F(EnforcerTest, RateLimitKicksInAt145thUpdate) {
  for (int i = 0; i < 144; ++i) {
    auto v = enforcer_.check(context());
    ASSERT_EQ(v.action, Verdict::Action::kAccept) << "update " << i;
  }
  auto v = enforcer_.check(context());
  EXPECT_EQ(v.action, Verdict::Action::kReject);
  EXPECT_EQ(v.rule, "update-rate-limit");
}

TEST_F(EnforcerTest, RateLimitResetsNextDay) {
  for (int i = 0; i < 145; ++i) enforcer_.check(context());
  auto ctx = context();
  ctx.now = SimTime() + Duration::hours(25);
  EXPECT_EQ(enforcer_.check(ctx).action, Verdict::Action::kAccept);
}

TEST_F(EnforcerTest, RateLimitIsPerPrefixAndPop) {
  for (int i = 0; i < 145; ++i) enforcer_.check(context());
  // Different prefix: separate budget.
  EXPECT_EQ(enforcer_.check(context("exp1", "184.164.225.0/24")).action,
            Verdict::Action::kAccept);
  // Different PoP: separate budget.
  auto ctx = context();
  ctx.pop_id = "seattle01";
  EXPECT_EQ(enforcer_.check(ctx).action, Verdict::Action::kAccept);
}

TEST_F(EnforcerTest, StatePersistsAcrossRestart) {
  for (int i = 0; i < 145; ++i) enforcer_.check(context());
  auto snapshot = enforcer_.state().snapshot();

  ControlPlaneEnforcer fresh;
  fresh.install_default_rules({47065, 47064});
  fresh.set_grant(basic_grant());
  fresh.state().restore(snapshot);
  EXPECT_EQ(fresh.check(context()).action, Verdict::Action::kReject);
}

TEST_F(EnforcerTest, OverloadFailsClosed) {
  enforcer_.set_overloaded(true);
  auto v = enforcer_.check(context());
  EXPECT_EQ(v.action, Verdict::Action::kReject);
  EXPECT_EQ(v.rule, "fail-closed");
  enforcer_.set_overloaded(false);
  EXPECT_EQ(enforcer_.check(context()).action, Verdict::Action::kAccept);
}

TEST_F(EnforcerTest, VerdictsAreLoggedForAttribution) {
  enforcer_.check(context());
  enforcer_.check(context("exp1", "8.8.8.0/24"));
  ASSERT_EQ(enforcer_.log().size(), 2u);
  EXPECT_EQ(enforcer_.log()[0].action, Verdict::Action::kAccept);
  EXPECT_EQ(enforcer_.log()[1].action, Verdict::Action::kReject);
  EXPECT_EQ(enforcer_.log()[1].experiment_id, "exp1");
  EXPECT_EQ(enforcer_.log()[1].prefix, "8.8.8.0/24");
}

TEST(EnforcementLogBound, KeepsTheMostRecentEntriesAndCountsEvictions) {
  obs::Registry registry(true);
  obs::Scope scope(&registry);
  ControlPlaneEnforcer enforcer;
  enforcer.install_default_rules({47065, 47064});
  enforcer.set_grant(basic_grant());

  // capacity + 1 checks; only the first names the unknown experiment.
  enforcer.check(context("ghost"));
  for (std::size_t i = 0; i < ControlPlaneEnforcer::kLogCapacity; ++i)
    enforcer.check(context());

  const auto& log = enforcer.log();
  ASSERT_EQ(log.size(), ControlPlaneEnforcer::kLogCapacity);
  EXPECT_EQ(registry.snapshot().value("enforce_log_evicted_total", {}, -1),
            1);
  for (std::size_t i = 0; i < log.size(); ++i)
    ASSERT_EQ(log[i].experiment_id, "exp1") << "oldest entry kept at " << i;
  EXPECT_EQ(log[0].action, Verdict::Action::kAccept);
}

// ---------------------------------------------------------------------------
// Capability matrix (§4.7 testing methodology): each capability exercised
// with and without the grant.
// ---------------------------------------------------------------------------

enum class Cap { kPoisoning, kCommunities, kTransitiveAttrs };

class CapabilityMatrixTest
    : public ::testing::TestWithParam<std::tuple<Cap, bool>> {
 protected:
  CapabilityMatrixTest() {
    enforcer_.install_default_rules({47065, 47064});
  }
  ControlPlaneEnforcer enforcer_;
};

TEST_P(CapabilityMatrixTest, EnforcedPerGrant) {
  auto [cap, granted] = GetParam();
  ExperimentGrant grant = basic_grant();
  if (granted) {
    switch (cap) {
      case Cap::kPoisoning:
        grant.capabilities.insert(Capability::kAsPathPoisoning);
        grant.max_poisoned_asns = 3;
        break;
      case Cap::kCommunities:
        grant.capabilities.insert(Capability::kCommunities);
        grant.max_communities = 8;
        break;
      case Cap::kTransitiveAttrs:
        grant.capabilities.insert(Capability::kTransitiveAttrs);
        break;
    }
  }
  enforcer_.set_grant(grant);

  AnnouncementContext ctx = context();
  edit_attrs(ctx, [&](bgp::PathAttributes& a) {
    switch (cap) {
      case Cap::kPoisoning:
        a.as_path = bgp::AsPath({61574, 3356, 61574});  // poison 3356
        break;
      case Cap::kCommunities:
        a.communities = {bgp::Community(3356, 70)};
        break;
      case Cap::kTransitiveAttrs:
        a.unknown.push_back(bgp::RawAttribute{
            bgp::kFlagOptional | bgp::kFlagTransitive, 99, Bytes{1}});
        break;
    }
  });

  Verdict v = enforcer_.check(ctx);
  if (granted) {
    EXPECT_EQ(v.action, Verdict::Action::kAccept)
        << v.rule << ": " << v.reason;
  } else {
    switch (cap) {
      case Cap::kPoisoning:
        // Poisoning cannot be transformed away: the announcement is blocked.
        EXPECT_EQ(v.action, Verdict::Action::kReject);
        break;
      case Cap::kCommunities:
        // Communities are stripped, not rejected (matches the paper's test
        // description).
        ASSERT_EQ(v.action, Verdict::Action::kTransform);
        EXPECT_TRUE(v.transformed->communities.empty());
        break;
      case Cap::kTransitiveAttrs:
        ASSERT_EQ(v.action, Verdict::Action::kTransform);
        EXPECT_TRUE(v.transformed->unknown.empty());
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCapabilities, CapabilityMatrixTest,
    ::testing::Combine(::testing::Values(Cap::kPoisoning, Cap::kCommunities,
                                         Cap::kTransitiveAttrs),
                       ::testing::Bool()));

TEST_F(EnforcerTest, PoisoningBudgetEnforced) {
  ExperimentGrant grant = basic_grant();
  grant.capabilities.insert(Capability::kAsPathPoisoning);
  grant.max_poisoned_asns = 2;
  enforcer_.set_grant(grant);

  auto ctx = context();
  edit_attrs(ctx, [](bgp::PathAttributes& a) {
    a.as_path = bgp::AsPath({61574, 3356, 1299, 61574});
  });
  EXPECT_EQ(enforcer_.check(ctx).action, Verdict::Action::kAccept);

  edit_attrs(ctx, [](bgp::PathAttributes& a) {
    a.as_path = bgp::AsPath({61574, 3356, 1299, 174, 61574});
  });
  EXPECT_EQ(enforcer_.check(ctx).action, Verdict::Action::kReject);
}

TEST_F(EnforcerTest, CommunityBudgetEnforced) {
  ExperimentGrant grant = basic_grant();
  grant.capabilities.insert(Capability::kCommunities);
  grant.max_communities = 2;
  enforcer_.set_grant(grant);

  auto ctx = context();
  edit_attrs(ctx, [](bgp::PathAttributes& a) {
    a.communities = {bgp::Community(1, 1), bgp::Community(2, 2)};
  });
  EXPECT_EQ(enforcer_.check(ctx).action, Verdict::Action::kAccept);
  edit_attrs(ctx, [](bgp::PathAttributes& a) {
    a.communities.push_back(bgp::Community(3, 3));
  });
  EXPECT_EQ(enforcer_.check(ctx).action, Verdict::Action::kReject);
}

TEST_F(EnforcerTest, ControlCommunitiesAlwaysAllowed) {
  // Whitelist/blacklist communities are consumed by vBGP and do not need
  // the communities capability.
  auto ctx = context();
  edit_attrs(ctx, [](bgp::PathAttributes& a) {
    a.communities = {bgp::Community(47065, 3), bgp::Community(47064, 5)};
  });
  auto v = enforcer_.check(ctx);
  EXPECT_EQ(v.action, Verdict::Action::kAccept);
}


TEST_F(EnforcerTest, SixToFourCapabilityGatesRelayPrefix) {
  // Without the 6to4 capability the relay anycast prefix is a hijack.
  auto v = enforcer_.check(context("exp1", "192.88.99.0/24"));
  EXPECT_EQ(v.action, Verdict::Action::kReject);

  ExperimentGrant grant = basic_grant();
  grant.capabilities.insert(Capability::k6to4);
  enforcer_.set_grant(grant);
  EXPECT_EQ(enforcer_.check(context("exp1", "192.88.99.0/24")).action,
            Verdict::Action::kAccept);
  // But not arbitrary space: the capability is scoped to the relay prefix.
  EXPECT_EQ(enforcer_.check(context("exp1", "8.8.8.0/24")).action,
            Verdict::Action::kReject);
}

TEST_F(EnforcerTest, MultiAsnExperimentsEmulateProviderCustomer) {
  // §7.4: "Peering operates multiple ASNs, which allows experiments to
  // emulate multiple networks". A grant authorizing two origin ASNs lets
  // the experiment announce as either (one AS providing transit for the
  // other's prefix), with the kTransit capability.
  ExperimentGrant grant = basic_grant();
  grant.allowed_origin_asns = {61574, 61575};
  grant.capabilities.insert(Capability::kTransit);
  enforcer_.set_grant(grant);

  // Originated by the second ASN, transited by the first.
  auto ctx = context("exp1", "184.164.224.0/24", {61574, 61575});
  EXPECT_EQ(enforcer_.check(ctx).action, Verdict::Action::kAccept);

  // An origin outside the grant is still rejected.
  auto bad = context("exp1", "184.164.224.0/24", {61574, 64999});
  EXPECT_EQ(enforcer_.check(bad).action, Verdict::Action::kReject);
}

TEST(StateStore, MergeTakesMaximum) {
  StateStore a, b;
  a.set("k1", 5);
  b.set("k1", 9);
  b.set("k2", 3);
  a.merge_max(b);
  EXPECT_EQ(a.get("k1"), 9);
  EXPECT_EQ(a.get("k2"), 3);
}

TEST(StateStore, ErasePrefixRemovesMatchingKeys) {
  StateStore s;
  s.set("updates:exp1:a", 1);
  s.set("updates:exp1:b", 2);
  s.set("updates:exp2:a", 3);
  s.erase_prefix("updates:exp1:");
  EXPECT_EQ(s.get("updates:exp1:a"), 0);
  EXPECT_EQ(s.get("updates:exp2:a"), 3);
  EXPECT_EQ(s.size(), 1u);
}

}  // namespace
}  // namespace peering::enforce

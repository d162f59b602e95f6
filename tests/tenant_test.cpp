// Tenant control plane tests (ISSUE 9): intent validation and deterministic
// compilation, transactional fleet-wide onboarding with rollback on partial
// failure, minimal-diff churn (one tenant's lifecycle never perturbs
// another's artifacts), amend/remove semantics, and the per-tenant
// observability surface.
#include <gtest/gtest.h>

#include <set>

#include "obs/metrics.h"
#include "platform/footprint.h"
#include "tenant/compiler.h"
#include "tenant/intent.h"
#include "tenant/orchestrator.h"

namespace peering::tenant {
namespace {

using platform::ConfigDatabase;
using platform::InterconnectType;

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }

TenantIntent basic_intent(const std::string& id) {
  TenantIntent intent;
  intent.id = id;
  intent.description = "anycast latency study";
  intent.contact = id + "@example.edu";
  intent.prefix_count = 1;
  intent.scopes.push_back({"amsterdam01", {}});
  intent.scopes.push_back({"gatech01", {}});
  return intent;
}

class OrchestratorTest : public ::testing::Test {
 protected:
  OrchestratorTest()
      : registry_(true),
        scope_(&registry_),
        db_(platform::build_footprint(1)),
        orchestrator_(&db_) {
    EXPECT_TRUE(orchestrator_.register_all_pops().ok());
  }

  obs::Registry registry_;
  obs::Scope scope_;
  ConfigDatabase db_;
  TenantOrchestrator orchestrator_;
};

// ------------------------------- intent ---------------------------------

TEST(IntentTest, ValidateCatchesBadIntents) {
  platform::PlatformModel model = platform::build_footprint(1);

  TenantIntent empty_id;
  EXPECT_FALSE(empty_id.validate(model).ok());

  TenantIntent unknown_pop = basic_intent("t1");
  unknown_pop.scopes.push_back({"atlantis01", {}});
  EXPECT_FALSE(unknown_pop.validate(model).ok());

  TenantIntent duplicate_scope = basic_intent("t1");
  duplicate_scope.scopes.push_back({"amsterdam01", {}});
  EXPECT_FALSE(duplicate_scope.validate(model).ok());

  TenantIntent ungranted_communities = basic_intent("t1");
  ungranted_communities.communities.push_back(bgp::Community(47065, 1));
  EXPECT_FALSE(ungranted_communities.validate(model).ok());

  TenantIntent ungranted_poison = basic_intent("t1");
  ungranted_poison.max_poisoned_asns = 2;
  EXPECT_FALSE(ungranted_poison.validate(model).ok());

  EXPECT_TRUE(basic_intent("t1").validate(model).ok());
}

TEST(IntentTest, FingerprintIgnoresScopeOrder) {
  TenantIntent a = basic_intent("t1");
  TenantIntent b = basic_intent("t1");
  std::swap(b.scopes[0], b.scopes[1]);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  TenantIntent c = basic_intent("t1");
  c.prepend = 3;
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

// ------------------------------ compiler --------------------------------

TEST(CompilerTest, CompilationIsDeterministicAndScoped) {
  platform::PlatformModel model = platform::build_footprint(1);
  platform::ExperimentModel exp;
  exp.id = "t1";
  exp.status = platform::ExperimentStatus::kActive;
  exp.asn = 61574;
  exp.allocated_prefixes = {pfx("184.164.224.0/24")};

  TenantIntent intent = basic_intent("t1");
  // Only transit exports at amsterdam01; everything at gatech01.
  intent.scopes[0].peer_classes = {InterconnectType::kTransit};

  IntentCompiler compiler(&model);
  Result<CompiledTenant> first = compiler.compile(intent, exp, 7);
  ASSERT_TRUE(first.ok()) << first.error().message;
  Result<CompiledTenant> second = compiler.compile(intent, exp, 7);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->fingerprint, second->fingerprint);

  ASSERT_EQ(first->pops.size(), 2u);
  const CompiledPopArtifacts* ams = first->at_pop("amsterdam01");
  ASSERT_NE(ams, nullptr);
  // amsterdam01 has 2 transits and hundreds of peers; the scope withholds
  // everything but transit.
  EXPECT_EQ(ams->exportable_interconnects, 2u);
  EXPECT_NE(ams->session_config.find("add paths tx rx"), std::string::npos);
  EXPECT_NE(ams->import_policy.find("184.164.224.0/24"), std::string::npos);

  // Artifacts are stably keyed by tenant id, not position.
  ASSERT_EQ(ams->network_delta.interfaces.size(), 1u);
  EXPECT_EQ(ams->network_delta.interfaces[0].name, "tap-t1");
  ASSERT_EQ(ams->network_delta.routes.size(), 1u);
  EXPECT_EQ(ams->network_delta.routes[0].gateway, tunnel_client_address(7));

  // A different tunnel slot changes addressing but not the policy text.
  Result<CompiledTenant> other_slot = compiler.compile(intent, exp, 9);
  ASSERT_TRUE(other_slot.ok());
  EXPECT_EQ(other_slot->at_pop("amsterdam01")->export_policy,
            ams->export_policy);
  EXPECT_EQ(other_slot->at_pop("amsterdam01")->network_delta.routes[0].gateway,
            tunnel_client_address(9));
}

TEST(CompilerTest, SessionAndImportTextArePinned) {
  platform::PlatformModel model = platform::build_footprint(1);
  platform::ExperimentModel exp;
  exp.id = "t1";
  exp.status = platform::ExperimentStatus::kActive;
  exp.asn = 61574;
  exp.allocated_prefixes = {pfx("184.164.224.0/24"), pfx("184.164.226.0/24")};
  TenantIntent intent = basic_intent("t1");
  intent.capabilities = {enforce::Capability::kCommunities};
  intent.max_communities = 4;

  Result<CompiledTenant> tenant = IntentCompiler(&model).compile(intent, exp, 3);
  ASSERT_TRUE(tenant.ok()) << tenant.error().message;
  const CompiledPopArtifacts* ams = tenant->at_pop("amsterdam01");
  ASSERT_NE(ams, nullptr);
  EXPECT_EQ(ams->session_config,
            "protocol bgp tenant_t1 {\n"
            "  description \"tenant t1 at amsterdam01\";\n"
            "  local as 47065;\n"
            "  neighbor as 61574;\n"
            "  hold time 90;\n"
            "  keepalive time 30;\n"
            "  connect retry time 30;\n"
            "  graceful restart on;\n"
            "  add paths tx rx;\n"
            "  ipv4 {\n"
            "    import filter import_tenant_t1;\n"
            "    export filter export_tenant_t1;\n"
            "  };\n"
            "}\n");
  EXPECT_EQ(ams->import_policy,
            "filter import_tenant_t1 {\n"
            "  # allocation ownership\n"
            "  if ! (net ~ [184.164.224.0/24+, 184.164.226.0/24+]) then "
            "reject;\n"
            "  if (bgp_path.last != 61574) then reject;\n"
            "  if (bgp_path.len > 4) then reject;  # no poisoning grant\n"
            "  # communities allowed: up to 4\n"
            "  accept;\n"
            "}\n");
  EXPECT_EQ(tenant->fingerprint, "c6ea8e3df01a012b");
}

TEST(CompilerTest, RejectsUnapprovedExperiments) {
  platform::PlatformModel model = platform::build_footprint(1);
  platform::ExperimentModel exp;
  exp.id = "t1";
  exp.status = platform::ExperimentStatus::kProposed;
  exp.allocated_prefixes = {pfx("184.164.224.0/24")};
  IntentCompiler compiler(&model);
  EXPECT_FALSE(compiler.compile(basic_intent("t1"), exp, 0).ok());
}

// ---------------------------- orchestration -----------------------------

TEST_F(OrchestratorTest, OnboardProvisionsScopedPopsOnly) {
  auto result = orchestrator_.onboard(basic_intent("exp-a"));
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result->pops, (std::vector<std::string>{"amsterdam01", "gatech01"}));

  // Scoped PoPs carry the tap + mux route; others are untouched.
  auto* ams = orchestrator_.netlink("amsterdam01");
  ASSERT_TRUE(ams->interface("tap-exp-a").has_value());
  EXPECT_FALSE(
      orchestrator_.netlink("seattle01")->interface("tap-exp-a").has_value());

  // The grant landed on the scoped enforcers only.
  EXPECT_NE(orchestrator_.enforcer("amsterdam01")->grant("exp-a"), nullptr);
  EXPECT_EQ(orchestrator_.enforcer("seattle01")->grant("exp-a"), nullptr);

  // Lifecycle flowed through the database.
  const platform::ExperimentModel* exp = db_.experiment("exp-a");
  ASSERT_NE(exp, nullptr);
  EXPECT_EQ(exp->status, platform::ExperimentStatus::kActive);
  ASSERT_EQ(exp->allocated_prefixes.size(), 1u);

  obs::Snapshot snap = registry_.snapshot();
  EXPECT_EQ(snap.value("tenant_onboards_total"), 1);
  EXPECT_EQ(snap.value("tenant_active"), 1);
  // Fleet-wide announced routes: 1 prefix exported from each of 2 PoPs.
  EXPECT_EQ(snap.value("tenant_announced_prefixes", {{"tenant", "exp-a"}}), 2);
}

TEST_F(OrchestratorTest, ChurnIsMinimalDiffAcrossTenants) {
  ASSERT_TRUE(orchestrator_.onboard(basic_intent("exp-a")).ok());

  // exp-b scopes a disjoint PoP set: onboarding it must not mutate exp-a's
  // PoPs at all, and must not touch exp-a's artifacts anywhere.
  std::uint64_t ams_before = orchestrator_.netlink("amsterdam01")->mutation_count();
  TenantIntent b = basic_intent("exp-b");
  b.scopes = {{"seattle01", {}}};
  ASSERT_TRUE(orchestrator_.onboard(b).ok());
  EXPECT_EQ(orchestrator_.netlink("amsterdam01")->mutation_count(), ams_before);

  // A third tenant sharing amsterdam01 adds exactly its own artifacts: one
  // tap (create + up + address) and one route.
  TenantIntent c = basic_intent("exp-c");
  c.scopes = {{"amsterdam01", {}}};
  ASSERT_TRUE(orchestrator_.onboard(c).ok());
  EXPECT_EQ(orchestrator_.netlink("amsterdam01")->mutation_count(),
            ams_before + 4);
  EXPECT_TRUE(
      orchestrator_.netlink("amsterdam01")->interface("tap-exp-a").has_value());

  // Removing exp-c restores amsterdam01 for exp-a byte-for-byte.
  ASSERT_TRUE(orchestrator_.remove("exp-c").ok());
  EXPECT_TRUE(
      orchestrator_.netlink("amsterdam01")->interface("tap-exp-a").has_value());
  EXPECT_FALSE(
      orchestrator_.netlink("amsterdam01")->interface("tap-exp-c").has_value());
}

TEST_F(OrchestratorTest, RemoveRestoresByteIdenticalState) {
  ASSERT_TRUE(orchestrator_.onboard(basic_intent("exp-a")).ok());
  std::string before = orchestrator_.fleet_state_fingerprint();

  ASSERT_TRUE(orchestrator_.onboard(basic_intent("exp-b")).ok());
  EXPECT_NE(orchestrator_.fleet_state_fingerprint(), before);
  ASSERT_TRUE(orchestrator_.remove("exp-b").ok());
  EXPECT_EQ(orchestrator_.fleet_state_fingerprint(), before);

  // The tunnel slot is recycled: a new tenant reuses it, so repeated churn
  // cannot leak addressing space.
  ASSERT_TRUE(orchestrator_.onboard(basic_intent("exp-c")).ok());
  EXPECT_EQ(orchestrator_.tenant("exp-c")->tunnel_index, 1);
}

TEST_F(OrchestratorTest, RemovedTenantIdCanBeOnboardedAgain) {
  std::string empty = orchestrator_.fleet_state_fingerprint();
  ASSERT_TRUE(orchestrator_.onboard(basic_intent("exp-a")).ok());
  ASSERT_TRUE(orchestrator_.remove("exp-a").ok());
  EXPECT_EQ(orchestrator_.fleet_state_fingerprint(), empty);

  // The retired database record holds no resources, so the same experiment
  // id can come back. It reuses the freed tunnel slot and prefix; only the
  // origin ASN rotates (the allocator is round-robin over the pool).
  auto again = orchestrator_.onboard(basic_intent("exp-a"));
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(orchestrator_.tenant("exp-a")->tunnel_index, 0);
  EXPECT_TRUE(
      orchestrator_.netlink("amsterdam01")->interface("tap-exp-a").has_value());

  ASSERT_TRUE(orchestrator_.remove("exp-a").ok());
  EXPECT_EQ(orchestrator_.fleet_state_fingerprint(), empty);
}

TEST_F(OrchestratorTest, MidFleetFailureRollsBackEverything) {
  ASSERT_TRUE(orchestrator_.onboard(basic_intent("exp-a")).ok());
  std::string before = orchestrator_.fleet_state_fingerprint();

  // exp-b scopes amsterdam01 + gatech01; pops commit in ascending order, so
  // failing gatech01's first mutation forces amsterdam01 to roll back.
  orchestrator_.netlink("gatech01")->fail_nth_mutation(1);
  auto result = orchestrator_.onboard(basic_intent("exp-b"));
  EXPECT_FALSE(result.ok());

  EXPECT_EQ(orchestrator_.fleet_state_fingerprint(), before);
  EXPECT_EQ(orchestrator_.tenant("exp-b"), nullptr);
  EXPECT_EQ(orchestrator_.enforcer("amsterdam01")->grant("exp-b"), nullptr);
  // The database record was retired, not left dangling.
  ASSERT_NE(db_.experiment("exp-b"), nullptr);
  EXPECT_EQ(db_.experiment("exp-b")->status,
            platform::ExperimentStatus::kRetired);

  obs::Snapshot snap = registry_.snapshot();
  EXPECT_EQ(snap.value("tenant_fleet_rollbacks_total"), 1);
  EXPECT_EQ(snap.value("tenant_onboard_failures_total"), 1);
  EXPECT_EQ(snap.value("tenant_active"), 1);

  // The fleet still accepts new work after the rollback.
  EXPECT_TRUE(orchestrator_.onboard(basic_intent("exp-c")).ok());
}

TEST_F(OrchestratorTest, AmendAppliesAndFailedAmendRestores) {
  TenantIntent intent = basic_intent("exp-a");
  ASSERT_TRUE(orchestrator_.onboard(intent).ok());
  std::string original_fp = orchestrator_.tenant("exp-a")->fingerprint;

  // Grant communities and widen the scope to seattle01.
  TenantIntent amended = intent;
  amended.capabilities = {enforce::Capability::kCommunities};
  amended.max_communities = 4;
  amended.communities.push_back(bgp::Community(47065, 9));
  amended.scopes.push_back({"seattle01", {}});
  auto result = orchestrator_.amend(amended);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_NE(orchestrator_.tenant("exp-a")->fingerprint, original_fp);
  EXPECT_TRUE(
      orchestrator_.netlink("seattle01")->interface("tap-exp-a").has_value());
  const enforce::ExperimentGrant* grant =
      orchestrator_.enforcer("seattle01")->grant("exp-a");
  ASSERT_NE(grant, nullptr);
  EXPECT_TRUE(grant->has(enforce::Capability::kCommunities));
  EXPECT_EQ(grant->max_communities, 4);

  // A failed amend restores intent, grants, netlink state, and the
  // database capabilities.
  std::string before = orchestrator_.fleet_state_fingerprint();
  TenantIntent wider = amended;
  wider.scopes.push_back({"ufmg01", {}});
  orchestrator_.netlink("ufmg01")->fail_nth_mutation(2);
  EXPECT_FALSE(orchestrator_.amend(wider).ok());
  EXPECT_EQ(orchestrator_.fleet_state_fingerprint(), before);
  EXPECT_EQ(orchestrator_.tenant("exp-a")->intent.scopes.size(), 3u);
  EXPECT_TRUE(db_.experiment("exp-a")->capabilities.count(
      enforce::Capability::kCommunities));
}

TEST_F(OrchestratorTest, ExplicitPrefixesFlowThroughAssignment) {
  // A controlled-hijack tenant: announces another slice of PEERING space.
  TenantIntent intent = basic_intent("hijack-study");
  intent.explicit_prefixes = {pfx("184.164.230.0/24")};
  auto result = orchestrator_.onboard(intent);
  ASSERT_TRUE(result.ok()) << result.error().message;
  const platform::ExperimentModel* exp = db_.experiment("hijack-study");
  ASSERT_EQ(exp->allocated_prefixes.size(), 1u);
  EXPECT_EQ(exp->allocated_prefixes[0], pfx("184.164.230.0/24"));
  // The mux route steers the hijacked prefix into the tenant tunnel.
  bool found = false;
  for (const auto& route : orchestrator_.netlink("amsterdam01")->routes())
    if (route.prefix == pfx("184.164.230.0/24")) found = true;
  EXPECT_TRUE(found);
}

TEST_F(OrchestratorTest, ShowSurfacesCompiledStateAndSummary) {
  TenantIntent intent = basic_intent("exp-a");
  intent.prepend = 2;
  ASSERT_TRUE(orchestrator_.onboard(intent).ok());

  std::string shown = orchestrator_.show_tenant("exp-a");
  EXPECT_NE(shown.find("tenant exp-a"), std::string::npos);
  EXPECT_NE(shown.find("amsterdam01"), std::string::npos);
  EXPECT_NE(shown.find("compiled export policy"), std::string::npos);
  EXPECT_NE(shown.find("prepend=2"), std::string::npos);
  EXPECT_NE(orchestrator_.show_tenant("nope").find("not found"),
            std::string::npos);

  std::string summary = orchestrator_.show_summary();
  EXPECT_NE(summary.find("1 active"), std::string::npos);
  EXPECT_NE(summary.find("onboards=1"), std::string::npos);
}

TEST_F(OrchestratorTest, EnforcerCountsPerTenantVerdicts) {
  ASSERT_TRUE(orchestrator_.onboard(basic_intent("exp-a")).ok());
  const platform::ExperimentModel* exp = db_.experiment("exp-a");
  enforce::ControlPlaneEnforcer* enforcer = orchestrator_.enforcer("amsterdam01");

  enforce::AnnouncementContext ok_ctx;
  ok_ctx.experiment_id = "exp-a";
  ok_ctx.pop_id = "amsterdam01";
  ok_ctx.prefix = exp->allocated_prefixes[0];
  bgp::PathAttributes attrs;
  attrs.as_path = bgp::AsPath({exp->asn});
  ok_ctx.attrs = bgp::make_attrs(std::move(attrs));
  EXPECT_EQ(enforcer->check(ok_ctx).action, enforce::Verdict::Action::kAccept);

  enforce::AnnouncementContext bad_ctx = ok_ctx;
  bad_ctx.prefix = pfx("8.8.8.0/24");  // hijack outside the allocation
  EXPECT_EQ(enforcer->check(bad_ctx).action,
            enforce::Verdict::Action::kReject);

  obs::Snapshot snap = registry_.snapshot();
  EXPECT_EQ(snap.value("tenant_announcements_accepted_total",
                       {{"tenant", "exp-a"}}),
            1);
  EXPECT_EQ(
      snap.value("tenant_enforcement_drops_total", {{"tenant", "exp-a"}}), 1);

  // Dropping the grant retires the tenant's counters with it.
  enforcer->remove_grant("exp-a");
  EXPECT_EQ(enforcer->check(ok_ctx).action, enforce::Verdict::Action::kReject);
  obs::Snapshot after = registry_.snapshot();
  EXPECT_EQ(after.value("tenant_announcements_accepted_total",
                        {{"tenant", "exp-a"}}),
            1);
}

}  // namespace
}  // namespace peering::tenant

// Platform tests: the §4.2 footprint counts, the experiment lifecycle in
// the config database, intent-based config generation, and canary
// deployment behaviour.
#include <gtest/gtest.h>

#include "platform/configdb.h"
#include "platform/deploy.h"
#include "platform/footprint.h"
#include "platform/templating.h"

namespace peering::platform {
namespace {

TEST(Footprint, MatchesPaperSection42) {
  PlatformModel model = build_footprint();
  FootprintSummary summary = summarize(model);
  EXPECT_EQ(summary.pop_count, 13u);
  EXPECT_EQ(summary.ixp_pops, 4u);
  EXPECT_EQ(summary.university_pops, 9u);
  EXPECT_EQ(summary.transit_interconnects, 12u);
  EXPECT_EQ(summary.unique_peers, 923u);
  EXPECT_EQ(summary.bilateral_peers, 129u);
  EXPECT_EQ(summary.route_server_peers, 794u);
}

TEST(Footprint, PerIxpCountsMatchPaper) {
  PlatformModel model = build_footprint();
  struct Want {
    const char* pop;
    std::size_t peers;
    std::size_t bilateral;
  };
  for (const Want& want : {Want{"amsterdam01", 854, 106},
                           Want{"seattle01", 306, 63},
                           Want{"phoenix01", 140, 10},
                           Want{"ixbr-mg01", 129, 6}}) {
    const PopModel& pop = model.pops.at(want.pop);
    std::size_t peers = 0, bilateral = 0;
    for (const auto& ic : pop.interconnects) {
      if (ic.type == InterconnectType::kBilateralPeer) {
        ++peers;
        ++bilateral;
      } else if (ic.type == InterconnectType::kRouteServer) {
        ++peers;
      }
    }
    EXPECT_EQ(peers, want.peers) << want.pop;
    EXPECT_EQ(bilateral, want.bilateral) << want.pop;
  }
}

TEST(Footprint, NumberedResourcesMatchPaper) {
  auto resources = NumberedResources::peering_defaults();
  EXPECT_EQ(resources.asns.size(), 8u);  // 8 ASNs
  std::size_t four_byte = 0;
  for (auto asn : resources.asns)
    if (asn > 0xffff) ++four_byte;
  EXPECT_EQ(four_byte, 3u);  // three 4-byte ASNs
  EXPECT_EQ(resources.prefix_pool.size(), 40u);  // 40 /24s
  EXPECT_EQ(resources.v6_allocation.length, 32);
}

TEST(Footprint, GlobalIdsAreUnique) {
  PlatformModel model = build_footprint();
  std::set<std::uint32_t> ids;
  for (const auto& [id, pop] : model.pops)
    for (const auto& ic : pop.interconnects)
      EXPECT_TRUE(ids.insert(ic.global_id).second);
}

class LifecycleTest : public ::testing::Test {
 protected:
  LifecycleTest() : db_(build_footprint()) {}
  ExperimentProposal proposal(const std::string& id) {
    ExperimentProposal p;
    p.id = id;
    p.description = "probe routing policies";
    p.contact = "researcher@example.edu";
    p.requested_prefixes = 2;
    return p;
  }
  ConfigDatabase db_;
};

TEST_F(LifecycleTest, ProposeApproveActivateRetire) {
  ASSERT_TRUE(db_.propose_experiment(proposal("exp1")).ok());
  EXPECT_EQ(db_.experiment("exp1")->status, ExperimentStatus::kProposed);

  auto creds = db_.approve_experiment("exp1");
  ASSERT_TRUE(creds.ok());
  EXPECT_EQ(creds->experiment_id, "exp1");
  EXPECT_NE(creds->bgp_asn, 0u);
  const ExperimentModel* exp = db_.experiment("exp1");
  EXPECT_EQ(exp->status, ExperimentStatus::kApproved);
  EXPECT_EQ(exp->allocated_prefixes.size(), 2u);

  ASSERT_TRUE(db_.activate_experiment("exp1", "amsterdam01").ok());
  EXPECT_EQ(db_.experiment("exp1")->status, ExperimentStatus::kActive);

  ASSERT_TRUE(db_.retire_experiment("exp1").ok());
  EXPECT_EQ(db_.experiment("exp1")->status, ExperimentStatus::kRetired);
  // Prefixes return to the pool.
  EXPECT_EQ(db_.free_prefixes().size(),
            db_.model().resources.prefix_pool.size());
}

TEST_F(LifecycleTest, RejectedProposalConsumesNoAddressSpace) {
  ASSERT_TRUE(db_.propose_experiment(proposal("risky")).ok());
  ASSERT_TRUE(
      db_.reject_experiment("risky", "requires too many AS poisonings").ok());
  EXPECT_EQ(db_.experiment("risky")->status, ExperimentStatus::kRejected);
  EXPECT_EQ(db_.free_prefixes().size(),
            db_.model().resources.prefix_pool.size());
  // Cannot activate a rejected experiment.
  EXPECT_FALSE(db_.activate_experiment("risky", "amsterdam01").ok());

  // A revised proposal under the same id may be resubmitted; a live one
  // may not be double-proposed.
  ASSERT_TRUE(db_.propose_experiment(proposal("risky")).ok());
  EXPECT_EQ(db_.experiment("risky")->status, ExperimentStatus::kProposed);
  EXPECT_FALSE(db_.propose_experiment(proposal("risky")).ok());
}

TEST_F(LifecycleTest, ApprovalCanTrimCapabilities) {
  auto p = proposal("greedy");
  p.requested_capabilities = {enforce::Capability::kAsPathPoisoning,
                              enforce::Capability::kCommunities};
  ASSERT_TRUE(db_.propose_experiment(p).ok());
  auto creds = db_.approve_experiment(
      "greedy", std::set<enforce::Capability>{enforce::Capability::kCommunities});
  ASSERT_TRUE(creds.ok());
  const ExperimentModel* exp = db_.experiment("greedy");
  EXPECT_EQ(exp->capabilities.size(), 1u);
  EXPECT_TRUE(exp->capabilities.count(enforce::Capability::kCommunities));
}

TEST_F(LifecycleTest, AllocationExhaustionIsReported) {
  // 40 prefixes; request 30 then 20.
  auto p1 = proposal("big1");
  p1.requested_prefixes = 30;
  ASSERT_TRUE(db_.propose_experiment(p1).ok());
  ASSERT_TRUE(db_.approve_experiment("big1").ok());
  auto p2 = proposal("big2");
  p2.requested_prefixes = 20;
  ASSERT_TRUE(db_.propose_experiment(p2).ok());
  auto result = db_.approve_experiment("big2");
  EXPECT_FALSE(result.ok());
  // Proposal still pending: can be approved after big1 retires.
  ASSERT_TRUE(db_.retire_experiment("big1").ok());
  EXPECT_TRUE(db_.approve_experiment("big2").ok());
}

TEST_F(LifecycleTest, AssignPrefixesNegativePaths) {
  ASSERT_TRUE(db_.propose_experiment(proposal("hijack")).ok());

  // Not yet approved: no assignment target exists.
  Ipv4Prefix peering = *Ipv4Prefix::parse("184.164.231.0/24");
  EXPECT_FALSE(db_.assign_prefixes("hijack", {peering}).ok());
  ASSERT_TRUE(db_.approve_experiment("hijack").ok());

  // Unknown experiment.
  EXPECT_FALSE(db_.assign_prefixes("nope", {peering}).ok());

  // Space outside PEERING's pool is never assignable — controlled hijacks
  // only ever target the platform's own allocations.
  Ipv4Prefix foreign = *Ipv4Prefix::parse("8.8.8.0/24");
  EXPECT_FALSE(db_.assign_prefixes("hijack", {foreign}).ok());
  EXPECT_FALSE(db_.assign_prefixes("hijack", {peering, foreign}).ok());
  // The failed calls must not have partially applied.
  EXPECT_EQ(db_.experiment("hijack")->allocated_prefixes.size(), 2u);

  // Overlap with another live experiment's allocation IS allowed: that is
  // the controlled-hijack study the override exists for (§7.1).
  ASSERT_TRUE(db_.propose_experiment(proposal("victim")).ok());
  ASSERT_TRUE(db_.approve_experiment("victim").ok());
  std::vector<Ipv4Prefix> victim_alloc =
      db_.experiment("victim")->allocated_prefixes;
  ASSERT_FALSE(victim_alloc.empty());
  EXPECT_TRUE(db_.assign_prefixes("hijack", {victim_alloc[0]}).ok());
  EXPECT_EQ(db_.experiment("hijack")->allocated_prefixes[0], victim_alloc[0]);

  // Retired experiments are immutable.
  ASSERT_TRUE(db_.retire_experiment("hijack").ok());
  EXPECT_FALSE(db_.assign_prefixes("hijack", {peering}).ok());
}

TEST_F(LifecycleTest, UpdateCapabilitiesNegativePaths) {
  ASSERT_TRUE(db_.propose_experiment(proposal("exp1")).ok());

  // Amending a still-proposed experiment is rejected: grants only exist
  // after review.
  EXPECT_FALSE(db_.update_capabilities(
                      "exp1", {enforce::Capability::kCommunities}, 0, 4)
                   .ok());
  EXPECT_FALSE(db_.update_capabilities(
                      "ghost", {enforce::Capability::kCommunities}, 0, 4)
                   .ok());

  ASSERT_TRUE(db_.approve_experiment("exp1").ok());
  EXPECT_TRUE(db_.update_capabilities(
                     "exp1", {enforce::Capability::kCommunities}, 0, 4)
                  .ok());

  // Amend on a retired experiment fails and leaves the record untouched.
  ASSERT_TRUE(db_.retire_experiment("exp1").ok());
  std::uint64_t version = db_.version();
  EXPECT_FALSE(db_.update_capabilities(
                      "exp1", {enforce::Capability::kAsPathPoisoning}, 3, 0)
                   .ok());
  EXPECT_EQ(db_.version(), version);
  EXPECT_TRUE(db_.experiment("exp1")->capabilities.count(
      enforce::Capability::kCommunities));
  EXPECT_EQ(db_.experiment("exp1")->max_poisoned_asns, 0);
}

TEST_F(LifecycleTest, EveryChangeIsVersioned) {
  std::uint64_t v0 = db_.version();
  ASSERT_TRUE(db_.propose_experiment(proposal("exp1")).ok());
  ASSERT_TRUE(db_.approve_experiment("exp1").ok());
  EXPECT_EQ(db_.version(), v0 + 2);
  EXPECT_EQ(db_.history().size(), 2u);
  EXPECT_EQ(db_.history().back().summary, "approve exp1");
}

TEST(Templating, LargePopConfigExceedsTenThousandLines) {
  PlatformModel model = build_footprint();
  auto configs = generate_pop_configs(model, "amsterdam01");
  // "the configuration files for BIRD alone can exceed over 10,000 lines
  // at large PoPs" (§5).
  EXPECT_GT(configs.bird_line_count(), 10000u);
}

TEST(Templating, SmallPopConfigIsSmall) {
  PlatformModel model = build_footprint();
  auto configs = generate_pop_configs(model, "gatech01");
  EXPECT_LT(configs.bird_line_count(), 100u);
}

TEST(Templating, DeterministicOutput) {
  PlatformModel model = build_footprint();
  auto a = generate_pop_configs(model, "amsterdam01");
  auto b = generate_pop_configs(model, "amsterdam01");
  EXPECT_EQ(a.bird_config, b.bird_config);
  EXPECT_EQ(a.network.rules.size(), b.network.rules.size());
}

TEST(Templating, ExperimentCapabilitiesShapeConfig) {
  PlatformModel model = build_footprint();
  ConfigDatabase db(model);
  ExperimentProposal p;
  p.id = "exp1";
  p.requested_prefixes = 1;
  p.requested_capabilities = {enforce::Capability::kCommunities};
  ASSERT_TRUE(db.propose_experiment(p).ok());
  ASSERT_TRUE(db.approve_experiment("exp1").ok());
  ASSERT_TRUE(db.activate_experiment("exp1", "gatech01").ok());

  auto configs = generate_pop_configs(db.model(), "gatech01");
  EXPECT_NE(configs.bird_config.find("experiment_exp1"), std::string::npos);
  EXPECT_NE(configs.bird_config.find("# communities allowed"),
            std::string::npos);
  EXPECT_NE(configs.enforcer_config.find("capability: communities"),
            std::string::npos);
  // The tap interface and allocation route appear in the desired network
  // state.
  bool has_tap = false;
  for (const auto& nif : configs.network.interfaces)
    if (nif.name.rfind("tap", 0) == 0) has_tap = true;
  EXPECT_TRUE(has_tap);
  EXPECT_FALSE(configs.network.routes.empty());
}

TEST(Templating, RenderedConfigsArePinned) {
  ConfigDatabase db(build_footprint());
  ExperimentProposal p;
  p.id = "exp1";
  p.requested_prefixes = 2;
  p.requested_capabilities = {enforce::Capability::kAsPathPoisoning};
  ASSERT_TRUE(db.propose_experiment(p).ok());
  ASSERT_TRUE(db.approve_experiment("exp1").ok());
  ASSERT_TRUE(db.activate_experiment("exp1", "gatech01").ok());
  ASSERT_TRUE(db.activate_experiment("exp1", "amsterdam01").ok());

  // 64-bit FNV-1a over every artifact, against values taken before the
  // BIRD renderers and the tenantless baseline were shared with src/tenant.
  auto fnv1a = [](const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
    return h;
  };
  auto network_text = [](const DesiredNetworkState& state) {
    std::string out;
    for (const auto& nif : state.interfaces) {
      out += nif.name + (nif.up ? " up" : " down");
      for (const auto& a : nif.addresses)
        out += " " + a.address.str() + "/" + std::to_string(a.prefix_length);
      out += "\n";
    }
    for (const auto& rule : state.rules)
      out += std::to_string(rule.priority) + " " + rule.selector + " " +
             std::to_string(rule.table) + "\n";
    for (const auto& route : state.routes)
      out += route.prefix.str() + " via " + route.gateway.str() + " dev " +
             route.interface + " table " + std::to_string(route.table) + "\n";
    return out;
  };
  const GeneratedConfigs small = generate_pop_configs(db.model(), "gatech01");
  EXPECT_EQ(fnv1a(small.bird_config), 0x847628687c864d31ull);
  EXPECT_EQ(fnv1a(network_text(small.network)), 0x05b0fb532f21aab9ull);
  const GeneratedConfigs large =
      generate_pop_configs(db.model(), "amsterdam01");
  EXPECT_EQ(fnv1a(large.bird_config), 0xceda8019923491b8ull);
  EXPECT_EQ(fnv1a(network_text(large.network)), 0xa8ef386989e8b035ull);
}

TEST(Templating, RuleCountTracksInterconnects) {
  PlatformModel model = build_footprint();
  auto ams = generate_pop_configs(model, "amsterdam01");
  EXPECT_EQ(ams.network.rules.size(),
            model.pops.at("amsterdam01").interconnects.size());
}

TEST(Deploy, CanaryHaltsBadRollout) {
  DeploymentOrchestrator orchestrator;
  for (const auto& spec : footprint_pops())
    orchestrator.register_server(spec.id);

  // Health check rejects version "bad".
  orchestrator.set_health_check([](const ServerState& state) {
    for (const auto& [service, version] : state.running)
      if (version == "bad") return false;
    return true;
  });

  auto report = orchestrator.deploy_container({"bird", "bad"}, 2);
  EXPECT_FALSE(report.success);
  EXPECT_TRUE(report.aborted_at_canary);
  // Nothing beyond the first canary ran "bad".
  int running_bad = 0;
  for (const auto& id : orchestrator.servers()) {
    auto it = orchestrator.server(id)->running.find("bird");
    if (it != orchestrator.server(id)->running.end() && it->second == "bad")
      ++running_bad;
  }
  EXPECT_EQ(running_bad, 0);  // canary itself was rolled back
}

TEST(Deploy, GoodRolloutReachesFleet) {
  DeploymentOrchestrator orchestrator;
  for (const auto& spec : footprint_pops())
    orchestrator.register_server(spec.id);
  auto report = orchestrator.deploy_container({"bird", "2.0.7"}, 2);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.canaried.size(), 2u);
  EXPECT_EQ(report.updated.size(), 11u);
  for (const auto& id : orchestrator.servers())
    EXPECT_EQ(orchestrator.server(id)->running.at("bird"), "2.0.7");
}

TEST(Deploy, DriftDetectionAndReconcile) {
  DeploymentOrchestrator orchestrator;
  orchestrator.register_server("a");
  orchestrator.register_server("b");
  ASSERT_TRUE(orchestrator.deploy_config(5).success);
  EXPECT_TRUE(orchestrator.drifted(5).empty());
  EXPECT_EQ(orchestrator.drifted(6).size(), 2u);
  EXPECT_EQ(orchestrator.reconcile(6), 2u);
  EXPECT_TRUE(orchestrator.drifted(6).empty());
}

}  // namespace
}  // namespace peering::platform

// Appendix A tests: filtered propagation and looking-glass-based filter
// localization, including the ambiguity the appendix describes (adjacent
// looking glasses cannot split "A did not export" from "B filtered").
#include <gtest/gtest.h>

#include <cstdint>

#include "inet/debugging.h"

namespace peering::inet {
namespace {

/// FNV-1a over every AS's selected route: its ASN, route type and full
/// path, in ASN order. Two route maps hash alike iff (up to collisions)
/// they are equal, tie-breaks included.
std::uint64_t hash_routes(std::uint64_t h,
                          const std::map<bgp::Asn, AsRoute>& routes) {
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(routes.size());
  for (const auto& [asn, route] : routes) {
    mix(asn);
    mix(static_cast<std::uint64_t>(route.type));
    mix(route.path.size());
    for (bgp::Asn hop : route.path) mix(hop);
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// Topology:  origin(10) -> t2(2) -> t1(1) -> t2b(3) -> stub(5)
///            plus a lateral peering t2(2) -- t2b(3).
class DebuggingTopology : public ::testing::Test {
 protected:
  DebuggingTopology() {
    g.add_provider(10, 2);  // 2 transits for origin
    g.add_provider(2, 1);
    g.add_provider(3, 1);
    g.add_peering(2, 3);
    g.add_provider(5, 3);
  }
  AsGraph g;
};

TEST_F(DebuggingTopology, UnfilteredMatchesBaseline) {
  // An empty blocked set is plain Gao-Rexford propagation: AS3 prefers its
  // peer route over the provider route via AS1, and hands it down to AS5.
  auto routes = g.routes_to(10, {});
  ASSERT_EQ(routes.size(), 5u);
  EXPECT_EQ(routes[10].path, (std::vector<bgp::Asn>{}));
  EXPECT_EQ(routes[2].path, (std::vector<bgp::Asn>{10}));
  EXPECT_EQ(routes[1].path, (std::vector<bgp::Asn>{2, 10}));
  EXPECT_EQ(routes[3].type, RouteType::kPeer);
  EXPECT_EQ(routes[3].path, (std::vector<bgp::Asn>{2, 10}));
  EXPECT_EQ(routes[5].type, RouteType::kProvider);
  EXPECT_EQ(routes[5].path, (std::vector<bgp::Asn>{3, 2, 10}));
}

TEST_F(DebuggingTopology, BlockedEdgeRemovesOrReroutes) {
  // Block the peering edge 2 -> 3: 3 falls back to the path via 1.
  auto routes = g.routes_to(10, {{2, 3}});
  ASSERT_TRUE(routes.count(3));
  EXPECT_EQ(routes[3].path, (std::vector<bgp::Asn>{1, 2, 10}));

  // Block both of 3's feeds: 3 and its customer 5 lose the route entirely.
  auto cut = g.routes_to(10, {{2, 3}, {1, 3}});
  EXPECT_FALSE(cut.count(3));
  EXPECT_FALSE(cut.count(5));
}

TEST_F(DebuggingTopology, BlockedFirstHopKillsEverything) {
  auto routes = g.routes_to(10, {{10, 2}});
  EXPECT_EQ(routes.size(), 1u);  // only the origin itself
}

TEST_F(DebuggingTopology, LocatesFilteringEdgeWithFullVisibility) {
  std::set<FilteredEdge> blocked{{2, 3}, {1, 3}};
  auto ground_truth = g.routes_to(10, blocked);
  LookingGlassSet glasses(ground_truth, {1, 2, 3, 5, 10});

  auto diagnosis = locate_filters(g, 10, glasses);
  // Both blocked feeds of AS3 are flagged as suspect adjacencies.
  std::set<FilteredEdge> suspects(diagnosis.suspects.begin(),
                                  diagnosis.suspects.end());
  EXPECT_TRUE(suspects.count({2, 3}));
  EXPECT_TRUE(suspects.count({1, 3}));
  // AS5's missing route is explained by its (observable) provider also
  // missing it, so it is neither suspect nor unexplained.
  for (const auto& [e, i] : suspects) EXPECT_NE(i, 5u);
}

TEST_F(DebuggingTopology, AmbiguityIsPreservedNotGuessed) {
  // The diagnosis names the *edge*, never one side: verify the API shape
  // by checking the suspect is exactly the adjacency (1,3) when only that
  // edge is filtered.
  std::set<FilteredEdge> blocked{{1, 3}, {2, 3}};
  auto ground_truth = g.routes_to(10, blocked);
  LookingGlassSet glasses(ground_truth, {1, 3});
  auto diagnosis = locate_filters(g, 10, glasses);
  ASSERT_FALSE(diagnosis.suspects.empty());
  EXPECT_EQ(diagnosis.suspects.front(), (FilteredEdge{1, 3}));
}

TEST_F(DebuggingTopology, LimitedGlassesYieldUnexplained) {
  std::set<FilteredEdge> blocked{{2, 3}, {1, 3}};
  auto ground_truth = g.routes_to(10, blocked);
  // Looking glasses only at AS3 and AS5: none of their upstreams are
  // observable for 5 (3 is observable), and 3's upstreams are dark.
  LookingGlassSet glasses(ground_truth, {3, 5});
  auto diagnosis = locate_filters(g, 10, glasses);
  EXPECT_TRUE(diagnosis.suspects.empty());
  // AS3 has no observable upstream: the dead end that requires "emailing
  // our transit providers".
  EXPECT_EQ(diagnosis.unexplained, (std::vector<bgp::Asn>{3}));
}

TEST_F(DebuggingTopology, NoFalsePositivesWithoutFilters) {
  auto ground_truth = g.routes_to(10);
  LookingGlassSet glasses(ground_truth, {1, 2, 3, 5, 10});
  auto diagnosis = locate_filters(g, 10, glasses);
  EXPECT_TRUE(diagnosis.suspects.empty());
  EXPECT_TRUE(diagnosis.unexplained.empty());
}

TEST_F(DebuggingTopology, FilteredPropagationIsPinned) {
  // The exact routes, tie-breaks included, for every blocked set the tests
  // above use. Property tests would not notice a changed tie-break.
  const std::vector<std::set<FilteredEdge>> blocked_sets = {
      {}, {{2, 3}}, {{2, 3}, {1, 3}}, {{10, 2}}};
  std::uint64_t h = kFnvOffset;
  for (const auto& blocked : blocked_sets)
    h = hash_routes(h, g.routes_to(10, blocked));
  EXPECT_EQ(h, 0x0c9e112f9b9c7c00ull);
}

TEST(PropagationPin, GeneratedInternetRoutesArePinned) {
  // Every AS's route toward every origin of the default seeded Internet.
  Internet net = generate_internet(InternetConfig{});
  std::uint64_t h = kFnvOffset;
  for (bgp::Asn origin : net.graph.ases())
    h = hash_routes(h, net.graph.routes_to(origin));
  EXPECT_EQ(h, 0xca36e2cbcb21c2baull);
}

TEST(PropagationPin, GeneratedInternetFilteredRoutesArePinned) {
  // Every stub origin with a seeded set of blocked provider, peer and
  // customer edges: all three propagation phases skip some edge.
  Internet net = generate_internet(InternetConfig{});
  Rng rng(7);
  std::set<FilteredEdge> blocked;
  for (int i = 0; i < 12; ++i) {
    bgp::Asn t2 = net.tier2[rng.below(net.tier2.size())];
    const auto& providers = net.graph.providers(t2);
    const auto& peers = net.graph.peers(t2);
    const auto& customers = net.graph.customers(t2);
    if (!providers.empty())
      blocked.insert({t2, providers[rng.below(providers.size())]});
    if (!peers.empty()) blocked.insert({t2, peers[rng.below(peers.size())]});
    if (!customers.empty())
      blocked.insert({t2, customers[rng.below(customers.size())]});
  }
  std::uint64_t h = kFnvOffset;
  for (bgp::Asn origin : net.stubs)
    h = hash_routes(h, net.graph.routes_to(origin, blocked));
  EXPECT_EQ(h, 0x75768ccedbb873afull);
}

TEST(FilteredPropagationProperty, FilteredReachabilityIsMonotone) {
  // Adding blocked edges never gains reachability.
  InternetConfig config;
  config.tier1_count = 3;
  config.tier2_count = 8;
  config.stub_count = 20;
  Internet net = generate_internet(config);
  bgp::Asn origin = net.stubs.front();
  Rng rng(11);

  std::set<FilteredEdge> blocked;
  std::size_t last_reach = net.graph.routes_to(origin).size();
  for (int i = 0; i < 10; ++i) {
    // Block a random provider edge.
    bgp::Asn t2 = net.tier2[rng.below(net.tier2.size())];
    const auto& providers = net.graph.providers(t2);
    if (providers.empty()) continue;
    blocked.insert({t2, providers[rng.below(providers.size())]});
    std::size_t reach = net.graph.routes_to(origin, blocked).size();
    EXPECT_LE(reach, last_reach);
    last_reach = reach;
  }
}

}  // namespace
}  // namespace peering::inet

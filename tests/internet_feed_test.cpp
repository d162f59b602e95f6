// §4.2 reachability semantics over the synthetic Internet, and the
// platform feed that enacts them:
//   * announcements via transit providers can reach every AS;
//   * announcements made only to a peer reach exactly the peer's customer
//     cone ("ASes in the customer cones of our peers receive announcements
//     made by experiments to peers");
//   * live neighbors fed from the graph export per Gao-Rexford policy
//     (transits: full table; peers: customer cone only).
// Plus (ISSUE 10): distribution validation of the internet-scale full-table
// generator — chi-square on the specific-prefix length histogram, AS-path
// and community-carriage means, attr-template dedup — across several seeds,
// and byte-identity of the feed and churn schedule under a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/attributes.h"
#include "bgp/rib.h"
#include "inet/route_feed.h"
#include "inet/topology.h"
#include "platform/internet_feed.h"
#include "toolkit/client.h"

namespace peering {
namespace {

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }

/// PEERING (47065) with one transit (3000, under tier-1 100) and one peer
/// (4000, with customers 4001/4002); an unrelated stub 5001 under the
/// tier-1.
class ReachabilityTopology : public ::testing::Test {
 protected:
  ReachabilityTopology() {
    g.add_provider(47065, 3000);
    g.add_provider(3000, 100);
    g.add_peering(47065, 4000);
    g.add_provider(4000, 100);
    g.add_provider(4001, 4000);
    g.add_provider(4002, 4001);  // nested cone
    g.add_provider(5001, 100);
  }
  inet::AsGraph g;
};

TEST_F(ReachabilityTopology, TransitAnnouncementReachesEveryAs) {
  auto routes = g.routes_to(47065);
  EXPECT_EQ(routes.size(), g.as_count());
}

TEST_F(ReachabilityTopology, PeerOnlyAnnouncementReachesExactlyTheCone) {
  // Announce to the peer only: block the transit edge.
  auto routes = g.routes_to(47065, {{47065, 3000}});
  std::set<bgp::Asn> reached;
  for (const auto& [asn, route] : routes) reached.insert(asn);
  reached.erase(47065);  // self

  auto cone = g.customer_cone(4000);
  EXPECT_EQ(reached, cone) << "peer announcement must reach exactly the "
                              "peer's customer cone";
  // Explicitly: the unrelated stub and the tier-1 do not see it (peers do
  // not re-export peer routes upward or laterally).
  EXPECT_FALSE(reached.count(5001));
  EXPECT_FALSE(reached.count(100));
  EXPECT_TRUE(reached.count(4002));  // nested cone member
}

TEST_F(ReachabilityTopology, ExtraRouteDiversityForConeMembers) {
  // §4.2: cone members are reachable both via all transits and via the
  // peer — "extra" route diversity. Compare path sets with and without
  // the peer edge.
  auto with_peer = g.routes_to(47065);
  auto without_peer =
      g.routes_to(47065, {{47065, 4000}, {4000, 47065}});
  ASSERT_TRUE(with_peer.count(4001));
  ASSERT_TRUE(without_peer.count(4001));
  // With the peering, the cone member uses the short peer path; without
  // it, the longer transit path. Both exist -> diversity.
  EXPECT_LT(with_peer[4001].path.size(), without_peer[4001].path.size());
}

TEST(InternetFeed, FeedsNeighborsWithPolicyCorrectTables) {
  // A PoP whose two live neighbors are the transit 3000 and the peer 4000
  // from a generated Internet-like graph.
  inet::Internet internet;
  internet.graph.add_provider(47065, 3000);
  internet.graph.add_provider(3000, 100);
  internet.graph.add_peering(47065, 4000);
  internet.graph.add_provider(4000, 100);
  internet.graph.add_provider(4001, 4000);
  internet.graph.add_provider(5001, 100);
  internet.prefixes[4001] = pfx("192.0.1.0/24");   // in the peer's cone
  internet.prefixes[5001] = pfx("192.0.2.0/24");   // outside it

  platform::PlatformModel model;
  model.resources = platform::NumberedResources::peering_defaults();
  platform::PopModel pop;
  pop.id = "pop1";
  pop.type = platform::PopType::kIxp;
  pop.interconnects.push_back(
      {"transit-3000", 3000, platform::InterconnectType::kTransit, 1});
  pop.interconnects.push_back(
      {"peer-4000", 4000, platform::InterconnectType::kBilateralPeer, 2});
  model.pops[pop.id] = pop;

  sim::EventLoop loop;
  platform::ConfigDatabase db(model);
  platform::Peering peering(&loop, &db);
  peering.build();
  peering.settle();

  auto stats = platform::feed_from_internet(peering, "pop1", internet);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->neighbors_fed, 2u);
  // Transit: both prefixes. Peer: only the cone prefix. Total 3.
  EXPECT_EQ(stats->routes_fed, 3u);
  peering.settle();

  // The experiment sees the policy difference as path diversity.
  platform::ExperimentProposal proposal;
  proposal.id = "exp1";
  proposal.requested_prefixes = 1;
  ASSERT_TRUE(db.propose_experiment(proposal).ok());
  ASSERT_TRUE(db.approve_experiment("exp1").ok());
  toolkit::ExperimentClient client(&loop, "exp1");
  ASSERT_TRUE(client.open_tunnel(peering, "pop1").ok());
  ASSERT_TRUE(client.start_bgp("pop1").ok());
  peering.settle();

  // Cone prefix: two paths (transit + peer). Outside prefix: transit only.
  EXPECT_EQ(client.routes(pfx("192.0.1.0/24")).size(), 2u);
  auto outside = client.routes(pfx("192.0.2.0/24"));
  ASSERT_EQ(outside.size(), 1u);
  EXPECT_EQ(outside[0].neighbor_name, "transit-3000");
  // The peer's path to the cone prefix is the direct customer route.
  for (const auto& view : client.routes(pfx("192.0.1.0/24"))) {
    if (view.neighbor_name == "peer-4000") {
      EXPECT_EQ(view.as_path.flatten(), (std::vector<bgp::Asn>{4000, 4001}));
    }
  }
}

// ---------------------------------------------------------------------------
// ISSUE 10: full-table generator distribution validation.

constexpr std::size_t kSampleRoutes = 200'000;
const std::uint64_t kSeeds[] = {11, 23, 37};

inet::FullTableConfig sample_config(std::uint64_t seed) {
  inet::FullTableConfig config;
  config.route_count = kSampleRoutes;
  config.seed = seed;
  return config;
}

Bytes attr_bytes(const bgp::PathAttributes& attrs) {
  return bgp::encode_attributes(attrs, bgp::AttrCodecOptions{});
}

TEST(FullTableDistributions, SpecificLengthHistogramPassesChiSquare) {
  for (std::uint64_t seed : kSeeds) {
    inet::FullTableStats stats;
    auto feed = inet::generate_full_table(sample_config(seed), &stats);
    ASSERT_EQ(feed.size(), kSampleRoutes);

    std::map<std::uint8_t, std::size_t> histogram;
    std::size_t specifics = 0, aggregates = 0;
    for (const auto& route : feed) {
      if (route.prefix.length() >= 18) {
        ++histogram[route.prefix.length()];
        ++specifics;
        EXPECT_FALSE(route.attrs.atomic_aggregate);
      } else {
        ++aggregates;
        EXPECT_TRUE(route.attrs.atomic_aggregate)
            << "aggregate " << route.prefix.str() << " (seed " << seed
            << ") not flagged";
      }
    }
    EXPECT_EQ(specifics, stats.specific_routes);
    EXPECT_EQ(aggregates, stats.aggregate_routes);

    // Pearson chi-square of the observed specific-length histogram against
    // the model the generator draws from. 7 bins -> 6 degrees of freedom;
    // the p=0.001 critical value is 22.5, so 40 only trips on a genuinely
    // broken sampler, not on seed luck.
    double chi_square = 0;
    double modeled_share = 0;
    for (const auto& row : inet::full_table_length_model()) {
      modeled_share += row.share;
      double expected = row.share * static_cast<double>(specifics);
      ASSERT_GT(expected, 5.0);  // chi-square validity
      auto it = histogram.find(row.length);
      double observed =
          it == histogram.end() ? 0.0 : static_cast<double>(it->second);
      chi_square += (observed - expected) * (observed - expected) / expected;
      histogram.erase(row.length);
    }
    EXPECT_NEAR(modeled_share, 1.0, 1e-9);
    EXPECT_TRUE(histogram.empty())
        << "seed " << seed << ": specifics at lengths outside the model";
    EXPECT_LT(chi_square, 40.0) << "seed " << seed;
  }
}

TEST(FullTableDistributions, PathAndCommunityMomentsMatchConfig) {
  for (std::uint64_t seed : kSeeds) {
    const inet::FullTableConfig config = sample_config(seed);
    auto feed = inet::generate_full_table(config);

    double path_hops = 0;
    std::size_t max_path = 0;
    std::size_t carrying = 0, communities = 0;
    for (const auto& route : feed) {
      std::size_t hops = route.attrs.as_path.flatten().size();
      path_hops += static_cast<double>(hops);
      max_path = std::max(max_path, hops);
      if (!route.attrs.communities.empty()) {
        ++carrying;
        communities += route.attrs.communities.size();
      }
    }
    const double n = static_cast<double>(feed.size());

    // Mean AS-path length: the configured mean plus the ~0.2 hops the
    // origin-prepending model adds on top. Tolerances absorb the per-origin
    // clustering (one template can cover thousands of prefixes, so the
    // effective sample is the template count, not the route count).
    EXPECT_NEAR(path_hops / n, config.mean_path_length + 0.2, 0.5)
        << "seed " << seed;
    // Neighbor + 10-hop tail cap + origin + 2 prepends.
    EXPECT_LE(max_path, 14u) << "seed " << seed;

    EXPECT_NEAR(static_cast<double>(carrying) / n, config.community_carriage,
                0.06)
        << "seed " << seed;
    EXPECT_NEAR(static_cast<double>(communities) /
                    static_cast<double>(carrying),
                config.mean_communities, 0.6)
        << "seed " << seed;
  }
}

TEST(FullTableDistributions, ZipfOriginsShareAttributeTemplates) {
  for (std::uint64_t seed : kSeeds) {
    const inet::FullTableConfig config = sample_config(seed);
    inet::FullTableStats stats;
    auto feed = inet::generate_full_table(config, &stats);

    EXPECT_EQ(stats.origin_count,
              static_cast<std::size_t>(
                  static_cast<double>(config.route_count) /
                  config.mean_prefixes_per_origin));
    EXPECT_EQ(stats.specific_routes + stats.aggregate_routes, feed.size());

    // Attr-template dedup: real tables share attribute sets heavily; the
    // pool ceiling must stay well under the route count.
    EXPECT_LT(static_cast<double>(stats.distinct_attr_sets),
              0.25 * static_cast<double>(feed.size()))
        << "seed " << seed;

    // Prefixes are unique, and the per-origin counts are head-heavy: the
    // top 1% of origins must carry a disproportionate share of the table
    // (the Zipf head), bounded by the 3000-prefix cap.
    std::set<std::pair<std::uint32_t, std::uint8_t>> prefixes;
    std::unordered_map<bgp::Asn, std::size_t> by_origin;
    for (const auto& route : feed) {
      EXPECT_TRUE(prefixes
                      .insert({route.prefix.address().value(),
                               route.prefix.length()})
                      .second)
          << "duplicate " << route.prefix.str() << " (seed " << seed << ")";
      ++by_origin[route.attrs.as_path.flatten().back()];
    }
    EXPECT_EQ(by_origin.size(), stats.origin_count);
    std::vector<std::size_t> counts;
    counts.reserve(by_origin.size());
    for (const auto& [asn, count] : by_origin) counts.push_back(count);
    std::sort(counts.rbegin(), counts.rend());
    std::size_t head = std::max<std::size_t>(1, counts.size() / 100);
    std::size_t head_routes = 0;
    for (std::size_t i = 0; i < head; ++i) head_routes += counts[i];
    EXPECT_GT(static_cast<double>(head_routes),
              0.25 * static_cast<double>(feed.size()))
        << "seed " << seed << ": top 1% of origins carry too little";
    EXPECT_LE(counts.front(), 3000u) << "seed " << seed;
  }
}

TEST(FullTableDistributions, SameSeedIsByteIdentical) {
  inet::FullTableConfig config = sample_config(7);
  config.route_count = 50'000;
  auto a = inet::generate_full_table(config);
  auto b = inet::generate_full_table(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].prefix, b[i].prefix) << "route " << i;
    ASSERT_EQ(a[i].withdraw, b[i].withdraw) << "route " << i;
    ASSERT_EQ(attr_bytes(a[i].attrs), attr_bytes(b[i].attrs)) << "route " << i;
  }

  config.seed = 8;
  auto c = inet::generate_full_table(config);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = !(a[i].prefix == c[i].prefix) ||
              attr_bytes(a[i].attrs) != attr_bytes(c[i].attrs);
  EXPECT_TRUE(differs) << "different seeds produced identical tables";
}

TEST(ChurnScheduleTest, SameSeedScheduleIsByteIdentical) {
  inet::ChurnScheduleConfig config;
  config.duration = Duration::minutes(10);
  auto a = inet::generate_churn_schedule(50'000, config);
  auto b = inet::generate_churn_schedule(50'000, config);
  EXPECT_FALSE(a.events.empty());
  EXPECT_EQ(a.log(), b.log());
  EXPECT_EQ(a.announces + a.withdraws, a.events.size());

  config.seed = 2;
  auto c = inet::generate_churn_schedule(50'000, config);
  EXPECT_NE(a.log(), c.log()) << "different seeds produced identical schedules";
}

TEST(ChurnScheduleTest, ScheduleIsOrderedAndClosed) {
  inet::ChurnScheduleConfig config;
  config.duration = Duration::minutes(10);
  auto schedule = inet::generate_churn_schedule(50'000, config);
  ASSERT_FALSE(schedule.events.empty());
  EXPECT_GT(schedule.withdraws, 0u);

  // Events are time-ordered, and the last event for every touched route is
  // a variant-0 announce (original attributes): the closure property the
  // soak's fresh-converged-reference check depends on.
  std::unordered_map<std::uint32_t, const inet::ChurnEvent*> last;
  Duration previous;
  for (const auto& event : schedule.events) {
    EXPECT_GE(event.at.ns(), previous.ns());
    previous = event.at;
    last[event.route] = &event;
  }
  for (const auto& [route, event] : last) {
    EXPECT_EQ(event->kind, inet::ChurnKind::kAnnounce) << "route " << route;
    EXPECT_EQ(event->variant, 0) << "route " << route;
    EXPECT_LE(event->at.ns(), schedule.end.ns());
  }
}

// ---------------------------------------------------------------------------
// ISSUE 10 satellite: generate_churn models withdrawals, and a withdraw
// wave followed by re-announcement round-trips the Loc-RIB to
// byte-identical state.

std::vector<Bytes> locrib_lines(const bgp::LocRib& rib) {
  std::vector<Bytes> lines;
  rib.visit_all([&lines](const bgp::RibRoute& route) {
    Bytes line = attr_bytes(*route.attrs);
    line.push_back(static_cast<std::uint8_t>(route.prefix.length()));
    std::uint32_t addr = route.prefix.address().value();
    for (int b = 0; b < 4; ++b)
      line.push_back(static_cast<std::uint8_t>(addr >> (8 * b)));
    lines.push_back(std::move(line));
  });
  return lines;
}

TEST(ChurnStreamTest, WithdrawalsRoundTripToByteIdenticalState) {
  inet::RouteFeedConfig feed_config;
  feed_config.route_count = 4'000;
  feed_config.seed = 5;
  auto feed = inet::generate_feed(feed_config);

  constexpr bgp::PeerId kPeer = 1;
  bgp::AttrPool pool;
  bgp::LocRib rib([](bgp::PeerId) { return bgp::PeerDecisionInfo{}; });
  std::unordered_map<std::uint32_t, Bytes> original;
  auto apply = [&](const inet::FeedRoute& update) {
    if (update.withdraw) {
      rib.withdraw(update.prefix, kPeer, 0);
      return;
    }
    bgp::RibRoute route;
    route.prefix = update.prefix;
    route.peer = kPeer;
    route.attrs = pool.intern(update.attrs);
    rib.update(route);
  };
  for (const auto& route : feed) {
    apply(route);
    original[route.prefix.address().value()] = attr_bytes(route.attrs);
  }
  const std::vector<Bytes> converged = locrib_lines(rib);
  ASSERT_EQ(rib.route_count(), feed.size());

  // The churn stream must contain real withdrawals, and every
  // re-announcement of a withdrawn route must carry the ORIGINAL feed
  // attributes byte-identically (the stream's documented round-trip
  // guarantee).
  auto churn = inet::generate_churn(feed, 20'000, 9);
  std::size_t withdraws = 0, reannounces = 0;
  std::set<std::uint32_t> down;
  for (const auto& update : churn) {
    std::uint32_t key = update.prefix.address().value();
    if (update.withdraw) {
      ++withdraws;
      EXPECT_TRUE(down.insert(key).second)
          << "double withdraw of " << update.prefix.str();
    } else if (down.erase(key) == 1) {
      ++reannounces;
      EXPECT_EQ(attr_bytes(update.attrs), original[key])
          << "re-announce of " << update.prefix.str()
          << " lost the original attributes";
    }
    apply(update);
  }
  EXPECT_GT(withdraws, 0u);
  EXPECT_GT(reannounces, 0u);
  // Withdrawals actually emptied Loc-RIB entries: exactly the still-down
  // routes are absent.
  EXPECT_EQ(rib.route_count(), feed.size() - down.size());
  EXPECT_FALSE(down.empty())
      << "stream seed left nothing withdrawn; weaken the test differently";

  // Re-announce what is still down (exactly what the stream would emit
  // next for each), then replay the original feed over the perturbed
  // survivors: the Loc-RIB must return to byte-identical converged state.
  for (std::uint32_t key : down) {
    for (const auto& route : feed) {
      if (route.prefix.address().value() == key) {
        apply(route);
        break;
      }
    }
  }
  EXPECT_EQ(rib.route_count(), feed.size());
  for (const auto& route : feed) apply(route);
  EXPECT_EQ(locrib_lines(rib), converged);
}

}  // namespace
}  // namespace peering

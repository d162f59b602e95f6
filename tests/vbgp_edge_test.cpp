// vBGP edge cases: TTL expiry at the router, drops for destinations that
// are neither experiments' nor ours (no transit), bandwidth-capped sites
// shaping experiment traffic, the operational "show" surface, and the
// per-neighbor FIB of a neighbor that announces third-party next-hops.
#include <gtest/gtest.h>

#include "bgp/message.h"
#include "mon/looking_glass.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "platform/peering.h"
#include "sim/stream.h"
#include "toolkit/client.h"
#include "vbgp/vrouter.h"

namespace peering {
namespace {

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }

platform::PlatformModel capped_model() {
  platform::PlatformModel model;
  model.resources = platform::NumberedResources::peering_defaults();
  platform::PopModel pop;
  pop.id = "capped01";
  pop.location = "Bandwidth-capped university";
  pop.type = platform::PopType::kUniversity;
  // 80 kbit/s agreed with the site operators (§4.7: two sites shape).
  pop.bandwidth_limit_bps = 80'000;
  pop.interconnects.push_back(
      {"transit-a", 65001, platform::InterconnectType::kTransit, 1});
  model.pops[pop.id] = pop;
  return model;
}

class EdgeTest : public ::testing::Test {
 protected:
  EdgeTest() : db_(capped_model()), peering_(&loop_, &db_) {
    peering_.build();
    peering_.settle();

    platform::ExperimentProposal proposal;
    proposal.id = "exp1";
    proposal.requested_prefixes = 1;
    EXPECT_TRUE(db_.propose_experiment(proposal).ok());
    EXPECT_TRUE(db_.approve_experiment("exp1").ok());

    inet::FeedRoute route;
    route.prefix = pfx("192.168.0.0/24");
    route.attrs.as_path = bgp::AsPath({65001, 64999});
    EXPECT_TRUE(peering_.feed_routes("capped01", 0, {route}).ok());
    auto* pop = peering_.pop("capped01");
    pop->neighbors[0]->host->add_interface("stub", MacAddress::from_id(0xA00001))
        .add_address({Ipv4Address(192, 168, 0, 1), 24});
    peering_.settle();
  }

  std::unique_ptr<toolkit::ExperimentClient> connect() {
    auto client = std::make_unique<toolkit::ExperimentClient>(&loop_, "exp1");
    EXPECT_TRUE(client->open_tunnel(peering_, "capped01").ok());
    EXPECT_TRUE(client->start_bgp("capped01").ok());
    peering_.settle();
    return client;
  }

  /// `vbgp_frames_dropped_total{reason}` at `router`; -1 if unregistered.
  std::int64_t dropped(const vbgp::VRouter* router, const char* reason) {
    const obs::Labels labels{{"pop", "capped01"},
                             {"reason", reason},
                             {"router", router->name()}};
    return registry_.snapshot(loop_.now())
        .value("vbgp_frames_dropped_total", labels, -1);
  }

  /// Installed before the platform is built, so the routers' counters
  /// resolve against it.
  obs::Registry registry_{true};
  obs::Scope scope_{&registry_};
  sim::EventLoop loop_;
  platform::ConfigDatabase db_;
  platform::Peering peering_;
};

TEST_F(EdgeTest, TtlExpiryAtRouterYieldsTimeExceeded) {
  auto client_ptr = connect();
  auto& client = *client_ptr;
  auto views = client.routes(pfx("192.168.0.0/24"));
  ASSERT_EQ(views.size(), 1u);
  ASSERT_TRUE(client
                  .select_egress(pfx("192.168.0.0/24"), "capped01",
                                 views[0].virtual_next_hop)
                  .ok());

  bool got_ttl_exceeded = false;
  client.host().on_packet([&](const ip::Ipv4Packet& packet, int,
                              const ether::EthernetFrame&) {
    auto msg = ip::IcmpMessage::decode(packet.payload);
    if (msg && msg->type == ip::IcmpType::kTimeExceeded)
      got_ttl_exceeded = true;
  });
  ip::Ipv4Packet probe;
  probe.src = db_.experiment("exp1")->allocated_prefixes[0].address();
  probe.src = Ipv4Address(probe.src.value() + 1);
  probe.dst = Ipv4Address(192, 168, 0, 1);
  probe.ttl = 1;  // dies at the vBGP router
  client.host().send_packet(std::move(probe));
  peering_.settle(Duration::seconds(3));
  EXPECT_TRUE(got_ttl_exceeded);
}

TEST_F(EdgeTest, NonExperimentDestinationIsNotTransited) {
  // A neighbor sends traffic for space that belongs to nobody here: vBGP
  // must drop it (§7.4: "experiments cannot transit traffic that is
  // neither from nor to a Peering address").
  auto* pop = peering_.pop("capped01");
  auto& nb = *pop->neighbors[0];
  std::uint64_t delivered_before = pop->router->stats().frames_to_experiments;
  ip::Ipv4Packet stray;
  stray.src = Ipv4Address(192, 168, 0, 1);
  stray.dst = Ipv4Address(203, 0, 113, 99);  // not allocated to anyone
  nb.host->send_packet(std::move(stray));
  peering_.settle(Duration::seconds(2));
  EXPECT_EQ(pop->router->stats().frames_to_experiments, delivered_before);
}

TEST_F(EdgeTest, NoTransitDropIsCountedWithItsReason) {
  auto* pop = peering_.pop("capped01");
  auto& nb = *pop->neighbors[0];
  const std::int64_t before = dropped(pop->router.get(), "no_transit");
  ASSERT_GE(before, 0) << "no_transit drop counter not registered";
  ip::Ipv4Packet stray;
  stray.src = Ipv4Address(192, 168, 0, 1);
  stray.dst = Ipv4Address(203, 0, 113, 99);  // owned by no experiment
  nb.host->send_packet(std::move(stray));
  peering_.settle(Duration::seconds(2));
  EXPECT_EQ(dropped(pop->router.get(), "no_transit"), before + 1);
}

TEST_F(EdgeTest, EnforcementDropIsCountedWithItsReason) {
  auto client_ptr = connect();
  auto& client = *client_ptr;
  auto views = client.routes(pfx("192.168.0.0/24"));
  ASSERT_EQ(views.size(), 1u);
  ASSERT_TRUE(client
                  .select_egress(pfx("192.168.0.0/24"), "capped01",
                                 views[0].virtual_next_hop)
                  .ok());
  auto* router = peering_.pop("capped01")->router.get();
  const std::int64_t before = dropped(router, "enforcement");
  ASSERT_GE(before, 0) << "enforcement drop counter not registered";
  ip::Ipv4Packet spoofed;
  spoofed.src = Ipv4Address(198, 51, 100, 7);  // outside the allocation
  spoofed.dst = Ipv4Address(192, 168, 0, 1);
  client.host().send_packet(std::move(spoofed));
  peering_.settle(Duration::seconds(2));
  EXPECT_EQ(dropped(router, "enforcement"), before + 1);
}

TEST_F(EdgeTest, NoFibRouteDropIsCountedWithItsReason) {
  auto client_ptr = connect();
  auto& client = *client_ptr;
  auto views = client.routes(pfx("192.168.0.0/24"));
  ASSERT_EQ(views.size(), 1u);
  // Steer a destination the neighbor never announced at its virtual
  // next-hop: the neighbor's FIB has no route for it.
  ASSERT_TRUE(client
                  .select_egress(pfx("198.18.0.0/24"), "capped01",
                                 views[0].virtual_next_hop)
                  .ok());
  auto* router = peering_.pop("capped01")->router.get();
  const std::int64_t before = dropped(router, "no_fib_route");
  ASSERT_GE(before, 0) << "no_fib_route drop counter not registered";
  ip::Ipv4Packet probe;
  probe.src = db_.experiment("exp1")->allocated_prefixes[0].address();
  probe.src = Ipv4Address(probe.src.value() + 1);
  probe.dst = Ipv4Address(198, 18, 0, 1);
  client.host().send_packet(std::move(probe));
  peering_.settle(Duration::seconds(2));
  EXPECT_EQ(dropped(router, "no_fib_route"), before + 1);
}

TEST_F(EdgeTest, BandwidthCappedSiteShapesExperimentTraffic) {
  auto client_ptr = connect();
  auto& client = *client_ptr;
  auto views = client.routes(pfx("192.168.0.0/24"));
  ASSERT_EQ(views.size(), 1u);
  ASSERT_TRUE(client
                  .select_egress(pfx("192.168.0.0/24"), "capped01",
                                 views[0].virtual_next_hop)
                  .ok());

  // Blast 40 1KB packets instantly: at 80 kbit/s (10 kB/s, 1s burst) only
  // ~10 should pass the token bucket.
  auto* pop = peering_.pop("capped01");
  int received = 0;
  pop->neighbors[0]->host->on_packet(
      [&](const ip::Ipv4Packet&, int, const ether::EthernetFrame&) {
        ++received;
      });
  Ipv4Address src(db_.experiment("exp1")->allocated_prefixes[0].address().value() + 1);
  for (int i = 0; i < 40; ++i) {
    ip::Ipv4Packet packet;
    packet.src = src;
    packet.dst = Ipv4Address(192, 168, 0, 1);
    packet.protocol = static_cast<std::uint8_t>(ip::IpProto::kUdp);
    packet.payload = Bytes(1000, 0);
    client.host().send_packet(std::move(packet));
  }
  peering_.settle(Duration::seconds(2));
  EXPECT_GT(received, 0);
  EXPECT_LT(received, 20) << "rate limit did not shape";
  EXPECT_GT(pop->router->stats().packets_enforcement_drop, 10u);
}

TEST_F(EdgeTest, ShowCommandsRenderOperationalState) {
  auto client_ptr = connect();
  auto& client = *client_ptr;
  Ipv4Prefix allocation = db_.experiment("exp1")->allocated_prefixes[0];
  ASSERT_TRUE(client.announce(allocation).send().ok());
  peering_.settle();

  auto* router = peering_.pop("capped01")->router.get();
  std::string neighbors = router->show_neighbors();
  EXPECT_NE(neighbors.find("transit-a"), std::string::npos);
  EXPECT_NE(neighbors.find("127.65."), std::string::npos);

  // Per-prefix route dumps come from the looking glass over the router's
  // speaker.
  mon::LookingGlass glass(&router->speaker());
  std::string route = glass.explain_best(pfx("192.168.0.0/24"));
  EXPECT_NE(route.find("192.168.0.0/24"), std::string::npos);
  EXPECT_NE(route.find("65001 64999"), std::string::npos);
  EXPECT_NE(route.find("selected: [0]"), std::string::npos);

  std::string summary = router->show_summary();
  EXPECT_NE(summary.find("AS47065"), std::string::npos);
  EXPECT_NE(summary.find("loc-rib"), std::string::npos);
  EXPECT_NE(summary.find("fib index: "), std::string::npos);
  EXPECT_NE(summary.find(" LPM fallbacks"), std::string::npos);
}

TEST_F(EdgeTest, ArpCacheExpiryTriggersReResolution) {
  auto client_ptr = connect();
  auto& client = *client_ptr;
  auto views = client.routes(pfx("192.168.0.0/24"));
  ASSERT_TRUE(client
                  .select_egress(pfx("192.168.0.0/24"), "capped01",
                                 views[0].virtual_next_hop)
                  .ok());
  client.host().ping(Ipv4Address(192, 168, 0, 1), 1, 1);
  peering_.settle(Duration::seconds(2));
  ASSERT_TRUE(client.host()
                  .arp_cache(0)
                  .lookup(views[0].virtual_next_hop, loop_.now())
                  .has_value());

  // Let the cache expire (5 minute TTL) and ping again: resolution
  // re-runs and traffic still flows.
  peering_.settle(Duration::minutes(6));
  EXPECT_FALSE(client.host()
                   .arp_cache(0)
                   .lookup(views[0].virtual_next_hop, loop_.now())
                   .has_value());
  int received = 0;
  peering_.pop("capped01")->neighbors[0]->host->on_packet(
      [&](const ip::Ipv4Packet& packet, int, const ether::EthernetFrame&) {
        auto msg = ip::IcmpMessage::decode(packet.payload);
        if (msg && msg->type == ip::IcmpType::kEchoRequest) ++received;
      });
  client.host().ping(Ipv4Address(192, 168, 0, 1), 1, 2);
  peering_.settle(Duration::seconds(2));
  EXPECT_EQ(received, 1);
}


TEST_F(EdgeTest, DefaultTableTracksBestPath) {
  // The Figure 6a "per-interconnection data plane w/ default" configuration:
  // a best-path table synced with the decision process. Unnecessary for
  // vBGP operation but measured for comparison.
  auto* router = peering_.pop("capped01")->router.get();
  router->enable_default_table(true);

  inet::FeedRoute route;
  route.prefix = pfx("198.51.100.0/24");
  route.attrs.as_path = bgp::AsPath({65001, 64998});
  ASSERT_TRUE(peering_.feed_routes("capped01", 0, {route}).ok());
  peering_.settle();

  auto entry = router->default_table().lookup(Ipv4Address(198, 51, 100, 1));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->next_hop,
            peering_.pop("capped01")->neighbors[0]->neighbor_address);

  // Withdrawal empties the default table entry too.
  peering_.pop("capped01")->neighbors[0]->speaker->withdraw_originated(
      pfx("198.51.100.0/24"));
  peering_.settle();
  EXPECT_FALSE(
      router->default_table().lookup(Ipv4Address(198, 51, 100, 1)).has_value());
}

TEST_F(EdgeTest, DataPlaneTraceRecordsDemuxAndDelivery) {
  obs::EventTrace trace;
  auto* router = peering_.pop("capped01")->router.get();
  router->set_trace(&trace);

  auto client_ptr = connect();
  auto& client = *client_ptr;
  auto views = client.routes(pfx("192.168.0.0/24"));
  ASSERT_EQ(views.size(), 1u);
  ASSERT_TRUE(client
                  .select_egress(pfx("192.168.0.0/24"), "capped01",
                                 views[0].virtual_next_hop)
                  .ok());
  client.host().ping(Ipv4Address(192, 168, 0, 1), 1, 1);
  peering_.settle(Duration::seconds(3));
  // Prime attribution (first reply resolves via fallback), ping again.
  client.host().ping(Ipv4Address(192, 168, 0, 1), 1, 2);
  peering_.settle(Duration::seconds(3));

  std::size_t demux = 0, deliver = 0, exp1 = 0;
  trace.for_each([&](const obs::TraceEvent& event) {
    if (event.category != "vbgp") return;
    if (event.name == "demux") ++demux;
    if (event.name == "deliver") ++deliver;
    for (const auto& [key, value] : event.fields)
      if (key == "experiment" && value == "exp1") ++exp1;
  });
  EXPECT_GE(demux, 2u);
  EXPECT_GE(exp1, 2u);
  EXPECT_GE(deliver, 1u);
  router->set_trace(nullptr);
}

/// A vBGP router with one neighbor that announces third-party next-hops,
/// as an IXP route server does: the neighbor is a raw stream, so a test
/// picks each next-hop and how UPDATEs share a delivery.
class ThirdPartyNextHopTest : public ::testing::Test {
 protected:
  ThirdPartyNextHopTest()
      : router_(&loop_,
                vbgp::VRouterConfig{.name = "e1",
                                    .pop_id = "ixp01",
                                    .router_id = Ipv4Address(10, 255, 0, 1)}) {
    peer_ = router_.add_neighbor({.name = "rs",
                                  .asn = 64600,
                                  .local_address = Ipv4Address(10, 0, 0, 1),
                                  .remote_address = kRs,
                                  .interface = 0});
    auto pair = sim::StreamChannel::make(&loop_, Duration::millis(1));
    router_.speaker().connect_peer(peer_, pair.a);
    rs_ = pair.b;
    rs_->on_data([this](const Bytes& data) {
      decoder_.feed(data);
      while (true) {
        auto result = decoder_.poll();
        if (!result.ok() || !result->has_value()) return;
        if (!std::holds_alternative<bgp::OpenMessage>(**result)) continue;
        bgp::OpenMessage open;
        open.asn = 64600;
        open.router_id = kRs;
        open.add_four_byte_asn(64600);
        rs_->send(bgp::encode_message(open, {}));
        rs_->send(bgp::encode_message(bgp::KeepaliveMessage{}, {}));
      }
    });
    loop_.run_for(Duration::seconds(1));
  }

  static Bytes announce(const Ipv4Prefix& prefix, Ipv4Address next_hop) {
    bgp::UpdateMessage update;
    update.attributes = bgp::PathAttributes{};
    update.attributes->as_path = bgp::AsPath({65010});
    update.attributes->next_hop = next_hop;
    update.nlri.push_back({0, prefix});
    return bgp::encode_message(update, {});
  }

  static Bytes withdraw(const Ipv4Prefix& prefix) {
    bgp::UpdateMessage update;
    update.withdrawn.push_back({0, prefix});
    return bgp::encode_message(update, {});
  }

  /// Sends `wire` as one stream delivery and lets it arrive.
  void deliver(const Bytes& wire) {
    rs_->send(wire);
    loop_.run_for(Duration::seconds(1));
  }

  Ipv4Address fib_gateway(Ipv4Address dst) {
    auto route = router_.registry().by_peer(peer_)->fib.lookup(dst);
    return route ? route->next_hop : Ipv4Address();
  }

  const Ipv4Address kRs{10, 0, 0, 2};
  const Ipv4Address kMemberA{10, 0, 0, 11};
  const Ipv4Address kMemberB{10, 0, 0, 12};
  const Ipv4Prefix kPrefix = pfx("198.51.100.0/24");
  const Ipv4Address kDst{198, 51, 100, 1};

  sim::EventLoop loop_;
  vbgp::VRouter router_;
  bgp::PeerId peer_ = 0;
  std::shared_ptr<sim::StreamEndpoint> rs_;
  bgp::MessageDecoder decoder_;
};

TEST_F(ThirdPartyNextHopTest, NextHopOnlyChangeMovesTheFibGateway) {
  ASSERT_EQ(router_.speaker().session_state(peer_),
            bgp::SessionState::kEstablished);
  deliver(announce(kPrefix, kMemberA));
  ASSERT_EQ(fib_gateway(kDst), kMemberA);
  const bgp::AttrsPtr stored =
      router_.speaker().loc_rib().best(kPrefix)->attrs;

  // Only the next-hop changes: the stored (remapped) attribute set stays
  // the same, so the Loc-RIB does not change, but the FIB must follow.
  deliver(announce(kPrefix, kMemberB));
  EXPECT_EQ(router_.speaker().loc_rib().best(kPrefix)->attrs, stored);
  EXPECT_EQ(fib_gateway(kDst), kMemberB);
}

TEST_F(ThirdPartyNextHopTest, WithdrawAndAnnounceInOneDeliveryKeepNewGateway) {
  ASSERT_EQ(router_.speaker().session_state(peer_),
            bgp::SessionState::kEstablished);
  deliver(announce(kPrefix, kMemberA));
  ASSERT_EQ(fib_gateway(kDst), kMemberA);

  Bytes wire = withdraw(kPrefix);
  const Bytes again = announce(kPrefix, kMemberB);
  wire.insert(wire.end(), again.begin(), again.end());
  deliver(wire);
  ASSERT_TRUE(router_.speaker().loc_rib().best(kPrefix).has_value());
  EXPECT_EQ(fib_gateway(kDst), kMemberB);
}

}  // namespace
}  // namespace peering

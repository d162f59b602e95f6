// Backbone tests: the TCP throughput model (against the Mathis oracle) and
// the Figure 5 scenario — an experiment at E1 steering traffic to a
// neighbor attached to E2 across the backbone, via two-stage next-hop
// rewriting (global pool -> local pool) and two-hop ARP/MAC resolution.
#include <gtest/gtest.h>

#include "backbone/fabric.h"
#include "backbone/tcp_model.h"
#include "bgp/speaker.h"
#include "enforce/data_enforcer.h"
#include "sim/stream.h"

namespace peering::backbone {
namespace {

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }
MacAddress mac(std::uint32_t id) { return MacAddress::from_id(0xF0000000 | id); }

TEST(TcpModel, SaturatesLosslessPath) {
  TcpPathConfig path;
  path.bottleneck_bps = 500'000'000;
  path.rtt = Duration::millis(40);
  auto result = run_tcp_flow(path, Duration::seconds(30));
  // Within 20% of line rate after slow start.
  EXPECT_GT(result.goodput_bps, 0.8 * 500e6);
  EXPECT_LE(result.goodput_bps, 500e6 * 1.01);
}

TEST(TcpModel, ThroughputDecreasesWithLoss) {
  TcpPathConfig path;
  path.bottleneck_bps = 1'000'000'000;
  path.rtt = Duration::millis(50);
  double last = 1e18;
  for (double loss : {0.0001, 0.001, 0.01}) {
    path.random_loss = loss;
    auto result = run_tcp_flow(path, Duration::seconds(30));
    EXPECT_LT(result.goodput_bps, last);
    last = result.goodput_bps;
  }
}

TEST(TcpModel, RoughlyTracksMathisBound) {
  TcpPathConfig path;
  path.bottleneck_bps = 10'000'000'000;  // not the bottleneck
  path.rtt = Duration::millis(50);
  path.random_loss = 0.001;
  auto result = run_tcp_flow(path, Duration::seconds(60), 7);
  double mathis = mathis_throughput_bps(path);
  // The AIMD simulation should land within a factor ~3 of the analytic
  // bound (the bound ignores slow start and timing detail).
  EXPECT_GT(result.goodput_bps, mathis / 3);
  EXPECT_LT(result.goodput_bps, mathis * 3);
}

TEST(TcpModel, LongerRttLowersLossyThroughput) {
  TcpPathConfig fast, slow;
  fast.bottleneck_bps = slow.bottleneck_bps = 1'000'000'000;
  fast.random_loss = slow.random_loss = 0.001;
  fast.rtt = Duration::millis(20);
  slow.rtt = Duration::millis(200);
  auto fast_result = run_tcp_flow(fast, Duration::seconds(30));
  auto slow_result = run_tcp_flow(slow, Duration::seconds(30));
  EXPECT_GT(fast_result.goodput_bps, slow_result.goodput_bps);
}

TEST(TcpModel, DeterministicForSeed) {
  TcpPathConfig path;
  path.random_loss = 0.005;
  auto a = run_tcp_flow(path, Duration::seconds(10), 42);
  auto b = run_tcp_flow(path, Duration::seconds(10), 42);
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
}

/// Figure 5: X1 at E1; N2 at E2; X1 must reach 192.168.0.0/24 via N2
/// through the backbone.
class BackboneScenario : public ::testing::Test {
 protected:
  BackboneScenario()
      : e1_(&loop_, {.name = "e1", .pop_id = "pop1", .asn = 47065,
                     .router_id = Ipv4Address(10, 255, 1, 1),
                     .router_seed = 1}),
        e2_(&loop_, {.name = "e2", .pop_id = "pop2", .asn = 47065,
                     .router_id = Ipv4Address(10, 255, 2, 1),
                     .router_seed = 2}),
        n2_host_(&loop_, "n2"),
        n2_speaker_(&loop_, "n2", 65002, Ipv4Address(2, 2, 2, 2)),
        x1_host_(&loop_, "x1"),
        x1_speaker_(&loop_, "x1", 61574, Ipv4Address(9, 9, 9, 1)),
        fabric_(&loop_),
        l_n2_(&loop_, sim::LinkConfig{}),
        l_x1_(&loop_, sim::LinkConfig{}) {
    // E2 <-> N2.
    if_n2_ = e2_.add_attached_interface("n2", mac(1),
                                        {Ipv4Address(10, 2, 1, 1), 24}, l_n2_,
                                        true, true);
    n2_host_.add_attached_interface("up", mac(2),
                                    {Ipv4Address(10, 2, 1, 2), 24}, l_n2_,
                                    false);
    n2_host_.add_interface("stub", mac(3))
        .add_address({Ipv4Address(192, 168, 0, 1), 24});
    n2_host_.routes().insert(ip::Route{Ipv4Prefix(Ipv4Address(), 0),
                                       Ipv4Address(10, 2, 1, 1), 0, 0});

    // E1 <-> X1 tunnel.
    if_x1_ = e1_.add_attached_interface("x1", mac(4),
                                        {Ipv4Address(100, 64, 0, 1), 24},
                                        l_x1_, true, true);
    x1_host_.add_interface("tun", mac(5))
        .add_address({Ipv4Address(184, 164, 224, 1), 24});
    x1_host_.interface(0).add_address({Ipv4Address(100, 64, 0, 2), 24});
    x1_host_.interface(0).attach(l_x1_, false);
    x1_host_.routes().insert(ip::Route{pfx("100.64.0.0/24"), Ipv4Address(), 0, 0});
    x1_host_.routes().insert(
        ip::Route{pfx("184.164.224.0/24"), Ipv4Address(), 0, 0});

    // Backbone circuit + iBGP.
    fabric_.provision(e1_, e2_, 1'000'000'000, Duration::millis(15));

    // BGP: E2 <-> N2 (global id 7 so the pool address is 127.127.0.7).
    peer_n2_ = e2_.add_neighbor({.name = "n2", .asn = 65002,
                                 .local_address = Ipv4Address(10, 2, 1, 1),
                                 .remote_address = Ipv4Address(10, 2, 1, 2),
                                 .interface = if_n2_, .global_id = 7});
    bgp::PeerId n2_side = n2_speaker_.add_peer(
        {.name = "e2", .peer_asn = 47065,
         .local_address = Ipv4Address(10, 2, 1, 2)});
    auto s1 = sim::StreamChannel::make(&loop_, Duration::millis(1));
    e2_.speaker().connect_peer(peer_n2_, s1.a);
    n2_speaker_.connect_peer(n2_side, s1.b);

    // BGP: E1 <-> X1 (ADD-PATH).
    peer_x1_ = e1_.add_experiment({.experiment_id = "x1", .asn = 61574,
                                   .local_address = Ipv4Address(100, 64, 0, 1),
                                   .remote_address = Ipv4Address(100, 64, 0, 2),
                                   .interface = if_x1_});
    e1_.add_experiment_route(pfx("184.164.224.0/24"), "x1", if_x1_,
                             Ipv4Address(184, 164, 224, 1));
    // E2 delivers X1-destined traffic across the backbone.
    const auto& circuit = *fabric_.circuits().front();
    e2_.add_remote_experiment_route(pfx("184.164.224.0/24"), circuit.if_b,
                                    circuit.addr_a);

    bgp::PeerId x1_side = x1_speaker_.add_peer(
        {.name = "e1", .peer_asn = 47065,
         .local_address = Ipv4Address(100, 64, 0, 2),
         .addpath = bgp::AddPathMode::kBoth});
    auto s2 = sim::StreamChannel::make(&loop_, Duration::millis(1));
    e1_.speaker().connect_peer(peer_x1_, s2.a);
    x1_speaker_.connect_peer(x1_side, s2.b);

    // N2 announces the destination.
    n2_speaker_.originate(pfx("192.168.0.0/24"), bgp::PathAttributes{});
    loop_.run_for(Duration::seconds(10));
  }

  sim::EventLoop loop_;
  vbgp::VRouter e1_, e2_;
  ip::Host n2_host_;
  bgp::BgpSpeaker n2_speaker_;
  ip::Host x1_host_;
  bgp::BgpSpeaker x1_speaker_;
  BackboneFabric fabric_;
  sim::Link l_n2_, l_x1_;
  int if_n2_ = -1, if_x1_ = -1;
  bgp::PeerId peer_n2_ = 0, peer_x1_ = 0;
};

TEST_F(BackboneScenario, RemoteRouteVisibleWithLocalVirtualNextHop) {
  auto cands = x1_speaker_.loc_rib().candidates(pfx("192.168.0.0/24"));
  ASSERT_EQ(cands.size(), 1u);
  // E1 materialized a remote-neighbor entry for global id 7 and re-mapped
  // the next-hop into its local pool.
  auto* remote = e1_.registry().remote_by_global_ip(vbgp::global_pool_ip(7));
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(cands[0].attrs->next_hop, remote->virtual_ip);
  // AS path is N2's own.
  EXPECT_EQ(cands[0].attrs->as_path.flatten(), (std::vector<bgp::Asn>{65002}));
}

TEST_F(BackboneScenario, TrafficCrossesBackboneToRemoteNeighbor) {
  auto* remote = e1_.registry().remote_by_global_ip(vbgp::global_pool_ip(7));
  ASSERT_NE(remote, nullptr);
  // X1 selects the remote neighbor's virtual next-hop.
  x1_host_.routes().insert(
      ip::Route{pfx("192.168.0.0/24"), remote->virtual_ip, 0, 0});

  int received = 0;
  n2_host_.on_packet([&](const ip::Ipv4Packet& packet, int,
                         const ether::EthernetFrame&) {
    if (packet.dst == Ipv4Address(192, 168, 0, 1)) ++received;
  });
  x1_host_.ping(Ipv4Address(192, 168, 0, 1), 1, 1);
  loop_.run_for(Duration::seconds(5));
  EXPECT_EQ(received, 1);
}

TEST_F(BackboneScenario, EchoReplyReturnsAcrossBackbone) {
  auto* remote = e1_.registry().remote_by_global_ip(vbgp::global_pool_ip(7));
  ASSERT_NE(remote, nullptr);
  x1_host_.routes().insert(
      ip::Route{pfx("192.168.0.0/24"), remote->virtual_ip, 0, 0});

  bool got_reply = false;
  x1_host_.on_packet([&](const ip::Ipv4Packet& packet, int,
                         const ether::EthernetFrame&) {
    auto msg = ip::IcmpMessage::decode(packet.payload);
    if (msg && msg->type == ip::IcmpType::kEchoReply) got_reply = true;
  });
  x1_host_.ping(Ipv4Address(192, 168, 0, 1), 2, 1);
  loop_.run_for(Duration::seconds(5));
  EXPECT_TRUE(got_reply);
}

TEST_F(BackboneScenario, ExperimentAnnouncementReachesRemoteNeighbor) {
  bgp::PathAttributes attrs;
  x1_speaker_.originate(pfx("184.164.224.0/24"), attrs);
  loop_.run_for(Duration::seconds(10));
  auto at_n2 = n2_speaker_.loc_rib().best(pfx("184.164.224.0/24"));
  ASSERT_TRUE(at_n2.has_value());
  // Path: PEERING AS then the experiment AS (iBGP hop adds nothing).
  EXPECT_EQ(at_n2->attrs->as_path.flatten(),
            (std::vector<bgp::Asn>{47065, 61574}));
}

TEST_F(BackboneScenario, GlobalPoolArpIsAnsweredByRemoteRouter) {
  // E1's ARP for 127.127.0.7 over the backbone must be answered by E2 with
  // N2's virtual MAC (the hop-by-hop mechanism of §4.4).
  auto* remote = e1_.registry().remote_by_global_ip(vbgp::global_pool_ip(7));
  ASSERT_NE(remote, nullptr);
  x1_host_.routes().insert(
      ip::Route{pfx("192.168.0.0/24"), remote->virtual_ip, 0, 0});
  x1_host_.ping(Ipv4Address(192, 168, 0, 1), 3, 1);
  loop_.run_for(Duration::seconds(5));

  const auto& circuit = *fabric_.circuits().front();
  auto cached = e1_.arp_cache(circuit.if_a)
                    .lookup(vbgp::global_pool_ip(7), loop_.now());
  ASSERT_TRUE(cached.has_value());
  auto* n2_local = e2_.registry().by_peer(peer_n2_);
  EXPECT_EQ(*cached, n2_local->virtual_mac);
}

/// The same scenario with a data-plane enforcer at both PoPs, as the
/// platform deploys them. X1's frames are checked once, at E1 (its own
/// PoP); E2 forwards frames arriving over the backbone without checking
/// them against an experiment it does not host.
class EnforcedBackboneScenario : public BackboneScenario {
 protected:
  EnforcedBackboneScenario() {
    enforce::ExperimentGrant grant;
    grant.experiment_id = "x1";
    grant.allocated_prefixes = {pfx("184.164.224.0/24")};
    EXPECT_TRUE(enforcer_e1_.install(grant).ok());
    EXPECT_TRUE(enforcer_e2_.install(grant).ok());
    e1_.set_data_enforcer(&enforcer_e1_);
    e2_.set_data_enforcer(&enforcer_e2_);
    auto* remote = e1_.registry().remote_by_global_ip(vbgp::global_pool_ip(7));
    EXPECT_NE(remote, nullptr);
    if (remote)
      x1_host_.routes().insert(
          ip::Route{pfx("192.168.0.0/24"), remote->virtual_ip, 0, 0});
    n2_host_.on_packet([this](const ip::Ipv4Packet& packet, int,
                              const ether::EthernetFrame&) {
      if (packet.dst == Ipv4Address(192, 168, 0, 1)) ++received_;
    });
  }
  ~EnforcedBackboneScenario() override {
    e1_.set_data_enforcer(nullptr);
    e2_.set_data_enforcer(nullptr);
  }

  /// Sends one echo request toward N2's stub network from `src`.
  void send_from(Ipv4Address src) {
    ip::Ipv4Packet packet;
    packet.protocol = static_cast<std::uint8_t>(ip::IpProto::kIcmp);
    packet.src = src;
    packet.dst = Ipv4Address(192, 168, 0, 1);
    packet.payload = ip::make_echo_request(1, 1, {}).encode();
    ASSERT_TRUE(x1_host_.send_packet(std::move(packet)));
    loop_.run_for(Duration::seconds(5));
  }

  enforce::DataPlaneEnforcer enforcer_e1_, enforcer_e2_;
  int received_ = 0;
};

TEST_F(EnforcedBackboneScenario, FarPopEgressReachesNeighborThroughBackbone) {
  send_from(Ipv4Address(184, 164, 224, 1));
  EXPECT_EQ(received_, 1);
  // Checked at the home PoP only: E2 neither checks nor drops it.
  EXPECT_EQ(enforcer_e1_.packets_passed(), 1u);
  EXPECT_EQ(enforcer_e2_.packets_passed() + enforcer_e2_.packets_dropped(),
            0u);
  EXPECT_EQ(e2_.stats().packets_enforcement_drop, 0u);
}

TEST_F(EnforcedBackboneScenario, SpoofedSourceIsDroppedAtHomePop) {
  send_from(Ipv4Address(8, 8, 8, 8));
  EXPECT_EQ(received_, 0);
  EXPECT_EQ(enforcer_e1_.packets_dropped(), 1u);
  EXPECT_EQ(e1_.stats().packets_enforcement_drop, 1u);
  EXPECT_EQ(enforcer_e2_.packets_passed() + enforcer_e2_.packets_dropped(),
            0u);
}

}  // namespace
}  // namespace peering::backbone

// End-to-end vBGP delegation tests: the scenario of Figures 1 and 2 —
// one vBGP router (E1), two neighbors (N1, N2) both announcing the same
// destination, two parallel experiments (X1, X2). Verifies ADD-PATH fan-out
// with virtual next-hops, per-packet egress selection via ARP/MAC, ingress
// source-MAC attribution, announcement control via communities, and both
// enforcement planes.
#include <gtest/gtest.h>

#include <cstdlib>

#include "bgp/speaker.h"
#include "enforce/control_policy.h"
#include "enforce/data_enforcer.h"
#include "ether/frame.h"
#include "ip/host.h"
#include "sim/event_loop.h"
#include "sim/stream.h"
#include "vbgp/vrouter.h"

namespace peering::vbgp {
namespace {

using bgp::BgpSpeaker;
using bgp::PeerConfig;

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }
MacAddress mac(std::uint32_t id) { return MacAddress::from_id(0xAA000000 | id); }

constexpr bgp::Asn kPeeringAsn = 47065;
constexpr bgp::Asn kX1Asn = 61574;
constexpr bgp::Asn kX2Asn = 61575;
const Ipv4Prefix kDest = Ipv4Prefix(Ipv4Address(192, 168, 0, 0), 24);
const Ipv4Address kDestHost(192, 168, 0, 1);

/// A neighbor: router + BGP speaker + a stub "customer" address so data
/// traffic terminates here.
struct Neighbor {
  ip::Host host;
  BgpSpeaker speaker;
  int received_from_experiment = 0;
  std::vector<ip::Ipv4Packet> received;

  Neighbor(sim::EventLoop* loop, const std::string& name, bgp::Asn asn,
           Ipv4Address router_id)
      : host(loop, name), speaker(loop, name, asn, router_id) {
    host.on_packet([this](const ip::Ipv4Packet& pkt, int,
                          const ether::EthernetFrame&) {
      received.push_back(pkt);
      ++received_from_experiment;
    });
  }
};

/// An experiment: host + speaker; records delivered packets with frames.
struct Experiment {
  ip::Host host;
  BgpSpeaker speaker;
  std::vector<std::pair<ip::Ipv4Packet, ether::EthernetFrame>> received;

  Experiment(sim::EventLoop* loop, const std::string& name, bgp::Asn asn,
             Ipv4Address router_id)
      : host(loop, name), speaker(loop, name, asn, router_id) {
    host.on_packet([this](const ip::Ipv4Packet& pkt, int,
                          const ether::EthernetFrame& frame) {
      received.emplace_back(pkt, frame);
    });
  }
};

class DelegationTest : public ::testing::Test {
 protected:
  DelegationTest()
      : e1_(&loop_, VRouterConfig{.name = "e1", .pop_id = "testpop",
                                  .asn = kPeeringAsn,
                                  .router_id = Ipv4Address(10, 255, 0, 1),
                                  .router_seed = 1}),
        n1_(&loop_, "n1", 65001, Ipv4Address(1, 1, 1, 1)),
        n2_(&loop_, "n2", 65002, Ipv4Address(2, 2, 2, 2)),
        x1_(&loop_, "x1", kX1Asn, Ipv4Address(9, 9, 9, 1)),
        x2_(&loop_, "x2", kX2Asn, Ipv4Address(9, 9, 9, 2)),
        l_n1_(&loop_, sim::LinkConfig{}),
        l_n2_(&loop_, sim::LinkConfig{}),
        l_x1_(&loop_, sim::LinkConfig{}),
        l_x2_(&loop_, sim::LinkConfig{}) {
    // E1 data-plane interfaces (promiscuous: virtual MACs must get in).
    if_n1_ = e1_.add_attached_interface(
        "n1", mac(1), {Ipv4Address(10, 0, 1, 1), 24}, l_n1_, true, true);
    if_n2_ = e1_.add_attached_interface(
        "n2", mac(2), {Ipv4Address(10, 0, 2, 1), 24}, l_n2_, true, true);
    if_x1_ = e1_.add_attached_interface(
        "x1", mac(3), {Ipv4Address(100, 64, 0, 1), 24}, l_x1_, true, true);
    if_x2_ = e1_.add_attached_interface(
        "x2", mac(4), {Ipv4Address(100, 64, 1, 1), 24}, l_x2_, true, true);

    // Neighbor hosts: uplink to E1 plus a stub interface owning the
    // destination prefix.
    n1_.host.add_attached_interface("up", mac(11),
                                    {Ipv4Address(10, 0, 1, 2), 24}, l_n1_,
                                    false);
    n1_.host.add_interface("stub", mac(12))
        .add_address({kDestHost, 24});
    n1_.host.routes().insert(ip::Route{Ipv4Prefix(Ipv4Address(), 0),
                                       Ipv4Address(10, 0, 1, 1), 0, 0});
    n2_.host.add_attached_interface("up", mac(13),
                                    {Ipv4Address(10, 0, 2, 2), 24}, l_n2_,
                                    false);
    n2_.host.add_interface("stub", mac(14)).add_address({kDestHost, 24});
    n2_.host.routes().insert(ip::Route{Ipv4Prefix(Ipv4Address(), 0),
                                       Ipv4Address(10, 0, 2, 1), 0, 0});

    // Experiment hosts: allocation address is primary (traffic is sourced
    // from it), tunnel address secondary.
    x1_.host.add_attached_interface("tun", mac(21),
                                    {Ipv4Address(184, 164, 224, 1), 24},
                                    l_x1_, false);
    x1_.host.interface(0).add_address({Ipv4Address(100, 64, 0, 2), 24});
    x2_.host.add_attached_interface("tun", mac(22),
                                    {Ipv4Address(184, 164, 230, 1), 24},
                                    l_x2_, false);
    x2_.host.interface(0).add_address({Ipv4Address(100, 64, 1, 2), 24});

    // Enforcement.
    control_.install_default_rules({kWhitelistAsn, kBlacklistAsn});
    enforce::ExperimentGrant g1;
    g1.experiment_id = "x1";
    g1.allocated_prefixes = {pfx("184.164.224.0/24")};
    g1.allowed_origin_asns = {kX1Asn};
    control_.set_grant(g1);
    if (!data_.install(g1).ok()) std::abort();
    enforce::ExperimentGrant g2;
    g2.experiment_id = "x2";
    g2.allocated_prefixes = {pfx("184.164.230.0/24")};
    g2.allowed_origin_asns = {kX2Asn};
    control_.set_grant(g2);
    if (!data_.install(g2).ok()) std::abort();
    e1_.set_control_enforcer(&control_);
    e1_.set_data_enforcer(&data_);

    // BGP sessions.
    peer_n1_ = e1_.add_neighbor({.name = "n1", .asn = 65001,
                                 .local_address = Ipv4Address(10, 0, 1, 1),
                                 .remote_address = Ipv4Address(10, 0, 1, 2),
                                 .interface = if_n1_, .global_id = 1});
    peer_n2_ = e1_.add_neighbor({.name = "n2", .asn = 65002,
                                 .local_address = Ipv4Address(10, 0, 2, 1),
                                 .remote_address = Ipv4Address(10, 0, 2, 2),
                                 .interface = if_n2_, .global_id = 2});
    peer_x1_ = e1_.add_experiment({.experiment_id = "x1", .asn = kX1Asn,
                                   .local_address = Ipv4Address(100, 64, 0, 1),
                                   .remote_address = Ipv4Address(100, 64, 0, 2),
                                   .interface = if_x1_});
    peer_x2_ = e1_.add_experiment({.experiment_id = "x2", .asn = kX2Asn,
                                   .local_address = Ipv4Address(100, 64, 1, 1),
                                   .remote_address = Ipv4Address(100, 64, 1, 2),
                                   .interface = if_x2_});

    e1_.add_experiment_route(pfx("184.164.224.0/24"), "x1", if_x1_,
                             Ipv4Address(184, 164, 224, 1));
    e1_.add_experiment_route(pfx("184.164.230.0/24"), "x2", if_x2_,
                             Ipv4Address(184, 164, 230, 1));

    connect(e1_.speaker(), peer_n1_, n1_.speaker,
            {.name = "e1", .peer_asn = kPeeringAsn,
             .local_address = Ipv4Address(10, 0, 1, 2)});
    connect(e1_.speaker(), peer_n2_, n2_.speaker,
            {.name = "e1", .peer_asn = kPeeringAsn,
             .local_address = Ipv4Address(10, 0, 2, 2)});
    connect(e1_.speaker(), peer_x1_, x1_.speaker,
            {.name = "e1", .peer_asn = kPeeringAsn,
             .local_address = Ipv4Address(100, 64, 0, 2),
             .addpath = bgp::AddPathMode::kBoth});
    connect(e1_.speaker(), peer_x2_, x2_.speaker,
            {.name = "e1", .peer_asn = kPeeringAsn,
             .local_address = Ipv4Address(100, 64, 1, 2),
             .addpath = bgp::AddPathMode::kBoth});

    // Both neighbors announce the destination.
    bgp::PathAttributes attrs;
    n1_.speaker.originate(kDest, attrs);
    n2_.speaker.originate(kDest, attrs);
    settle();
  }

  void connect(BgpSpeaker& a, bgp::PeerId ap, BgpSpeaker& b, PeerConfig b_cfg) {
    bgp::PeerId bp = b.add_peer(std::move(b_cfg));
    auto pair = sim::StreamChannel::make(&loop_, Duration::millis(1));
    a.connect_peer(ap, pair.a);
    b.connect_peer(bp, pair.b);
  }

  void settle(Duration d = Duration::seconds(5)) { loop_.run_for(d); }

  /// Installs X's kernel route for the destination via the given virtual
  /// next-hop (what the experiment toolkit does from BGP routes).
  void select_route(Experiment& x, Ipv4Address virtual_nh) {
    x.host.routes().insert(ip::Route{kDest, virtual_nh, 0, 0});
  }

  Ipv4Address virtual_ip_of(bgp::PeerId peer) {
    return e1_.registry().by_peer(peer)->virtual_ip;
  }
  MacAddress virtual_mac_of(bgp::PeerId peer) {
    return e1_.registry().by_peer(peer)->virtual_mac;
  }

  sim::EventLoop loop_;
  VRouter e1_;
  Neighbor n1_, n2_;
  Experiment x1_, x2_;
  sim::Link l_n1_, l_n2_, l_x1_, l_x2_;
  int if_n1_, if_n2_, if_x1_, if_x2_;
  bgp::PeerId peer_n1_, peer_n2_, peer_x1_, peer_x2_;
  enforce::ControlPlaneEnforcer control_;
  enforce::DataPlaneEnforcer data_;
};

TEST_F(DelegationTest, SessionsEstablish) {
  EXPECT_EQ(e1_.speaker().session_state(peer_n1_),
            bgp::SessionState::kEstablished);
  EXPECT_EQ(e1_.speaker().session_state(peer_n2_),
            bgp::SessionState::kEstablished);
  EXPECT_EQ(e1_.speaker().session_state(peer_x1_),
            bgp::SessionState::kEstablished);
}

TEST_F(DelegationTest, ExperimentSeesAllPathsWithVirtualNextHops) {
  auto cands = x1_.speaker.loc_rib().candidates(kDest);
  ASSERT_EQ(cands.size(), 2u) << "ADD-PATH should deliver both paths";
  std::set<std::string> next_hops, paths;
  for (const auto& c : cands) {
    next_hops.insert(c.attrs->next_hop.str());
    paths.insert(c.attrs->as_path.str());
  }
  EXPECT_TRUE(next_hops.count(virtual_ip_of(peer_n1_).str()));
  EXPECT_TRUE(next_hops.count(virtual_ip_of(peer_n2_).str()));
  // Full fidelity: the AS paths are the neighbors' own, with no 47065
  // prepend (Figure 2a).
  EXPECT_TRUE(paths.count("65001"));
  EXPECT_TRUE(paths.count("65002"));
}

TEST_F(DelegationTest, PerPacketEgressSelectionViaMac) {
  // X1 prefers N2 (Figure 2b).
  select_route(x1_, virtual_ip_of(peer_n2_));
  x1_.host.ping(kDestHost, 1, 1);
  settle(Duration::seconds(2));
  EXPECT_EQ(n2_.received_from_experiment, 1);
  EXPECT_EQ(n1_.received_from_experiment, 0);

  // Switch preference to N1: next packet goes the other way.
  select_route(x1_, virtual_ip_of(peer_n1_));
  x1_.host.ping(kDestHost, 1, 2);
  settle(Duration::seconds(2));
  EXPECT_EQ(n1_.received_from_experiment, 1);
  EXPECT_EQ(n2_.received_from_experiment, 1);
  EXPECT_GE(e1_.stats().frames_demuxed, 2u);
}

TEST_F(DelegationTest, ArpForVirtualIpYieldsPerNeighborMac) {
  select_route(x1_, virtual_ip_of(peer_n2_));
  x1_.host.ping(kDestHost, 1, 1);
  settle(Duration::seconds(1));
  auto cached = x1_.host.arp_cache(0).lookup(virtual_ip_of(peer_n2_),
                                             loop_.now());
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, virtual_mac_of(peer_n2_));
  EXPECT_GE(e1_.stats().arp_virtual_replies, 1u);
}

TEST_F(DelegationTest, EchoReplyComesBackWithSourceMacAttribution) {
  select_route(x1_, virtual_ip_of(peer_n2_));
  x1_.host.ping(kDestHost, 7, 1);
  settle(Duration::seconds(3));

  // X1 got the echo reply, delivered in a frame whose source MAC is N2's
  // virtual MAC (ingress attribution, §3.2.2).
  bool saw_reply = false;
  for (const auto& [pkt, frame] : x1_.received) {
    auto msg = ip::IcmpMessage::decode(pkt.payload);
    if (msg && msg->type == ip::IcmpType::kEchoReply) {
      saw_reply = true;
      EXPECT_EQ(frame.src, virtual_mac_of(peer_n2_));
    }
  }
  EXPECT_TRUE(saw_reply);
}

TEST_F(DelegationTest, AnnouncementPropagatesToAllNeighborsByDefault) {
  bgp::PathAttributes attrs;
  x1_.speaker.originate(pfx("184.164.224.0/24"), attrs);
  settle();
  auto at_n1 = n1_.speaker.loc_rib().best(pfx("184.164.224.0/24"));
  auto at_n2 = n2_.speaker.loc_rib().best(pfx("184.164.224.0/24"));
  ASSERT_TRUE(at_n1.has_value());
  ASSERT_TRUE(at_n2.has_value());
  EXPECT_EQ(at_n1->attrs->as_path.flatten(),
            (std::vector<bgp::Asn>{kPeeringAsn, kX1Asn}));
}

TEST_F(DelegationTest, WhitelistCommunityLimitsPropagation) {
  std::uint16_t n1_id = e1_.registry().by_peer(peer_n1_)->local_id;
  bgp::PathAttributes attrs;
  attrs.communities = {announce_to(n1_id)};
  x1_.speaker.originate(pfx("184.164.224.0/24"), attrs);
  settle();
  EXPECT_TRUE(n1_.speaker.loc_rib().best(pfx("184.164.224.0/24")).has_value());
  EXPECT_FALSE(n2_.speaker.loc_rib().best(pfx("184.164.224.0/24")).has_value());
  // Control communities are stripped before reaching the Internet.
  auto at_n1 = n1_.speaker.loc_rib().best(pfx("184.164.224.0/24"));
  for (auto c : at_n1->attrs->communities)
    EXPECT_FALSE(is_control_community(c));
}

TEST_F(DelegationTest, BlacklistCommunitySuppressesOneNeighbor) {
  std::uint16_t n2_id = e1_.registry().by_peer(peer_n2_)->local_id;
  bgp::PathAttributes attrs;
  attrs.communities = {no_announce_to(n2_id)};
  x1_.speaker.originate(pfx("184.164.224.0/24"), attrs);
  settle();
  EXPECT_TRUE(n1_.speaker.loc_rib().best(pfx("184.164.224.0/24")).has_value());
  EXPECT_FALSE(n2_.speaker.loc_rib().best(pfx("184.164.224.0/24")).has_value());
}

TEST_F(DelegationTest, DifferentAnnouncementsToDifferentNeighbors) {
  // The §2.2.2 scenario: prepended announcement to N1, plain to N2 — for
  // the SAME prefix, via ADD-PATH + communities.
  std::uint16_t n1_id = e1_.registry().by_peer(peer_n1_)->local_id;
  std::uint16_t n2_id = e1_.registry().by_peer(peer_n2_)->local_id;

  bgp::PathAttributes to_n1;
  to_n1.communities = {announce_to(n1_id)};
  to_n1.as_path = bgp::AsPath({kX1Asn, kX1Asn});  // prepended
  bgp::PathAttributes to_n2;
  to_n2.communities = {announce_to(n2_id)};

  // Two paths for one prefix over the ADD-PATH session.
  x1_.speaker.originate(pfx("184.164.224.0/24"), to_n1);
  settle(Duration::seconds(1));
  // Second distinct announcement: use a /25 of the same allocation to keep
  // both independently originated (single-path origination per prefix).
  x1_.speaker.originate(pfx("184.164.224.128/25"), to_n2);
  settle();

  auto n1_route = n1_.speaker.loc_rib().best(pfx("184.164.224.0/24"));
  ASSERT_TRUE(n1_route.has_value());
  EXPECT_EQ(n1_route->attrs->as_path.flatten(),
            (std::vector<bgp::Asn>{kPeeringAsn, kX1Asn, kX1Asn, kX1Asn}));
  EXPECT_FALSE(n2_.speaker.loc_rib().best(pfx("184.164.224.0/24")).has_value());
  EXPECT_TRUE(n2_.speaker.loc_rib().best(pfx("184.164.224.128/25")).has_value());
  EXPECT_FALSE(n1_.speaker.loc_rib().best(pfx("184.164.224.128/25")).has_value());
}

TEST_F(DelegationTest, HijackNeverReachesNeighbors) {
  bgp::PathAttributes attrs;
  x1_.speaker.originate(pfx("8.8.8.0/24"), attrs);  // not X1's space
  settle();
  EXPECT_FALSE(n1_.speaker.loc_rib().best(pfx("8.8.8.0/24")).has_value());
  EXPECT_FALSE(n2_.speaker.loc_rib().best(pfx("8.8.8.0/24")).has_value());
  EXPECT_GE(control_.rejected(), 1u);
}

TEST_F(DelegationTest, SpoofedTrafficDroppedAtDataPlane) {
  select_route(x1_, virtual_ip_of(peer_n1_));
  // Craft a packet sourced from x2's space.
  ip::Ipv4Packet spoof;
  spoof.src = Ipv4Address(184, 164, 230, 5);
  spoof.dst = kDestHost;
  x1_.host.send_packet(std::move(spoof));
  settle(Duration::seconds(2));
  EXPECT_EQ(n1_.received_from_experiment, 0);
  EXPECT_GE(e1_.stats().packets_enforcement_drop, 1u);
}

TEST_F(DelegationTest, ExperimentsAreIsolatedFromEachOther) {
  bgp::PathAttributes attrs;
  x1_.speaker.originate(pfx("184.164.224.0/24"), attrs);
  settle();
  // X2 must not see X1's announcement through the platform.
  EXPECT_FALSE(x2_.speaker.loc_rib().best(pfx("184.164.224.0/24")).has_value());
  // But X2 still sees the Internet routes.
  EXPECT_EQ(x2_.speaker.loc_rib().candidates(kDest).size(), 2u);
}

TEST_F(DelegationTest, PerNeighborFibsTrackAnnouncedRoutes) {
  auto* nb1 = e1_.registry().by_peer(peer_n1_);
  auto* nb2 = e1_.registry().by_peer(peer_n2_);
  EXPECT_EQ(nb1->fib.size(), 1u);
  EXPECT_EQ(nb2->fib.size(), 1u);
  auto r = nb1->fib.lookup(kDestHost);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->next_hop, Ipv4Address(10, 0, 1, 2));
  EXPECT_EQ(r->interface, if_n1_);

  // Withdraw N1's route: its FIB shrinks; experiment loses the path.
  n1_.speaker.withdraw_originated(kDest);
  settle();
  EXPECT_EQ(nb1->fib.size(), 0u);
  EXPECT_EQ(x1_.speaker.loc_rib().candidates(kDest).size(), 1u);
}

TEST_F(DelegationTest, NoFibRouteYieldsUnreachable) {
  // Point X1 at N1's table for a destination N1 never announced.
  select_route(x1_, virtual_ip_of(peer_n1_));
  x1_.host.routes().insert(
      ip::Route{pfx("203.0.113.0/24"), virtual_ip_of(peer_n1_), 0, 0});
  ip::Ipv4Packet probe;
  probe.dst = Ipv4Address(203, 0, 113, 1);
  probe.src = Ipv4Address(184, 164, 224, 1);
  x1_.host.send_packet(std::move(probe));
  settle(Duration::seconds(2));
  EXPECT_GE(e1_.stats().packets_no_fib_route, 1u);
}

/// An ECN-CE, non-DF datagram in a frame, with a valid header checksum:
/// the platform never generates one, so only forwarding can preserve it.
Bytes ecn_frame(MacAddress dst_mac, MacAddress src_mac, Ipv4Address src,
                Ipv4Address dst) {
  ip::Ipv4Packet packet;
  packet.src = src;
  packet.dst = dst;
  packet.identification = 99;
  packet.payload = Bytes(40, 0x5a);
  Bytes datagram = packet.encode();
  datagram[1] = 0xbb;  // DSCP 46 (EF), ECN-CE
  datagram[6] = datagram[7] = 0;  // DF clear
  datagram[10] = datagram[11] = 0;
  const std::uint16_t sum = ip::internet_checksum(std::span(datagram).first(20));
  datagram[10] = static_cast<std::uint8_t>(sum >> 8);
  datagram[11] = static_cast<std::uint8_t>(sum);
  return ether::make_frame(dst_mac, src_mac, ether::EtherType::kIpv4, datagram)
      .encode();
}

/// `frame` as one router hop must emit it: new MACs, TTL one lower, header
/// checksum updated, every other byte (TOS and flags included) unchanged.
Bytes forwarded_as(Bytes frame, MacAddress dst, MacAddress src) {
  ether::rewrite_macs(frame, dst, src);
  auto ip = std::span(frame).subspan(ether::FrameView::kHeaderLength);
  ip[8] = static_cast<std::uint8_t>(ip[8] - 1);
  ip[10] = ip[11] = 0;
  const std::uint16_t sum = ip::internet_checksum(ip.first(20));
  ip[10] = static_cast<std::uint8_t>(sum >> 8);
  ip[11] = static_cast<std::uint8_t>(sum);
  return frame;
}

TEST_F(DelegationTest, ForwardingKeepsEcnAndFlagsBothWays) {
  // Warm the ARP entries on both paths (and N2's real MAC, which ingress
  // attribution maps to its virtual MAC).
  select_route(x1_, virtual_ip_of(peer_n2_));
  x1_.host.ping(kDestHost, 7, 1);
  settle(Duration::seconds(3));
  const Ipv4Address x1_host(184, 164, 224, 1);

  // Egress: X1 -> E1, demultiplexed on N2's virtual MAC -> N2.
  std::vector<Bytes> at_n2;
  l_n2_.a_to_b().set_receiver([&](Bytes& w) { at_n2.push_back(w); });
  const Bytes egress =
      ecn_frame(virtual_mac_of(peer_n2_), mac(21), x1_host, kDestHost);
  const std::uint64_t egress_before = e1_.traffic_accounting().at("x1").egress_bytes;
  l_x1_.b_to_a().send(egress);
  settle(Duration::seconds(1));
  ASSERT_EQ(at_n2.size(), 1u);
  EXPECT_EQ(at_n2[0], forwarded_as(egress, mac(13), mac(2)));
  EXPECT_EQ(e1_.traffic_accounting().at("x1").egress_bytes - egress_before,
            egress.size() - ether::FrameView::kHeaderLength);

  // Ingress: N2 -> E1 -> X1, source MAC rewritten to N2's virtual MAC.
  std::vector<Bytes> at_x1;
  l_x1_.a_to_b().set_receiver([&](Bytes& w) { at_x1.push_back(w); });
  const Bytes ingress = ecn_frame(mac(2), mac(13), kDestHost, x1_host);
  l_n2_.b_to_a().send(ingress);
  settle(Duration::seconds(1));
  ASSERT_EQ(at_x1.size(), 1u);
  EXPECT_EQ(at_x1[0],
            forwarded_as(ingress, mac(21), virtual_mac_of(peer_n2_)));
}

TEST_F(DelegationTest, WithdrawPropagatesThroughPlatform) {
  bgp::PathAttributes attrs;
  x1_.speaker.originate(pfx("184.164.224.0/24"), attrs);
  settle();
  ASSERT_TRUE(n1_.speaker.loc_rib().best(pfx("184.164.224.0/24")).has_value());
  x1_.speaker.withdraw_originated(pfx("184.164.224.0/24"));
  settle();
  EXPECT_FALSE(n1_.speaker.loc_rib().best(pfx("184.164.224.0/24")).has_value());
}

TEST_F(DelegationTest, EnforcementOverloadFailsClosed) {
  control_.set_overloaded(true);
  bgp::PathAttributes attrs;
  x1_.speaker.originate(pfx("184.164.224.0/24"), attrs);
  settle();
  EXPECT_FALSE(n1_.speaker.loc_rib().best(pfx("184.164.224.0/24")).has_value());
}

}  // namespace
}  // namespace peering::vbgp

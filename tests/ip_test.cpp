// Tests for the IPv4 layer: codecs, the host stack (ARP resolution, local
// delivery, forwarding, TTL/ICMP), traceroute over a router chain, and the
// in-place forwarding path against the struct decoders it replaced.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <tuple>

#include "ip/host.h"
#include "ip/icmp.h"
#include "ip/traceroute.h"
#include "ip/udp.h"
#include "netbase/rand.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"

namespace peering::ip {
namespace {

MacAddress mac(std::uint32_t id) { return MacAddress::from_id(id); }

TEST(Ipv4Codec, RoundTrip) {
  Ipv4Packet pkt;
  pkt.src = Ipv4Address(10, 0, 0, 1);
  pkt.dst = Ipv4Address(10, 0, 0, 2);
  pkt.ttl = 7;
  pkt.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  pkt.payload = Bytes{1, 2, 3};
  auto decoded = Ipv4Packet::decode(pkt.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->src, pkt.src);
  EXPECT_EQ(decoded->dst, pkt.dst);
  EXPECT_EQ(decoded->ttl, 7);
  EXPECT_EQ(decoded->payload, pkt.payload);
}

TEST(Ipv4Codec, RejectsCorruptChecksum) {
  Ipv4Packet pkt;
  pkt.src = Ipv4Address(10, 0, 0, 1);
  pkt.dst = Ipv4Address(10, 0, 0, 2);
  Bytes wire = pkt.encode();
  wire[8] ^= 0xff;  // flip TTL without fixing checksum
  EXPECT_FALSE(Ipv4Packet::decode(wire).ok());
}

TEST(Ipv4Codec, ChecksumIsValidOverHeader) {
  Ipv4Packet pkt;
  pkt.src = Ipv4Address(192, 168, 1, 1);
  pkt.dst = Ipv4Address(8, 8, 8, 8);
  Bytes wire = pkt.encode();
  EXPECT_EQ(internet_checksum(std::span(wire).subspan(0, 20)), 0);
}

TEST(IcmpCodec, EchoRoundTrip) {
  auto echo = make_echo_request(0x1234, 7, Bytes{9, 9});
  auto decoded = IcmpMessage::decode(echo.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, IcmpType::kEchoRequest);
  EXPECT_EQ(decoded->echo_id(), 0x1234);
  EXPECT_EQ(decoded->echo_seq(), 7);
}

TEST(IcmpCodec, TimeExceededQuotesOffendingPacket) {
  Ipv4Packet offending;
  offending.src = Ipv4Address(1, 1, 1, 1);
  offending.dst = Ipv4Address(2, 2, 2, 2);
  UdpDatagram udp;
  udp.src_port = 1000;
  udp.dst_port = 33434;
  offending.payload = udp.encode();
  auto error = make_time_exceeded(offending.encode());
  auto quoted = Ipv4Packet::decode(error.body);
  ASSERT_TRUE(quoted.ok());
  EXPECT_EQ(quoted->src, offending.src);
  auto quoted_udp = UdpDatagram::decode(quoted->payload);
  ASSERT_TRUE(quoted_udp.ok());
  EXPECT_EQ(quoted_udp->dst_port, 33434);
}

TEST(UdpCodec, RoundTrip) {
  UdpDatagram d;
  d.src_port = 1234;
  d.dst_port = 80;
  d.payload = Bytes{5, 6, 7};
  auto decoded = UdpDatagram::decode(d.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->src_port, 1234);
  EXPECT_EQ(decoded->dst_port, 80);
  EXPECT_EQ(decoded->payload, (Bytes{5, 6, 7}));
}

/// Two hosts on one link: ping resolves via ARP and gets an echo reply.
TEST(Host, PingAcrossLink) {
  sim::EventLoop loop;
  sim::Link link(&loop, sim::LinkConfig{});
  Host a(&loop, "a"), b(&loop, "b");
  a.add_attached_interface("eth0", mac(1), {Ipv4Address(10, 0, 0, 1), 24},
                           link, true);
  b.add_attached_interface("eth0", mac(2), {Ipv4Address(10, 0, 0, 2), 24},
                           link, false);

  bool got_reply = false;
  a.on_packet([&](const Ipv4Packet& pkt, int, const ether::EthernetFrame&) {
    auto msg = IcmpMessage::decode(pkt.payload);
    if (msg && msg->type == IcmpType::kEchoReply) got_reply = true;
  });
  EXPECT_TRUE(a.ping(Ipv4Address(10, 0, 0, 2), 1, 1));
  loop.run_for(Duration::seconds(1));
  EXPECT_TRUE(got_reply);
  // The ARP exchange populated both caches.
  EXPECT_TRUE(a.arp_cache(0).lookup(Ipv4Address(10, 0, 0, 2), loop.now()));
  EXPECT_TRUE(b.arp_cache(0).lookup(Ipv4Address(10, 0, 0, 1), loop.now()));
}

TEST(Host, SendFailsWithoutRoute) {
  sim::EventLoop loop;
  Host a(&loop, "a");
  Ipv4Packet pkt;
  pkt.dst = Ipv4Address(203, 0, 113, 1);
  EXPECT_FALSE(a.send_packet(std::move(pkt)));
  EXPECT_EQ(a.packets_dropped_no_route(), 1u);
}

struct Chain {
  // a -- r1 -- r2 -- b  (three /30-ish segments)
  sim::EventLoop loop;
  sim::Link l1{&loop, sim::LinkConfig{}};
  sim::Link l2{&loop, sim::LinkConfig{}};
  sim::Link l3{&loop, sim::LinkConfig{}};
  Host a{&loop, "a"}, r1{&loop, "r1"}, r2{&loop, "r2"}, b{&loop, "b"};

  Chain() {
    a.add_attached_interface("eth0", mac(1), {Ipv4Address(10, 0, 1, 1), 24},
                             l1, true);
    r1.add_attached_interface("eth0", mac(2), {Ipv4Address(10, 0, 1, 2), 24},
                              l1, false);
    r1.add_attached_interface("eth1", mac(3), {Ipv4Address(10, 0, 2, 1), 24},
                              l2, true);
    r2.add_attached_interface("eth0", mac(4), {Ipv4Address(10, 0, 2, 2), 24},
                              l2, false);
    r2.add_attached_interface("eth1", mac(5), {Ipv4Address(10, 0, 3, 1), 24},
                              l3, true);
    b.add_attached_interface("eth0", mac(6), {Ipv4Address(10, 0, 3, 2), 24},
                             l3, false);
    r1.set_forwarding(true);
    r2.set_forwarding(true);
    // Static routes toward both edges.
    a.routes().insert(Route{Ipv4Prefix(Ipv4Address(), 0),
                            Ipv4Address(10, 0, 1, 2), 0, 0});
    r1.routes().insert(Route{Ipv4Prefix(Ipv4Address(10, 0, 3, 0), 24),
                             Ipv4Address(10, 0, 2, 2), 1, 0});
    r2.routes().insert(Route{Ipv4Prefix(Ipv4Address(10, 0, 1, 0), 24),
                             Ipv4Address(10, 0, 2, 1), 0, 0});
    b.routes().insert(Route{Ipv4Prefix(Ipv4Address(), 0),
                            Ipv4Address(10, 0, 3, 1), 0, 0});
  }
};

TEST(Host, ForwardsAcrossTwoRouters) {
  Chain c;
  bool got_reply = false;
  c.a.on_packet([&](const Ipv4Packet& pkt, int, const ether::EthernetFrame&) {
    auto msg = IcmpMessage::decode(pkt.payload);
    if (msg && msg->type == IcmpType::kEchoReply) got_reply = true;
  });
  c.a.ping(Ipv4Address(10, 0, 3, 2), 1, 1);
  c.loop.run_for(Duration::seconds(2));
  EXPECT_TRUE(got_reply);
  EXPECT_GE(c.r1.packets_forwarded(), 1u);
  EXPECT_GE(c.r2.packets_forwarded(), 1u);
}

TEST(Host, TtlExpiryGeneratesTimeExceededFromIngressPrimary) {
  Chain c;
  std::optional<Ipv4Address> error_source;
  c.a.on_packet([&](const Ipv4Packet& pkt, int, const ether::EthernetFrame&) {
    auto msg = IcmpMessage::decode(pkt.payload);
    if (msg && msg->type == IcmpType::kTimeExceeded) error_source = pkt.src;
  });
  Ipv4Packet probe;
  probe.dst = Ipv4Address(10, 0, 3, 2);
  probe.ttl = 1;
  probe.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  UdpDatagram udp;
  udp.dst_port = 33434;
  probe.payload = udp.encode();
  c.a.send_packet(std::move(probe));
  c.loop.run_for(Duration::seconds(2));
  ASSERT_TRUE(error_source.has_value());
  // r1's ingress interface primary address.
  EXPECT_EQ(*error_source, Ipv4Address(10, 0, 1, 2));
  EXPECT_EQ(c.r1.icmp_ttl_exceeded_sent(), 1u);
}

TEST(Traceroute, DiscoversHopChain) {
  Chain c;
  auto hops = traceroute(c.a, Ipv4Address(10, 0, 3, 2), 5);
  ASSERT_GE(hops.size(), 3u);
  ASSERT_TRUE(hops[0].responder.has_value());
  EXPECT_EQ(*hops[0].responder, Ipv4Address(10, 0, 1, 2));
  ASSERT_TRUE(hops[1].responder.has_value());
  EXPECT_EQ(*hops[1].responder, Ipv4Address(10, 0, 2, 2));
  // Final hop: the destination answers with port-unreachable... our model
  // delivers the UDP probe; hosts do not emit port unreachable, so the
  // destination hop is simply unanswered.
  EXPECT_FALSE(hops[0].reached_destination);
}

TEST(Host, ArpTimeoutDropsQueuedPackets) {
  sim::EventLoop loop;
  sim::Link link(&loop, sim::LinkConfig{});
  Host a(&loop, "a");
  a.add_attached_interface("eth0", mac(1), {Ipv4Address(10, 0, 0, 1), 24},
                           link, true);
  // Nothing attached on the other side: ARP will never resolve.
  Ipv4Packet pkt;
  pkt.dst = Ipv4Address(10, 0, 0, 99);
  EXPECT_TRUE(a.send_packet(std::move(pkt)));
  loop.run_for(Duration::seconds(3));
  // No crash, packet silently dropped after the 1s ARP timeout.
  SUCCEED();
}

// ---------------------------------------------------------------------------
// In-place forwarding vs. the struct decoders
// ---------------------------------------------------------------------------

constexpr std::size_t kEth = ether::FrameView::kHeaderLength;

/// One forwarding router between raw link ends. Frames go in on `in`;
/// what the router forwards comes out of `out` toward mac(4), and ICMP
/// errors come back on `in` toward mac(1).
struct RawHop {
  sim::EventLoop loop;
  sim::Link in{&loop, sim::LinkConfig{}};
  sim::Link out{&loop, sim::LinkConfig{}};
  Host router{&loop, "r"};
  std::vector<Bytes> forwarded;
  std::vector<Bytes> returned;

  RawHop() {
    router.add_attached_interface("in", mac(2), {Ipv4Address(10, 0, 1, 1), 24},
                                  in, true);
    router.add_attached_interface("out", mac(3),
                                  {Ipv4Address(10, 0, 2, 1), 24}, out, true);
    router.set_forwarding(true);
    router.routes().insert(Route{Ipv4Prefix(Ipv4Address(), 0),
                                 Ipv4Address(10, 0, 2, 2), 1, 0});
    router.arp_cache(0).learn(Ipv4Address(10, 0, 1, 2), mac(1), loop.now());
    router.arp_cache(1).learn(Ipv4Address(10, 0, 2, 2), mac(4), loop.now());
    out.a_to_b().set_receiver([this](Bytes& w) { forwarded.push_back(w); });
    in.a_to_b().set_receiver([this](Bytes& w) { returned.push_back(w); });
  }

  /// Sends `frame` into the router; returns what it forwarded, if anything.
  std::optional<Bytes> forward(const Bytes& frame) {
    forwarded.clear();
    in.b_to_a().send(frame);
    loop.run();
    if (forwarded.empty()) return std::nullopt;
    EXPECT_EQ(forwarded.size(), 1u);
    return forwarded.front();
  }
};

/// True when the struct decoders accept `frame` as an IPv4 frame.
bool structs_accept(const Bytes& frame) {
  auto f = ether::EthernetFrame::decode(frame);
  return f && f->ethertype == static_cast<std::uint16_t>(ether::EtherType::kIpv4) &&
         Ipv4Packet::decode(f->payload).ok();
}

/// What forwarding emitted before it worked in place: both headers decoded
/// into structs, the TTL decremented, the packet and frame re-encoded.
std::optional<Bytes> decode_forward_encode(const Bytes& frame) {
  auto f = ether::EthernetFrame::decode(frame);
  if (!f || f->ethertype != static_cast<std::uint16_t>(ether::EtherType::kIpv4))
    return std::nullopt;
  auto packet = Ipv4Packet::decode(f->payload);
  if (!packet || packet->ttl <= 1) return std::nullopt;
  packet->ttl -= 1;
  return ether::make_frame(mac(4), mac(3), ether::EtherType::kIpv4,
                           packet->encode())
      .encode();
}

/// A frame as the platform itself generates them (ECN 0, DF), optionally
/// tagged and padded on the link.
Bytes platform_frame(Rng& rng, bool vlan = false, std::size_t padding = 0) {
  Ipv4Packet packet;
  packet.dscp = static_cast<std::uint8_t>(rng.below(64));
  packet.identification = static_cast<std::uint16_t>(rng.next());
  packet.ttl = static_cast<std::uint8_t>(rng.range(2, 255));
  packet.protocol = static_cast<std::uint8_t>(rng.next());
  packet.src = Ipv4Address(static_cast<std::uint32_t>(rng.next()));
  packet.dst = Ipv4Address(static_cast<std::uint32_t>(rng.next()));
  packet.payload.resize(rng.below(1481));
  for (auto& b : packet.payload) b = static_cast<std::uint8_t>(rng.next());
  auto frame = ether::make_frame(mac(2), mac(1), ether::EtherType::kIpv4,
                                 packet.encode());
  frame.has_vlan = vlan;
  frame.vlan_id = static_cast<std::uint16_t>(rng.below(4096));
  Bytes wire = frame.encode();
  wire.resize(wire.size() + padding, 0);
  return wire;
}

/// A minimal valid frame: 20-byte header and 8 payload bytes.
Bytes small_frame(std::uint8_t ttl = 64, std::uint16_t identification = 7) {
  Ipv4Packet packet;
  packet.identification = identification;
  packet.ttl = ttl;
  packet.src = Ipv4Address(10, 0, 1, 2);
  packet.dst = Ipv4Address(198, 51, 100, 9);
  packet.payload = Bytes{1, 2, 3, 4, 5, 6, 7, 8};
  return ether::make_frame(mac(2), mac(1), ether::EtherType::kIpv4,
                           packet.encode())
      .encode();
}

/// Recomputes the IPv4 header checksum of an untagged frame.
void fix_checksum(Bytes& frame) {
  frame[kEth + 10] = frame[kEth + 11] = 0;
  const std::uint16_t sum =
      internet_checksum(std::span(frame).subspan(kEth, Ipv4Header::kLength));
  frame[kEth + 10] = static_cast<std::uint8_t>(sum >> 8);
  frame[kEth + 11] = static_cast<std::uint8_t>(sum);
}

std::uint16_t checksum_of(const Bytes& frame) {
  return static_cast<std::uint16_t>((frame[kEth + 10] << 8) | frame[kEth + 11]);
}

TEST(InPlaceForwarding, PlatformFramesMatchDecodeForwardEncodeByteForByte) {
  RawHop hop;
  Rng rng(19);
  for (int i = 0; i < 400; ++i) {
    const bool vlan = i % 4 == 1;
    const std::size_t padding = i % 3 == 2 ? rng.below(40) : 0;
    const Bytes frame = platform_frame(rng, vlan, padding);
    auto want = decode_forward_encode(frame);
    ASSERT_TRUE(want.has_value());
    auto got = hop.forward(frame);
    ASSERT_TRUE(got.has_value()) << "frame " << i;
    EXPECT_EQ(*got, *want) << "frame " << i << " vlan=" << vlan
                           << " padding=" << padding;
  }
  EXPECT_EQ(hop.router.packets_forwarded(), 400u);
}

TEST(InPlaceForwarding, DecrementTtlEqualsFullRecomputation) {
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    Bytes frame = platform_frame(rng);
    for (int ttl = 1; ttl <= 255; ++ttl) {
      frame[kEth + 8] = static_cast<std::uint8_t>(ttl);
      fix_checksum(frame);
      Bytes want = frame;
      want[kEth + 8] = static_cast<std::uint8_t>(ttl - 1);
      fix_checksum(want);
      decrement_ttl(std::span(frame).subspan(kEth));
      ASSERT_EQ(frame, want) << "ttl " << ttl;
    }
  }
}

TEST(InPlaceForwarding, ParsersAgreeWithStructDecodersOnAdversarialFrames) {
  obs::Registry registry(true);
  obs::Scope scope(&registry);
  RawHop hop;
  auto dropped = [&](const char* reason) {
    return registry.counter("ether_frames_dropped_total", {{"reason", reason}})
        ->value();
  };

  struct Case {
    std::string name;
    Bytes frame;
    const char* reason;  // null: accepted
  };
  std::vector<Case> cases;
  const Bytes base = small_frame();
  for (std::size_t len = 0; len <= 33; ++len)
    cases.push_back({"truncated to " + std::to_string(len),
                     Bytes(base.begin(), base.begin() + static_cast<long>(len)),
                     "truncated"});
  Bytes bad_sum = base;
  bad_sum[kEth + 10] ^= 0x5a;
  cases.push_back({"bad checksum", bad_sum, "bad_checksum"});
  Bytes v6 = base;
  v6[kEth] = 0x65;
  fix_checksum(v6);
  cases.push_back({"version 6", v6, "bad_version"});
  Bytes ihl6 = base;
  ihl6[kEth] = 0x46;
  fix_checksum(ihl6);
  cases.push_back({"IHL 6", ihl6, "options"});
  const std::size_t ip_bytes = base.size() - kEth;
  for (const auto& [name, total, reason] :
       std::vector<std::tuple<std::string, std::size_t, const char*>>{
           {"total length above the buffer", ip_bytes + 1, "bad_length"},
           {"total length below the header", 19, "bad_length"},
           {"total length equal to the buffer", ip_bytes, nullptr},
           {"total length below the buffer", ip_bytes - 3, nullptr}}) {
    Bytes frame = base;
    frame[kEth + 2] = static_cast<std::uint8_t>(total >> 8);
    frame[kEth + 3] = static_cast<std::uint8_t>(total);
    fix_checksum(frame);
    cases.push_back({name, frame, reason});
  }

  std::map<std::string, std::uint64_t> want_drops;
  for (const Case& c : cases) {
    auto view = ether::FrameView::parse(c.frame);
    const bool views_accept =
        view && view->is(ether::EtherType::kIpv4) &&
        Ipv4Header::parse(view->payload()).ok();
    EXPECT_EQ(views_accept, structs_accept(c.frame)) << c.name;
    EXPECT_EQ(views_accept, c.reason == nullptr) << c.name;
    if (c.reason) ++want_drops[c.reason];

    auto got = hop.forward(c.frame);
    auto want = decode_forward_encode(c.frame);
    EXPECT_EQ(got.has_value(), want.has_value()) << c.name;
    if (got && want) {
      EXPECT_EQ(*got, *want) << c.name;
    }
  }
  for (const char* reason :
       {"truncated", "bad_checksum", "bad_version", "options", "bad_length"})
    EXPECT_EQ(dropped(reason), want_drops[reason]) << reason;
}

TEST(InPlaceForwarding, TtlZeroAndOneAnswerTimeExceededTwoForwards) {
  RawHop hop;
  for (std::uint8_t ttl : {0, 1, 2}) {
    hop.returned.clear();
    const Bytes frame = small_frame(ttl);
    auto got = hop.forward(frame);
    if (ttl <= 1) {
      EXPECT_FALSE(got.has_value()) << int(ttl);
      ASSERT_EQ(hop.returned.size(), 1u) << int(ttl);
      auto error = ether::EthernetFrame::decode(hop.returned.front());
      ASSERT_TRUE(error.ok());
      auto packet = Ipv4Packet::decode(error->payload);
      ASSERT_TRUE(packet.ok());
      auto icmp = IcmpMessage::decode(packet->payload);
      ASSERT_TRUE(icmp.ok());
      EXPECT_EQ(icmp->type, IcmpType::kTimeExceeded);
      // The quote is the offending datagram as received.
      EXPECT_EQ(icmp->body, Bytes(frame.begin() + kEth, frame.begin() + kEth + 28));
    } else {
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ((*got)[kEth + 8], 1);
      EXPECT_EQ(*got, *decode_forward_encode(frame));
    }
  }
  EXPECT_EQ(hop.router.icmp_ttl_exceeded_sent(), 2u);
}

TEST(InPlaceForwarding, ChecksumEdgesMatchFullRecomputation) {
  // Find identifications whose header checksum lands on 0x0000 after the
  // TTL decrement, and on 0x0000 before it (a header that may also carry
  // the equivalent 0xFFFF on the wire).
  std::optional<std::uint16_t> zero_after, zero_before;
  for (std::uint32_t id = 0; id <= 0xffff; ++id) {
    const Bytes frame = small_frame(64, static_cast<std::uint16_t>(id));
    if (!zero_before && checksum_of(frame) == 0x0000)
      zero_before = static_cast<std::uint16_t>(id);
    if (!zero_after &&
        checksum_of(small_frame(63, static_cast<std::uint16_t>(id))) == 0x0000)
      zero_after = static_cast<std::uint16_t>(id);
  }
  ASSERT_TRUE(zero_after && zero_before);

  RawHop hop;
  Bytes lands_on_zero = small_frame(64, *zero_after);
  Bytes starts_at_zero = small_frame(64, *zero_before);
  Bytes starts_at_ffff = starts_at_zero;
  starts_at_ffff[kEth + 10] = starts_at_ffff[kEth + 11] = 0xff;
  for (const Bytes& frame : {lands_on_zero, starts_at_zero, starts_at_ffff}) {
    ASSERT_TRUE(structs_accept(frame));
    auto got = hop.forward(frame);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, *decode_forward_encode(frame));
    EXPECT_EQ(internet_checksum(std::span(*got).subspan(kEth, 20)), 0);
  }
  EXPECT_EQ(checksum_of(*hop.forward(lands_on_zero)), 0x0000);
}

TEST(InPlaceForwarding, KeepsEcnAndFlags) {
  // RFC 3168: a router must not clear ECN-CE; nor may it set DF on a
  // packet that did not carry it.
  RawHop hop;
  Rng rng(3);
  Bytes frame = platform_frame(rng);
  frame[kEth + 1] = 0xbb;  // DSCP 46 (EF), ECN-CE
  frame[kEth + 6] = 0x00;  // flags: DF clear
  frame[kEth + 7] = 0x00;
  fix_checksum(frame);
  auto got = hop.forward(frame);
  ASSERT_TRUE(got.has_value());
  Bytes want = frame;
  ether::rewrite_macs(want, mac(4), mac(3));
  want[kEth + 8] -= 1;
  fix_checksum(want);
  EXPECT_EQ(*got, want);
  EXPECT_EQ((*got)[kEth + 1], 0xbb);
}

}  // namespace
}  // namespace peering::ip

// Tests for Ethernet framing, ARP, NICs, and the learning switch.
#include <gtest/gtest.h>

#include "ether/arp.h"
#include "ether/frame.h"
#include "ether/netif.h"
#include "ether/switch.h"
#include "sim/event_loop.h"

namespace peering::ether {
namespace {

MacAddress mac(std::uint32_t id) { return MacAddress::from_id(id); }

TEST(Frame, EncodeDecodeRoundTrip) {
  EthernetFrame frame =
      make_frame(mac(1), mac(2), EtherType::kIpv4, Bytes{1, 2, 3, 4});
  auto decoded = EthernetFrame::decode(frame.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->dst, mac(1));
  EXPECT_EQ(decoded->src, mac(2));
  EXPECT_EQ(decoded->ethertype, static_cast<std::uint16_t>(EtherType::kIpv4));
  EXPECT_EQ(decoded->payload, (Bytes{1, 2, 3, 4}));
  EXPECT_FALSE(decoded->has_vlan);
}

TEST(Frame, VlanTagRoundTrip) {
  EthernetFrame frame = make_frame(mac(1), mac(2), EtherType::kIpv4, Bytes{9});
  frame.has_vlan = true;
  frame.vlan_id = 1234;
  auto decoded = EthernetFrame::decode(frame.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->has_vlan);
  EXPECT_EQ(decoded->vlan_id, 1234);
  EXPECT_EQ(decoded->ethertype, static_cast<std::uint16_t>(EtherType::kIpv4));
}

TEST(Frame, DecodeRejectsTruncated) {
  Bytes tiny{1, 2, 3};
  EXPECT_FALSE(EthernetFrame::decode(tiny).ok());
}

TEST(Arp, RequestReplyRoundTrip) {
  auto request = make_arp_request(mac(1), Ipv4Address(10, 0, 0, 1),
                                  Ipv4Address(10, 0, 0, 2));
  auto decoded = ArpMessage::decode(request.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, ArpOp::kRequest);
  EXPECT_EQ(decoded->sender_ip, Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(decoded->target_ip, Ipv4Address(10, 0, 0, 2));

  auto reply = make_arp_reply(*decoded, mac(2), Ipv4Address(10, 0, 0, 2));
  auto decoded_reply = ArpMessage::decode(reply.encode());
  ASSERT_TRUE(decoded_reply.ok());
  EXPECT_EQ(decoded_reply->op, ArpOp::kReply);
  EXPECT_EQ(decoded_reply->sender_mac, mac(2));
  EXPECT_EQ(decoded_reply->target_mac, mac(1));
}

TEST(ArpCache, ExpiresEntries) {
  ArpCache cache(Duration::seconds(10));
  SimTime t0;
  cache.learn(Ipv4Address(10, 0, 0, 1), mac(1), t0);
  EXPECT_TRUE(cache.lookup(Ipv4Address(10, 0, 0, 1), t0 + Duration::seconds(5))
                  .has_value());
  EXPECT_FALSE(
      cache.lookup(Ipv4Address(10, 0, 0, 1), t0 + Duration::seconds(11))
          .has_value());
}

TEST(NetIf, FiltersForeignUnicastUnlessPromiscuous) {
  sim::EventLoop loop;
  sim::Link link(&loop, sim::LinkConfig{});
  NetIf sender("tx", mac(1));
  NetIf receiver("rx", mac(2));
  sender.attach(link, true);
  receiver.attach(link, false);
  int received = 0;
  receiver.on_frame([&](Bytes&, const FrameView&) { ++received; });

  sender.send(make_frame(mac(9), mac(1), EtherType::kIpv4, {}));  // foreign
  loop.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(receiver.frames_filtered(), 1u);

  receiver.set_promiscuous(true);
  sender.send(make_frame(mac(9), mac(1), EtherType::kIpv4, {}));
  loop.run();
  EXPECT_EQ(received, 1);
}

TEST(NetIf, AcceptsBroadcastAndOwnMac) {
  sim::EventLoop loop;
  sim::Link link(&loop, sim::LinkConfig{});
  NetIf sender("tx", mac(1));
  NetIf receiver("rx", mac(2));
  sender.attach(link, true);
  receiver.attach(link, false);
  int received = 0;
  receiver.on_frame([&](Bytes&, const FrameView&) { ++received; });
  sender.send(make_frame(MacAddress::broadcast(), mac(1), EtherType::kArp, {}));
  sender.send(make_frame(mac(2), mac(1), EtherType::kIpv4, {}));
  loop.run();
  EXPECT_EQ(received, 2);
}

TEST(NetIf, PrimaryAddressIsFirst) {
  NetIf nif("eth0", mac(1));
  EXPECT_TRUE(nif.primary_address().is_zero());
  nif.add_address({Ipv4Address(10, 0, 0, 1), 24});
  nif.add_address({Ipv4Address(10, 0, 1, 1), 24});
  EXPECT_EQ(nif.primary_address(), Ipv4Address(10, 0, 0, 1));
  nif.remove_address(Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(nif.primary_address(), Ipv4Address(10, 0, 1, 1));
}

/// Three hosts on a switch: learning should convert flooding to unicast
/// forwarding after the first exchange.
TEST(Switch, LearnsAndForwards) {
  sim::EventLoop loop;
  Switch sw("ixp");
  sim::Link l1(&loop, sim::LinkConfig{});
  sim::Link l2(&loop, sim::LinkConfig{});
  sim::Link l3(&loop, sim::LinkConfig{});
  NetIf h1("h1", mac(1)), h2("h2", mac(2)), h3("h3", mac(3));
  h1.attach(l1, true);
  sw.attach(l1, false);
  h2.attach(l2, true);
  sw.attach(l2, false);
  h3.attach(l3, true);
  sw.attach(l3, false);

  int h2_received = 0, h3_received = 0;
  h2.on_frame([&](Bytes&, const FrameView&) { ++h2_received; });
  h3.on_frame([&](Bytes&, const FrameView&) { ++h3_received; });

  // First frame to unknown MAC floods (h3's NetIf filters it).
  h1.send(make_frame(mac(2), mac(1), EtherType::kIpv4, {}));
  loop.run();
  EXPECT_EQ(h2_received, 1);
  EXPECT_EQ(h3_received, 0);
  EXPECT_EQ(sw.frames_flooded(), 1u);

  // h2 replies; now the switch knows both and forwards unicast.
  h2.send(make_frame(mac(1), mac(2), EtherType::kIpv4, {}));
  h1.send(make_frame(mac(2), mac(1), EtherType::kIpv4, {}));
  loop.run();
  EXPECT_EQ(h2_received, 2);
  EXPECT_EQ(sw.frames_forwarded(), 2u);
  EXPECT_EQ(h3.frames_filtered() + h3.frames_received(), 1u);  // only flood
}

TEST(Switch, BroadcastReachesAllPortsExceptIngress) {
  sim::EventLoop loop;
  Switch sw("ixp");
  sim::Link l1(&loop, sim::LinkConfig{});
  sim::Link l2(&loop, sim::LinkConfig{});
  sim::Link l3(&loop, sim::LinkConfig{});
  NetIf h1("h1", mac(1)), h2("h2", mac(2)), h3("h3", mac(3));
  h1.attach(l1, true);
  sw.attach(l1, false);
  h2.attach(l2, true);
  sw.attach(l2, false);
  h3.attach(l3, true);
  sw.attach(l3, false);
  int h1_received = 0, h2_received = 0, h3_received = 0;
  h1.on_frame([&](Bytes&, const FrameView&) { ++h1_received; });
  h2.on_frame([&](Bytes&, const FrameView&) { ++h2_received; });
  h3.on_frame([&](Bytes&, const FrameView&) { ++h3_received; });
  h1.send(make_frame(MacAddress::broadcast(), mac(1), EtherType::kArp, {}));
  loop.run();
  EXPECT_EQ(h1_received, 0);
  EXPECT_EQ(h2_received, 1);
  EXPECT_EQ(h3_received, 1);
}

}  // namespace
}  // namespace peering::ether

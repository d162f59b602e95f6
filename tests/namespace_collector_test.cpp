// Tests for namespace isolation (§5) and the passive route collector:
// faults inside a service namespace never touch the host; a collector
// archives announcement/withdrawal timelines the way RouteViews would.
#include <gtest/gtest.h>

#include "platform/collector.h"
#include "platform/namespaces.h"
#include "sim/stream.h"

namespace peering::platform {
namespace {

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }

DesiredNetworkState service_state() {
  DesiredNetworkState state;
  state.interfaces.push_back(
      NlInterface{"tap0", true, {{Ipv4Address(100, 64, 0, 1), 24}}});
  state.rules.push_back(NlRule{100, "dmac:neighbor-1", 1000});
  return state;
}

TEST(Namespaces, HostAlwaysExistsAndIsProtected) {
  NamespaceManager manager;
  EXPECT_TRUE(manager.exists("host"));
  EXPECT_FALSE(manager.destroy("host").ok());
  EXPECT_FALSE(manager.reset("host").ok());
}

TEST(Namespaces, CreateDestroyLifecycle) {
  NamespaceManager manager;
  ASSERT_TRUE(manager.create("vbgp").ok());
  EXPECT_FALSE(manager.create("vbgp").ok());  // duplicate
  EXPECT_TRUE(manager.exists("vbgp"));
  ASSERT_TRUE(manager.destroy("vbgp").ok());
  EXPECT_FALSE(manager.exists("vbgp"));
  EXPECT_FALSE(manager.destroy("vbgp").ok());
}

TEST(Namespaces, ServiceFaultsDoNotTouchHost) {
  NamespaceManager manager;
  // The host namespace has in-band management config that must survive.
  ASSERT_TRUE(manager.netlink("host")->create_interface("mgmt0").ok());
  ASSERT_TRUE(manager.netlink("host")
                  ->add_address("mgmt0", {Ipv4Address(192, 0, 2, 10), 24})
                  .ok());

  IsolatedService service(&manager, "vbgp");
  ASSERT_TRUE(service.start(service_state()).success);
  // A bug scribbles over the service namespace.
  NetlinkSim* ns = manager.netlink("vbgp");
  ASSERT_TRUE(ns->delete_interface("tap0").ok());
  ASSERT_TRUE(ns->create_interface("garbage0").ok());

  // Host config is untouched throughout.
  auto mgmt = manager.netlink("host")->interface("mgmt0");
  ASSERT_TRUE(mgmt.has_value());
  EXPECT_EQ(mgmt->addresses.size(), 1u);

  // Recovery: reset the namespace and re-apply intent.
  auto result = service.recover(service_state());
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_TRUE(manager.netlink("vbgp")->interface("tap0").has_value());
  EXPECT_FALSE(manager.netlink("vbgp")->interface("garbage0").has_value());
  // Host still untouched.
  EXPECT_TRUE(manager.netlink("host")->interface("mgmt0").has_value());
}

TEST(Namespaces, StopDestroysEverythingInside) {
  NamespaceManager manager;
  IsolatedService service(&manager, "vbgp");
  ASSERT_TRUE(service.start(service_state()).success);
  ASSERT_TRUE(service.stop().ok());
  EXPECT_FALSE(manager.exists("vbgp"));
}

class CollectorTest : public ::testing::Test {
 protected:
  CollectorTest()
      : collector_(&loop_, "route-views", 6447, Ipv4Address(4, 4, 4, 4)),
        feed_(&loop_, "feed", 65001, Ipv4Address(1, 1, 1, 1)) {
    bgp::PeerId at_collector = collector_.add_feed("as65001", 65001);
    bgp::PeerId at_feed = feed_.add_peer({.name = "collector", .peer_asn = 6447});
    auto streams = sim::StreamChannel::make(&loop_, Duration::millis(1));
    collector_.connect(at_collector, streams.a);
    feed_.connect_peer(at_feed, streams.b);
    loop_.run_for(Duration::seconds(5));
  }

  sim::EventLoop loop_;
  RouteCollector collector_;
  bgp::BgpSpeaker feed_;
};

TEST_F(CollectorTest, ArchivesAnnouncementsWithTimestamps) {
  bgp::PathAttributes attrs;
  attrs.communities = {bgp::Community(65001, 42)};
  feed_.originate(pfx("184.164.224.0/24"), attrs);
  loop_.run_for(Duration::seconds(5));

  auto history = collector_.history(pfx("184.164.224.0/24"));
  ASSERT_EQ(history.size(), 1u);
  EXPECT_FALSE(history[0].withdrawn);
  EXPECT_EQ(collector_.archive().peer_name(history[0].peer), "as65001");
  ASSERT_NE(history[0].attrs, nullptr);
  EXPECT_EQ(history[0].attrs->as_path.flatten(),
            (std::vector<bgp::Asn>{65001}));
  EXPECT_TRUE(history[0].at > SimTime());
  ASSERT_EQ(collector_.visible_paths(pfx("184.164.224.0/24")).size(), 1u);
}

TEST_F(CollectorTest, ArchivesWithdrawalTimeline) {
  feed_.originate(pfx("184.164.224.0/24"), bgp::PathAttributes{});
  loop_.run_for(Duration::seconds(5));
  feed_.withdraw_originated(pfx("184.164.224.0/24"));
  loop_.run_for(Duration::seconds(5));

  auto history = collector_.history(pfx("184.164.224.0/24"));
  ASSERT_EQ(history.size(), 2u);
  EXPECT_FALSE(history[0].withdrawn);
  EXPECT_TRUE(history[1].withdrawn);
  EXPECT_LT(history[0].at, history[1].at);
  EXPECT_TRUE(collector_.visible_paths(pfx("184.164.224.0/24")).empty());
}

TEST_F(CollectorTest, CollectorNeverAnnounces) {
  feed_.originate(pfx("184.164.224.0/24"), bgp::PathAttributes{});
  // Another prefix originated at the collector itself must not leak.
  collector_.speaker().originate(pfx("203.0.113.0/24"), bgp::PathAttributes{});
  loop_.run_for(Duration::seconds(10));
  EXPECT_FALSE(feed_.loc_rib().best(pfx("203.0.113.0/24")).has_value());
  // The feed's Loc-RIB holds only its own originated route.
  EXPECT_EQ(feed_.loc_rib().route_count(), 1u);
}

}  // namespace
}  // namespace peering::platform

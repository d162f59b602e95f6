// ARTEMIS hijack-detection tests: controlled hijacks of PEERING's own
// space (the §7.1 experiment class), observed through a route collector,
// detected within the sub-minute window the ARTEMIS paper claims, with
// deaggregation-based mitigation.
#include <gtest/gtest.h>

#include "platform/artemis.h"
#include "platform/footprint.h"
#include "platform/peering.h"
#include "toolkit/client.h"

namespace peering::platform {
namespace {

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }

/// A route-monitoring record announcing `prefix` with `path`.
mon::MonitorRecord announcement(const std::string& prefix, bgp::AsPath path) {
  bgp::PathAttributes attrs;
  attrs.as_path = std::move(path);
  mon::MonitorRecord record;
  record.prefix = pfx(prefix);
  record.attrs = bgp::make_attrs(std::move(attrs));
  return record;
}

TEST(HijackDetectorUnit, ExactMoasDetected) {
  HijackDetector detector({pfx("184.164.224.0/24")}, {61574});
  mon::MonitorRecord legit =
      announcement("184.164.224.0/24", bgp::AsPath({47065, 61574}));
  detector.observe(legit, "collector-feed");
  EXPECT_TRUE(detector.alerts().empty());

  mon::MonitorRecord hijack =
      announcement("184.164.224.0/24", bgp::AsPath({666, 64666}));
  hijack.at = SimTime() + Duration::seconds(12);
  detector.observe(hijack, "collector-feed");
  ASSERT_EQ(detector.alerts().size(), 1u);
  EXPECT_EQ(detector.alerts()[0].type, HijackType::kExactMoas);
  EXPECT_EQ(detector.alerts()[0].offending_origin, 64666u);
}

TEST(HijackDetectorUnit, SubPrefixDetected) {
  HijackDetector detector({pfx("184.164.224.0/23")}, {61574});
  mon::MonitorRecord hijack =
      announcement("184.164.225.0/24", bgp::AsPath({64666}));
  detector.observe(hijack, "collector-feed");
  ASSERT_EQ(detector.alerts().size(), 1u);
  EXPECT_EQ(detector.alerts()[0].type, HijackType::kSubPrefix);
  EXPECT_EQ(detector.alerts()[0].owned, pfx("184.164.224.0/23"));
}

TEST(HijackDetectorUnit, WithdrawalsAndForeignPrefixesIgnored) {
  HijackDetector detector({pfx("184.164.224.0/24")}, {61574});
  mon::MonitorRecord withdrawal =
      announcement("184.164.224.0/24", bgp::AsPath({64666}));
  withdrawal.withdrawn = true;
  detector.observe(withdrawal, "collector-feed");
  mon::MonitorRecord foreign =
      announcement("8.8.8.0/24", bgp::AsPath({64666}));
  detector.observe(foreign, "collector-feed");
  EXPECT_TRUE(detector.alerts().empty());
}

TEST(HijackDetectorUnit, MitigationDeaggregates) {
  HijackDetector detector({pfx("184.164.224.0/24")}, {61574});
  HijackAlert alert;
  alert.announced = pfx("184.164.224.0/24");
  auto mitigation = detector.mitigation_prefixes(alert);
  ASSERT_EQ(mitigation.size(), 2u);
  EXPECT_EQ(mitigation[0], pfx("184.164.224.0/25"));
  EXPECT_EQ(mitigation[1], pfx("184.164.224.128/25"));
}

TEST(ConfigDb, ControlledHijackAssignmentRestrictedToOwnSpace) {
  ConfigDatabase db(build_footprint());
  ExperimentProposal victim;
  victim.id = "victim";
  victim.requested_prefixes = 1;
  ASSERT_TRUE(db.propose_experiment(victim).ok());
  ASSERT_TRUE(db.approve_experiment("victim").ok());
  ExperimentProposal attacker;
  attacker.id = "attacker";
  attacker.requested_prefixes = 1;
  ASSERT_TRUE(db.propose_experiment(attacker).ok());
  ASSERT_TRUE(db.approve_experiment("attacker").ok());

  // The attacker may be assigned the victim's PEERING prefix (controlled
  // hijack of the platform's own space)...
  Ipv4Prefix target = db.experiment("victim")->allocated_prefixes[0];
  EXPECT_TRUE(db.assign_prefixes("attacker", {target}).ok());
  // ...but never third-party space.
  EXPECT_FALSE(db.assign_prefixes("attacker", {pfx("8.8.8.0/24")}).ok());
}

/// End-to-end controlled hijack: victim at pop1, attacker at pop2 (with an
/// admin-assigned overlapping prefix), a collector behind pop1's transit,
/// detection via the collector feed, then deaggregation mitigation.
class ControlledHijackTest : public ::testing::Test {
 protected:
  ControlledHijackTest() {
    PlatformModel model;
    model.resources = NumberedResources::peering_defaults();
    for (const char* id : {"pop1", "pop2"}) {
      PopModel pop;
      pop.id = id;
      pop.type = PopType::kIxp;
      pop.on_backbone = false;  // isolated PoPs: distinct views
      pop.interconnects.push_back({std::string(id) + "-transit",
                                   static_cast<bgp::Asn>(65001),
                                   InterconnectType::kTransit,
                                   id[3] == '1' ? 1u : 2u});
      model.pops[id] = pop;
    }
    db_ = std::make_unique<ConfigDatabase>(model);
    peering_ = std::make_unique<Peering>(&loop_, db_.get());
    peering_->build();
    peering_->settle();

    // Collector peers with pop1's transit neighbor.
    collector_ = std::make_unique<RouteCollector>(&loop_, "collector", 6447,
                                                  Ipv4Address(9, 9, 9, 9));
    auto* transit = peering_->pop("pop1")->neighbors[0].get();
    bgp::PeerId at_collector = collector_->add_feed("pop1-transit", 65001);
    bgp::PeerId at_transit = transit->speaker->add_peer(
        {.name = "collector", .peer_asn = 6447});
    auto streams = sim::StreamChannel::make(&loop_, Duration::millis(1));
    collector_->connect(at_collector, streams.a);
    transit->speaker->connect_peer(at_transit, streams.b);
    peering_->settle();
  }

  sim::EventLoop loop_;
  std::unique_ptr<ConfigDatabase> db_;
  std::unique_ptr<Peering> peering_;
  std::unique_ptr<RouteCollector> collector_;
};

TEST_F(ControlledHijackTest, DetectsAndMitigates) {
  // Victim connects at pop1 and announces.
  ExperimentProposal vp;
  vp.id = "victim";
  vp.requested_prefixes = 1;
  ASSERT_TRUE(db_->propose_experiment(vp).ok());
  ASSERT_TRUE(db_->approve_experiment("victim").ok());
  toolkit::ExperimentClient victim(&loop_, "victim");
  ASSERT_TRUE(victim.open_tunnel(*peering_, "pop1").ok());
  ASSERT_TRUE(victim.start_bgp("pop1").ok());
  peering_->settle();
  Ipv4Prefix target = db_->experiment("victim")->allocated_prefixes[0];
  bgp::Asn victim_asn = db_->experiment("victim")->asn;
  ASSERT_TRUE(victim.announce(target).send().ok());
  peering_->settle();

  HijackDetector detector({target}, {47065, victim_asn});
  detector.poll(*collector_);
  EXPECT_TRUE(detector.alerts().empty()) << "legit announcement flagged";

  // Attacker: approved experiment, admin-assigned the SAME prefix
  // (controlled hijack of PEERING's own space), connecting at pop2. The
  // attacker's transit also feeds the collector so the event is visible.
  ExperimentProposal ap;
  ap.id = "attacker";
  ap.requested_prefixes = 1;
  ASSERT_TRUE(db_->propose_experiment(ap).ok());
  ASSERT_TRUE(db_->approve_experiment("attacker").ok());
  ASSERT_TRUE(db_->assign_prefixes("attacker", {target}).ok());
  auto* transit2 = peering_->pop("pop2")->neighbors[0].get();
  bgp::PeerId feed2 = collector_->add_feed("pop2-transit", 65001);
  bgp::PeerId at_transit2 =
      transit2->speaker->add_peer({.name = "collector", .peer_asn = 6447});
  auto streams = sim::StreamChannel::make(&loop_, Duration::millis(1));
  collector_->connect(feed2, streams.a);
  transit2->speaker->connect_peer(at_transit2, streams.b);
  peering_->settle();

  toolkit::ExperimentClient attacker(&loop_, "attacker");
  ASSERT_TRUE(attacker.open_tunnel(*peering_, "pop2").ok());
  ASSERT_TRUE(attacker.start_bgp("pop2").ok());
  peering_->settle();
  SimTime hijack_sent = loop_.now();
  ASSERT_TRUE(attacker.announce(target).send().ok());
  peering_->settle();

  detector.poll(*collector_);
  ASSERT_EQ(detector.alerts().size(), 1u) << "hijack not detected";
  const HijackAlert& alert = detector.alerts()[0];
  EXPECT_EQ(alert.type, HijackType::kExactMoas);
  EXPECT_EQ(alert.offending_origin, db_->experiment("attacker")->asn);
  // Detected within the sub-minute window ARTEMIS claims.
  EXPECT_LT((alert.at - hijack_sent).to_seconds(), 60.0);

  // Mitigation: the victim deaggregates; the more-specifics reach the
  // collector and win LPM everywhere.
  auto mitigation = detector.mitigation_prefixes(alert);
  ASSERT_EQ(mitigation.size(), 2u);
  for (const auto& prefix : mitigation)
    ASSERT_TRUE(victim.announce(prefix).send().ok());
  peering_->settle();
  for (const auto& prefix : mitigation) {
    auto paths = collector_->visible_paths(prefix);
    ASSERT_FALSE(paths.empty()) << prefix.str();
    EXPECT_EQ(paths[0].origin_asn(), victim_asn);
  }
}

}  // namespace
}  // namespace peering::platform

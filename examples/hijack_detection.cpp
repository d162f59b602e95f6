// A controlled hijack study, after the ARTEMIS evaluation on PEERING
// (Sermpezis et al. [83], §7.1): a victim experiment announces its prefix,
// an attacker experiment — admin-assigned the same PEERING-owned prefix —
// hijacks it from another PoP, a route collector observes the MOAS event,
// the detector raises an alert within seconds, and the victim mitigates by
// deaggregating.
//
// Run: ./build/examples/hijack_detection
// Exits 1 if the hijack goes undetected or the mitigation prefixes are not
// visible at the collector with the victim's origin.
#include <cstdio>

#include "example_util.h"
#include "platform/artemis.h"
#include "platform/peering.h"
#include "toolkit/client.h"

using namespace peering;
using examples::check;

namespace {

platform::PlatformModel two_island_model() {
  platform::PlatformModel model;
  model.resources = platform::NumberedResources::peering_defaults();
  for (const char* id : {"pop-east", "pop-west"}) {
    platform::PopModel pop;
    pop.id = id;
    pop.type = platform::PopType::kIxp;
    pop.interconnects.push_back({std::string(id) + "-transit", 65001,
                                 platform::InterconnectType::kTransit,
                                 id[4] == 'e' ? 1u : 2u});
    model.pops[id] = pop;
  }
  return model;
}

}  // namespace

int main() {
  std::printf("== Controlled hijack + ARTEMIS-style detection ==\n\n");

  sim::EventLoop loop;
  platform::ConfigDatabase db(two_island_model());
  platform::Peering peering(&loop, &db);
  peering.build();
  peering.settle();

  // A collector peers with both transits (a RouteViews stand-in).
  platform::RouteCollector collector(&loop, "collector", 6447,
                                     Ipv4Address(9, 9, 9, 9));
  for (const char* pop_id : {"pop-east", "pop-west"}) {
    auto* transit = peering.pop(pop_id)->neighbors[0].get();
    bgp::PeerId at_collector =
        collector.add_feed(std::string(pop_id) + "-transit", 65001);
    bgp::PeerId at_transit =
        transit->speaker->add_peer({.name = "collector", .peer_asn = 6447});
    auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
    collector.connect(at_collector, streams.a);
    transit->speaker->connect_peer(at_transit, streams.b);
  }
  peering.settle();

  // Victim.
  platform::ExperimentProposal vp;
  vp.id = "victim";
  vp.requested_prefixes = 1;
  check(db.propose_experiment(vp));
  check(db.approve_experiment("victim"));
  toolkit::ExperimentClient victim(&loop, "victim");
  check(victim.open_tunnel(peering, "pop-east"));
  check(victim.start_bgp("pop-east"));
  peering.settle();
  Ipv4Prefix target = db.experiment("victim")->allocated_prefixes[0];
  bgp::Asn victim_asn = db.experiment("victim")->asn;
  check(victim.announce(target).send());
  peering.settle();
  std::printf("[victim] announced %s (origin AS%u) at pop-east\n",
              target.str().c_str(), victim_asn);

  platform::HijackDetector detector({target}, {47065, victim_asn});
  detector.poll(collector);
  std::printf("[artemis] monitoring %s: %zu alerts (expected: 0)\n",
              target.str().c_str(), detector.alerts().size());

  // Attacker: a second experiment, admin-assigned the SAME prefix for a
  // controlled hijack of PEERING's own space.
  platform::ExperimentProposal ap;
  ap.id = "attacker";
  ap.requested_prefixes = 1;
  check(db.propose_experiment(ap));
  check(db.approve_experiment("attacker"));
  check(db.assign_prefixes("attacker", {target}));
  toolkit::ExperimentClient attacker(&loop, "attacker");
  check(attacker.open_tunnel(peering, "pop-west"));
  check(attacker.start_bgp("pop-west"));
  peering.settle();
  SimTime t0 = loop.now();
  check(attacker.announce(target).send());
  peering.settle();
  std::printf("\n[attacker] announced %s (origin AS%u) at pop-west\n",
              target.str().c_str(), db.experiment("attacker")->asn);

  detector.poll(collector);
  if (detector.alerts().empty()) {
    std::printf("[artemis] FAILED to detect the hijack!\n");
    return 1;
  }
  const auto& alert = detector.alerts().front();
  std::printf("[artemis] ALERT after %.1f s: MOAS on %s — offending origin "
              "AS%u via feed %s\n",
              (alert.at - t0).to_seconds(), alert.announced.str().c_str(),
              alert.offending_origin, alert.feed.c_str());

  // Mitigation: deaggregate.
  auto mitigation = detector.mitigation_prefixes(alert);
  std::printf("\n[victim] mitigating with more-specifics:");
  for (const auto& prefix : mitigation) {
    std::printf(" %s", prefix.str().c_str());
    check(victim.announce(prefix).send());
  }
  std::printf("\n");
  peering.settle();

  bool mitigated = true;
  for (const auto& prefix : mitigation) {
    auto paths = collector.visible_paths(prefix);
    if (paths.empty() || paths[0].origin_asn() != victim_asn)
      mitigated = false;
  }
  std::printf("[artemis] more-specifics visible with the victim origin: %s\n",
              mitigated ? "yes — traffic pulled back via LPM" : "NO");
  if (!mitigated) return 1;

  std::printf("\ndone.\n");
  return 0;
}

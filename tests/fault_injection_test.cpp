// Chaos soak for the fault-injection harness (ISSUE 5): seeded scripted and
// randomized fault scenarios over a two-PoP PEERING deployment — E1 (two
// local neighbors + one experiment) and E2 (one neighbor) joined by a
// backbone circuit — each ending in a full invariant sweep. Also covers the
// differential-recovery check against a freshly converged reference
// harness, same-seed byte-identical determinism, and a negative test that
// proves the checker catches deliberately corrupted state.
//
// Soak seeds come from PEERING_SOAK_SEEDS ("11,23,37"); the default single
// seed keeps a plain ctest run fast.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "backbone/fabric.h"
#include "bgp/speaker.h"
#include "enforce/control_policy.h"
#include "faults/injector.h"
#include "faults/invariants.h"
#include "ip/host.h"
#include "mon/monitor.h"
#include "netbase/rand.h"
#include "obs/metrics.h"
#include "platform/configdb.h"
#include "platform/footprint.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "tenant/intent.h"
#include "tenant/orchestrator.h"
#include "vbgp/communities.h"
#include "vbgp/vrouter.h"

namespace peering::faults {
namespace {

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }
MacAddress mac(std::uint32_t id) { return MacAddress::from_id(0xFA000000 | id); }

constexpr bgp::Asn kPeeringAsn = 47065;
constexpr bgp::Asn kX1Asn = 61574;
const Ipv4Address kDestHost(192, 168, 0, 1);
const Ipv4Address kRemoteDestHost(192, 0, 2, 1);

sim::LinkConfig named_link(const std::string& name) {
  sim::LinkConfig config;
  config.name = name;
  return config;
}

/// A neighbor or experiment endpoint: host + speaker + received-packet log.
struct EdgeHost {
  ip::Host host;
  bgp::BgpSpeaker speaker;
  std::vector<ip::Ipv4Packet> received;

  EdgeHost(sim::EventLoop* loop, const std::string& name, bgp::Asn asn,
           Ipv4Address router_id)
      : host(loop, name), speaker(loop, name, asn, router_id) {
    host.on_packet([this](const ip::Ipv4Packet& pkt, int,
                          const ether::EthernetFrame&) {
      received.push_back(pkt);
    });
  }

  std::size_t count_dst(Ipv4Address dst) const {
    return static_cast<std::size_t>(
        std::count_if(received.begin(), received.end(),
                      [dst](const ip::Ipv4Packet& p) { return p.dst == dst; }));
  }
};

/// The full scenario under test. Everything randomized hangs off the one
/// injector seed, so two Harness(seed) instances evolve identically until
/// their fault schedules diverge.
struct Harness {
  obs::Registry registry{true};
  obs::Scope scope{&registry};  // install before any component resolves obs
  sim::EventLoop loop;
  vbgp::VRouter e1, e2;
  EdgeHost n1a, n1b, n2, x1;
  sim::Link l_n1a, l_n1b, l_n2, l_x1;
  backbone::BackboneFabric fabric;
  enforce::ControlPlaneEnforcer control;
  FaultInjector injector;
  InvariantChecker checker;
  /// Passive BMP monitors on both edge routers: the chaos scenarios must
  /// pass unchanged with monitoring on, and the merged station feed joins
  /// the byte-identity artifacts in the determinism tests.
  mon::MonitoringStation station;
  std::optional<mon::MonitorSession> mon_e1, mon_e2;
  const backbone::Circuit* circuit = nullptr;
  int if_n1a = -1, if_n1b = -1, if_n2 = -1, if_x1 = -1;
  bgp::PeerId peer_n1a = 0, peer_n1b = 0, peer_n2 = 0, peer_x1 = 0;
  bgp::PeerId n1a_side = 0, n1b_side = 0, n2_side = 0, x1_side = 0;

  explicit Harness(std::uint64_t seed)
      : e1(&loop, {.name = "e1", .pop_id = "pop1", .asn = kPeeringAsn,
                   .router_id = Ipv4Address(10, 255, 1, 1), .router_seed = 1}),
        e2(&loop, {.name = "e2", .pop_id = "pop2", .asn = kPeeringAsn,
                   .router_id = Ipv4Address(10, 255, 2, 1), .router_seed = 2}),
        n1a(&loop, "n1a", 65001, Ipv4Address(1, 1, 1, 1)),
        n1b(&loop, "n1b", 65002, Ipv4Address(1, 1, 1, 2)),
        n2(&loop, "n2", 65003, Ipv4Address(2, 2, 2, 2)),
        x1(&loop, "x1", kX1Asn, Ipv4Address(9, 9, 9, 1)),
        l_n1a(&loop, named_link("l-n1a")),
        l_n1b(&loop, named_link("l-n1b")),
        l_n2(&loop, named_link("l-n2")),
        l_x1(&loop, named_link("l-x1")),
        fabric(&loop),
        injector(&loop, seed),
        checker(&loop) {
    // Keep the full event history: determinism tests compare whole traces.
    registry.trace().set_capacity(1 << 16);

    // E1/E2 data-plane interfaces (promiscuous: virtual MACs must get in).
    if_n1a = e1.add_attached_interface(
        "n1a", mac(1), {Ipv4Address(10, 0, 1, 1), 24}, l_n1a, true, true);
    if_n1b = e1.add_attached_interface(
        "n1b", mac(2), {Ipv4Address(10, 0, 2, 1), 24}, l_n1b, true, true);
    if_x1 = e1.add_attached_interface(
        "x1", mac(3), {Ipv4Address(100, 64, 0, 1), 24}, l_x1, true, true);
    if_n2 = e2.add_attached_interface(
        "n2", mac(4), {Ipv4Address(10, 2, 1, 1), 24}, l_n2, true, true);

    // Neighbor hosts: uplink + stub interface owning the destinations.
    n1a.host.add_attached_interface("up", mac(11),
                                    {Ipv4Address(10, 0, 1, 2), 24}, l_n1a,
                                    false);
    n1a.host.add_interface("stub", mac(12)).add_address({kDestHost, 24});
    n1a.host.routes().insert(ip::Route{Ipv4Prefix(Ipv4Address(), 0),
                                       Ipv4Address(10, 0, 1, 1), 0, 0});
    n1b.host.add_attached_interface("up", mac(13),
                                    {Ipv4Address(10, 0, 2, 2), 24}, l_n1b,
                                    false);
    n1b.host.add_interface("stub", mac(14)).add_address({kDestHost, 24});
    n1b.host.routes().insert(ip::Route{Ipv4Prefix(Ipv4Address(), 0),
                                       Ipv4Address(10, 0, 2, 1), 0, 0});
    n2.host.add_attached_interface("up", mac(15),
                                   {Ipv4Address(10, 2, 1, 2), 24}, l_n2,
                                   false);
    auto& n2_stub = n2.host.add_interface("stub", mac(16));
    n2_stub.add_address({kDestHost, 24});
    n2_stub.add_address({kRemoteDestHost, 24});
    n2.host.routes().insert(ip::Route{Ipv4Prefix(Ipv4Address(), 0),
                                      Ipv4Address(10, 2, 1, 1), 0, 0});

    // Experiment host: allocation address primary, tunnel secondary.
    x1.host.add_attached_interface("tun", mac(21),
                                   {Ipv4Address(184, 164, 224, 1), 24}, l_x1,
                                   false);
    x1.host.interface(0).add_address({Ipv4Address(100, 64, 0, 2), 24});

    // Backbone circuit; the injector owns the iBGP transport so router
    // restarts can sever and rebuild it.
    circuit = &fabric.provision(e1, e2, 1'000'000'000, Duration::millis(15),
                                /*wire_bgp=*/false);

    // Control-plane enforcement at E1 (where the experiment attaches).
    control.install_default_rules({vbgp::kWhitelistAsn, vbgp::kBlacklistAsn});
    enforce::ExperimentGrant grant;
    grant.experiment_id = "x1";
    grant.allocated_prefixes = {pfx("184.164.224.0/24")};
    grant.allowed_origin_asns = {kX1Asn};
    control.set_grant(grant);
    e1.set_control_enforcer(&control);

    // BGP peers.
    peer_n1a = e1.add_neighbor({.name = "n1a", .asn = 65001,
                                .local_address = Ipv4Address(10, 0, 1, 1),
                                .remote_address = Ipv4Address(10, 0, 1, 2),
                                .interface = if_n1a, .global_id = 1});
    peer_n1b = e1.add_neighbor({.name = "n1b", .asn = 65002,
                                .local_address = Ipv4Address(10, 0, 2, 1),
                                .remote_address = Ipv4Address(10, 0, 2, 2),
                                .interface = if_n1b, .global_id = 2});
    peer_n2 = e2.add_neighbor({.name = "n2", .asn = 65003,
                               .local_address = Ipv4Address(10, 2, 1, 1),
                               .remote_address = Ipv4Address(10, 2, 1, 2),
                               .interface = if_n2, .global_id = 7});
    peer_x1 = e1.add_experiment({.experiment_id = "x1", .asn = kX1Asn,
                                 .local_address = Ipv4Address(100, 64, 0, 1),
                                 .remote_address = Ipv4Address(100, 64, 0, 2),
                                 .interface = if_x1});
    e1.add_experiment_route(pfx("184.164.224.0/24"), "x1", if_x1,
                            Ipv4Address(184, 164, 224, 1));
    e2.add_remote_experiment_route(pfx("184.164.224.0/24"), circuit->if_b,
                                   circuit->addr_a);

    n1a_side = n1a.speaker.add_peer({.name = "e1", .peer_asn = kPeeringAsn,
                                     .local_address = Ipv4Address(10, 0, 1, 2)});
    n1b_side = n1b.speaker.add_peer({.name = "e1", .peer_asn = kPeeringAsn,
                                     .local_address = Ipv4Address(10, 0, 2, 2)});
    n2_side = n2.speaker.add_peer({.name = "e2", .peer_asn = kPeeringAsn,
                                   .local_address = Ipv4Address(10, 2, 1, 2)});
    x1_side = x1.speaker.add_peer({.name = "e1", .peer_asn = kPeeringAsn,
                                   .local_address = Ipv4Address(100, 64, 0, 2),
                                   .addpath = bgp::AddPathMode::kBoth});

    // Every session transport runs through the injector.
    injector.connect_session("n1a", &e1.speaker(), peer_n1a, &n1a.speaker,
                             n1a_side);
    injector.connect_session("n1b", &e1.speaker(), peer_n1b, &n1b.speaker,
                             n1b_side);
    injector.connect_session("n2", &e2.speaker(), peer_n2, &n2.speaker,
                             n2_side);
    injector.connect_session("x1", &e1.speaker(), peer_x1, &x1.speaker,
                             x1_side);
    injector.connect_session("bb", &e1.speaker(), circuit->peer_at_a,
                             &e2.speaker(), circuit->peer_at_b,
                             Duration::millis(15));

    injector.register_link("l-n1a", &l_n1a);
    injector.register_link("l-n1b", &l_n1b);
    injector.register_link("l-n2", &l_n2);
    injector.register_link("l-x1", &l_x1);
    injector.register_link("bb-link", circuit->link.get());
    injector.register_router("e1", &e1);
    injector.register_router("e2", &e2);

    checker.add_router(&e1);
    checker.add_router(&e2);
    checker.add_experiment("x1", &x1.speaker, x1_side, &e1);
    checker.set_enforcer(&control);

    // Attach the monitors before any session comes up so the streams
    // start from the first peer-up edge.
    mon_e1.emplace(&loop, &e1.speaker());
    mon_e1->set_station(&station);
    mon_e2.emplace(&loop, &e2.speaker());
    mon_e2->set_station(&station);

    // Announcements: the shared destination from all three neighbors plus
    // one unique prefix each, and the experiment's allocation.
    bgp::PathAttributes attrs;
    n1a.speaker.originate(pfx("192.168.0.0/24"), attrs);
    n1a.speaker.originate(pfx("198.51.100.0/24"), attrs);
    n1b.speaker.originate(pfx("192.168.0.0/24"), attrs);
    n1b.speaker.originate(pfx("203.0.113.0/24"), attrs);
    n2.speaker.originate(pfx("192.168.0.0/24"), attrs);
    n2.speaker.originate(pfx("192.0.2.0/24"), attrs);
    x1.speaker.originate(pfx("184.164.224.0/24"), attrs);
  }

  std::vector<bgp::BgpSpeaker*> speakers() {
    return {&e1.speaker(), &e2.speaker(), &n1a.speaker,
            &n1b.speaker,  &n2.speaker,   &x1.speaker};
  }

  bool converge() {
    return FaultInjector::await_quiescence(&loop, speakers());
  }

  Ipv4Address vip(bgp::PeerId peer) {
    return e1.registry().by_peer(peer)->virtual_ip;
  }

  /// Virtual IP of the remote neighbor E1 materialized for `global_id`
  /// (unset address if the backbone never delivered its routes).
  Ipv4Address remote_vip(std::uint32_t global_id) {
    auto* nb = e1.registry().remote_by_global_ip(vbgp::global_pool_ip(global_id));
    return nb ? nb->virtual_ip : Ipv4Address();
  }

  std::size_t x1_candidates(const Ipv4Prefix& prefix) {
    return x1.speaker.loc_rib().candidates(prefix).size();
  }

  std::uint64_t total_updates() {
    std::uint64_t total = 0;
    for (const bgp::BgpSpeaker* s : speakers())
      total += s->total_updates_received() + s->total_updates_sent();
    return total;
  }
};

/// Sorted (prefix, next-hop, AS-path) multiset of a Loc-RIB — the
/// order-independent content fingerprint compared across runs.
std::vector<std::string> rib_fingerprint(const bgp::LocRib& rib) {
  std::vector<std::string> entries;
  rib.visit_all([&entries](const bgp::RibRoute& route) {
    entries.push_back(route.prefix.str() + "|" + route.attrs->next_hop.str() +
                      "|" + route.attrs->as_path.str());
  });
  std::sort(entries.begin(), entries.end());
  return entries;
}

void diff_rib(const bgp::LocRib& got, const bgp::LocRib& want,
              const std::string& label, InvariantReport& report) {
  ++report.checks;
  const auto got_fp = rib_fingerprint(got);
  const auto want_fp = rib_fingerprint(want);
  if (got_fp == want_fp) return;
  std::ostringstream msg;
  msg << label << ": Loc-RIB diverges from reference (" << got_fp.size()
      << " vs " << want_fp.size() << " candidates)";
  for (const std::string& e : got_fp)
    if (!std::binary_search(want_fp.begin(), want_fp.end(), e))
      msg << "; extra " << e;
  for (const std::string& e : want_fp)
    if (!std::binary_search(got_fp.begin(), got_fp.end(), e))
      msg << "; missing " << e;
  report.violations.push_back(msg.str());
}

/// Differential recovery (invariant (b)): every per-neighbor FibView of the
/// recovered router must answer LPM probes exactly like the reference run's
/// same-named view. Neighbors that exist only post-fault (e.g. a remote
/// neighbor materialized while the usual best path was down) must be empty.
void diff_router(vbgp::VRouter& got, vbgp::VRouter& want, std::uint64_t seed,
                 InvariantReport& report) {
  const std::string label = got.config().name;
  std::map<std::string, vbgp::VirtualNeighbor*> got_by_name;
  for (vbgp::VirtualNeighbor* nb : got.registry().all())
    got_by_name[nb->name] = nb;

  std::uint64_t probe_seed = seed;
  for (vbgp::VirtualNeighbor* ref : want.registry().all()) {
    ++report.checks;
    auto it = got_by_name.find(ref->name);
    if (it == got_by_name.end()) {
      report.violations.push_back(label + ": neighbor " + ref->name +
                                  " missing after recovery");
      continue;
    }
    InvariantChecker::diff_lpm(it->second->fib, ref->fib, ++probe_seed, 256,
                               label + "/" + ref->name, report);
    got_by_name.erase(it);
  }
  for (const auto& [name, nb] : got_by_name) {
    ++report.checks;
    if (!nb->fib.empty()) {
      report.violations.push_back(label + ": post-fault-only neighbor " + name +
                                  " holds " + std::to_string(nb->fib.size()) +
                                  " routes");
    }
  }
}

void diff_harness(Harness& got, Harness& want, std::uint64_t seed,
                  InvariantReport& report) {
  diff_router(got.e1, want.e1, seed, report);
  diff_router(got.e2, want.e2, seed + 1000, report);
  diff_rib(got.e1.speaker().loc_rib(), want.e1.speaker().loc_rib(), "e1",
           report);
  diff_rib(got.e2.speaker().loc_rib(), want.e2.speaker().loc_rib(), "e2",
           report);
  diff_rib(got.x1.speaker.loc_rib(), want.x1.speaker.loc_rib(), "x1", report);
  diff_rib(got.n1a.speaker.loc_rib(), want.n1a.speaker.loc_rib(), "n1a",
           report);
  diff_rib(got.n1b.speaker.loc_rib(), want.n1b.speaker.loc_rib(), "n1b",
           report);
  diff_rib(got.n2.speaker.loc_rib(), want.n2.speaker.loc_rib(), "n2", report);
}

std::vector<std::uint64_t> soak_seeds() {
  std::vector<std::uint64_t> seeds;
  if (const char* env = std::getenv("PEERING_SOAK_SEEDS")) {
    std::stringstream stream(env);
    std::string token;
    while (std::getline(stream, token, ',')) {
      if (!token.empty()) seeds.push_back(std::stoull(token));
    }
  }
  if (seeds.empty()) seeds.push_back(1);
  return seeds;
}

// ---------------------------------------------------------------------------
// Scenario 1: clean convergence baseline. The experiment sees every
// exportable path (two local neighbors + one across the backbone), the
// enforcer accepted the allocation announcement, and a full sweep is clean.

TEST(FaultHarness, ConvergesAndPassesInvariantSweep) {
  Harness h(1);
  ASSERT_TRUE(h.converge());
  EXPECT_EQ(h.x1_candidates(pfx("192.168.0.0/24")), 3u);
  EXPECT_EQ(h.x1_candidates(pfx("198.51.100.0/24")), 1u);
  EXPECT_EQ(h.x1_candidates(pfx("192.0.2.0/24")), 1u);
  EXPECT_GT(h.control.accepted(), 0u);
  InvariantReport report = h.checker.check_all();
  EXPECT_TRUE(report.ok()) << report.str();
  EXPECT_GT(report.checks, 0u);
}

// ---------------------------------------------------------------------------
// Scenario 2 (soak, parameterized by seed): a randomized storm across every
// registered link, session, and router. Liveness and monotonicity must hold
// mid-storm at any instant; after recovery the full sweep passes and the
// RIB/FIB state matches a freshly converged reference harness.

class FaultSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSoak, FlapStormMatchesFreshReference) {
  const std::uint64_t seed = GetParam();
  Harness h(seed);
  ASSERT_TRUE(h.converge());
  InvariantReport baseline = h.checker.check_all();
  ASSERT_TRUE(baseline.ok()) << baseline.str();

  h.injector.schedule_random_storm(h.loop.now(), Duration::seconds(60), 12);
  EXPECT_EQ(h.injector.faults_scheduled(), 12u);

  h.loop.run_for(Duration::seconds(30));
  // Mid-storm, sessions are in arbitrary states but state must stay
  // internally consistent. (Fan-out is legitimately in flux here.)
  InvariantReport mid = h.checker.check_fib_liveness();
  mid.merge(h.checker.check_monotonic_counters());
  EXPECT_TRUE(mid.ok()) << mid.str();

  // Past the last fault (t+60) plus the longest outage (20s), then settle.
  h.loop.run_for(Duration::seconds(60));
  ASSERT_TRUE(h.converge());
  InvariantReport post = h.checker.check_all();
  EXPECT_TRUE(post.ok()) << post.str();

  // Differential recovery: identical to a run that never saw a fault.
  Harness ref(seed);
  ASSERT_TRUE(ref.converge());
  InvariantReport diff;
  diff_harness(h, ref, seed, diff);
  EXPECT_TRUE(diff.ok()) << diff.str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSoak, ::testing::ValuesIn(soak_seeds()));

// ---------------------------------------------------------------------------
// Scenario 3: lossy link. Data-plane loss drops ping frames (visible in the
// sim_link_frames_dropped_total obs counter registered per direction) but
// never touches the BGP session riding its own stream transport.

TEST(FaultScenarios, LossyLinkDropsFramesButSparesControlPlane) {
  Harness h(7);
  ASSERT_TRUE(h.converge());
  ASSERT_TRUE(h.checker.check_all().ok());

  // Steer x1's traffic through n1a and prime ARP on a pristine link.
  h.x1.host.routes().insert(
      ip::Route{pfx("192.168.0.0/24"), h.vip(h.peer_n1a), 0, 0});
  h.x1.host.ping(kDestHost, 1, 0);
  h.loop.run_for(Duration::seconds(2));
  const std::size_t primed = h.n1a.count_dst(kDestHost);
  ASSERT_GE(primed, 1u);

  h.injector.inject_link_loss("l-n1a", h.loop.now(), Duration::seconds(20),
                              0.4);
  h.loop.run_for(Duration::millis(10));
  for (std::uint16_t i = 0; i < 40; ++i) {
    h.x1.host.ping(kDestHost, 2, i);
    h.loop.run_for(Duration::millis(250));
  }
  const std::size_t during = h.n1a.count_dst(kDestHost) - primed;
  EXPECT_GE(during, 1u);
  EXPECT_LT(during, 40u) << "40% loss should have dropped some pings";

  // The satellite: per-direction drop counters are real obs series.
  obs::Snapshot snap = h.registry.snapshot(h.loop.now());
  const std::int64_t dropped =
      snap.value("sim_link_frames_dropped_total",
                 {{"link", "l-n1a"}, {"dir", "a2b"}}) +
      snap.value("sim_link_frames_dropped_total",
                 {{"link", "l-n1a"}, {"dir", "b2a"}});
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(dropped),
            h.l_n1a.a_to_b().frames_dropped() +
                h.l_n1a.b_to_a().frames_dropped());

  // The BGP session never noticed.
  EXPECT_EQ(h.e1.speaker().session_state(h.peer_n1a),
            bgp::SessionState::kEstablished);

  // After restoration (t+20s) the path is clean again.
  h.loop.run_for(Duration::seconds(15));
  const std::size_t before_clean = h.n1a.count_dst(kDestHost);
  for (std::uint16_t i = 0; i < 10; ++i) {
    h.x1.host.ping(kDestHost, 3, i);
    h.loop.run_for(Duration::millis(100));
  }
  EXPECT_EQ(h.n1a.count_dst(kDestHost) - before_clean, 10u);

  InvariantReport report = h.checker.check_all();
  EXPECT_TRUE(report.ok()) << report.str();
}

// ---------------------------------------------------------------------------
// Scenario 4: backbone vBGP router restart — the paper's §4.4 failover
// story. While E2 is down, E1 must withdraw the remote neighbor's paths
// (its per-neighbor FIB empties, the experiment's fan-out shrinks to the
// surviving local neighbors); after recovery everything reconverges.

TEST(FaultScenarios, BackboneRouterRestartFailover) {
  Harness h(11);
  ASSERT_TRUE(h.converge());
  ASSERT_TRUE(h.checker.check_all().ok());
  ASSERT_EQ(h.x1_candidates(pfx("192.168.0.0/24")), 3u);
  auto* remote =
      h.e1.registry().remote_by_global_ip(vbgp::global_pool_ip(7));
  ASSERT_NE(remote, nullptr);
  ASSERT_FALSE(remote->fib.empty());

  h.injector.inject_router_restart("e2", h.loop.now() + Duration::seconds(1),
                                   Duration::seconds(30));
  h.loop.run_for(Duration::seconds(10));

  // Mid-outage: the backbone session is down at E1, the remote neighbor's
  // FIB drained, and the experiment lost exactly the cross-backbone path.
  EXPECT_NE(h.e1.speaker().session_state(h.circuit->peer_at_a),
            bgp::SessionState::kEstablished);
  EXPECT_TRUE(remote->fib.empty());
  EXPECT_EQ(h.x1_candidates(pfx("192.168.0.0/24")), 2u);
  EXPECT_EQ(h.x1_candidates(pfx("192.0.2.0/24")), 0u);
  InvariantReport mid = h.checker.check_fib_liveness();
  mid.merge(h.checker.check_monotonic_counters());
  EXPECT_TRUE(mid.ok()) << mid.str();

  // Recovery: reconnects at t+31s; reconvergence restores the fan-out.
  h.loop.run_for(Duration::seconds(40));
  ASSERT_TRUE(h.converge());
  EXPECT_EQ(h.e1.speaker().session_state(h.circuit->peer_at_a),
            bgp::SessionState::kEstablished);
  EXPECT_EQ(h.x1_candidates(pfx("192.168.0.0/24")), 3u);
  EXPECT_EQ(h.x1_candidates(pfx("192.0.2.0/24")), 1u);
  EXPECT_FALSE(remote->fib.empty());
  InvariantReport post = h.checker.check_all();
  EXPECT_TRUE(post.ok()) << post.str();
}

// ---------------------------------------------------------------------------
// Scenario 5: abrupt TCP reset. Only one side observes the stream close;
// the other is a zombie until its hold timer (90s) expires. With the outage
// longer than the hold time, both sides are Idle before the reconnect.

TEST(FaultScenarios, TcpResetRecoversViaHoldTimer) {
  Harness h(13);
  ASSERT_TRUE(h.converge());
  ASSERT_TRUE(h.checker.check_all().ok());

  auto established_sides = [&h]() {
    int count = 0;
    if (h.e1.speaker().session_state(h.peer_n1a) ==
        bgp::SessionState::kEstablished)
      ++count;
    if (h.n1a.speaker.session_state(h.n1a_side) ==
        bgp::SessionState::kEstablished)
      ++count;
    return count;
  };
  ASSERT_EQ(established_sides(), 2);

  h.injector.inject_session_flap("n1a", h.loop.now(), Duration::seconds(120),
                                 FlapKind::kTcpReset);
  h.loop.run_for(Duration::seconds(5));
  // Exactly one zombie: the reset side got no close notification.
  EXPECT_EQ(established_sides(), 1);

  h.loop.run_for(Duration::seconds(95));  // t+100: past the 90s hold timer
  EXPECT_EQ(established_sides(), 0);
  InvariantReport mid = h.checker.check_fib_liveness();
  EXPECT_TRUE(mid.ok()) << mid.str();

  h.loop.run_for(Duration::seconds(30));  // t+130: past the reconnect
  ASSERT_TRUE(h.converge());
  EXPECT_EQ(established_sides(), 2);
  EXPECT_EQ(h.x1_candidates(pfx("192.168.0.0/24")), 3u);
  InvariantReport post = h.checker.check_all();
  EXPECT_TRUE(post.ok()) << post.str();
}

// ---------------------------------------------------------------------------
// Scenario 6: withdraw/re-advertise churn racing session flaps (including
// the backbone session). Every intermediate state must keep the liveness
// invariants; the final state must be fully converged, with the enforcer
// having seen (and counted) both accepted and rejected announcements.

TEST(FaultScenarios, ChurnDuringConvergenceStaysConsistent) {
  Harness h(17);
  ASSERT_TRUE(h.converge());
  ASSERT_TRUE(h.checker.check_all().ok());
  const std::uint64_t accepted_before = h.control.accepted();

  h.injector.inject_session_flap("n1b", h.loop.now() + Duration::seconds(2),
                                 Duration::seconds(5), FlapKind::kGraceful);
  h.injector.inject_session_flap("bb", h.loop.now() + Duration::seconds(4),
                                 Duration::seconds(6), FlapKind::kGraceful);

  bgp::PathAttributes attrs;
  for (int cycle = 0; cycle < 5; ++cycle) {
    h.n1a.speaker.withdraw_originated(pfx("192.168.0.0/24"));
    h.x1.speaker.withdraw_originated(pfx("184.164.224.0/24"));
    h.loop.run_for(Duration::seconds(1));
    InvariantReport mid = h.checker.check_fib_liveness();
    EXPECT_TRUE(mid.ok()) << "cycle " << cycle << ": " << mid.str();
    h.n1a.speaker.originate(pfx("192.168.0.0/24"), attrs);
    h.x1.speaker.originate(pfx("184.164.224.0/24"), attrs);
    h.loop.run_for(Duration::seconds(1));
  }
  // A hijack attempt mid-churn: rejected, never propagated.
  h.x1.speaker.originate(pfx("8.8.8.0/24"), attrs);

  ASSERT_TRUE(h.converge());
  EXPECT_EQ(h.x1_candidates(pfx("192.168.0.0/24")), 3u);
  EXPECT_FALSE(
      h.n1a.speaker.loc_rib().best(pfx("8.8.8.0/24")).has_value());
  EXPECT_GT(h.control.accepted(), accepted_before);
  EXPECT_GT(h.control.rejected(), 0u);
  InvariantReport post = h.checker.check_all();
  EXPECT_TRUE(post.ok()) << post.str();
}

// ---------------------------------------------------------------------------
// Scenario 7: queue shrink on the backbone circuit (a real bandwidth-bound
// link, so drop-tail actually engages) plus latency jitter on the remote
// neighbor's access link — the reply path, so the request burst still hits
// the shrunken queue in one instant. Data-plane bursts lose frames
// mid-fault; the control plane and invariants ride it out.

TEST(FaultScenarios, QueueShrinkAndJitterSurviveInvariants) {
  Harness h(19);
  ASSERT_TRUE(h.converge());
  ASSERT_TRUE(h.checker.check_all().ok());

  // Route to N2's unique prefix across the backbone and prime ARP.
  const Ipv4Address remote_nh = h.remote_vip(7);
  ASSERT_NE(remote_nh, Ipv4Address());
  h.x1.host.routes().insert(ip::Route{pfx("192.0.2.0/24"), remote_nh, 0, 0});
  h.x1.host.ping(kRemoteDestHost, 1, 0);
  h.loop.run_for(Duration::seconds(2));
  ASSERT_GE(h.n2.count_dst(kRemoteDestHost), 1u);

  h.injector.inject_queue_shrink("bb-link", h.loop.now(),
                                 Duration::seconds(15), 256);
  h.injector.inject_link_jitter("l-n2", h.loop.now(), Duration::seconds(15),
                                Duration::millis(5));
  h.loop.run_for(Duration::millis(10));

  const std::uint64_t drops_before =
      h.circuit->link->a_to_b().frames_dropped();
  // A same-instant burst: with a 256-byte drop-tail bound at 1 Gbps the
  // queue can hold only a few frames.
  for (std::uint16_t i = 0; i < 30; ++i) h.x1.host.ping(kRemoteDestHost, 2, i);
  h.loop.run_for(Duration::seconds(5));
  EXPECT_GT(h.circuit->link->a_to_b().frames_dropped(), drops_before);

  // Restoration: spaced pings all survive.
  h.loop.run_for(Duration::seconds(15));
  const std::size_t before_clean = h.n2.count_dst(kRemoteDestHost);
  for (std::uint16_t i = 0; i < 10; ++i) {
    h.x1.host.ping(kRemoteDestHost, 3, i);
    h.loop.run_for(Duration::millis(10));
  }
  h.loop.run_for(Duration::seconds(2));
  EXPECT_EQ(h.n2.count_dst(kRemoteDestHost) - before_clean, 10u);

  InvariantReport report = h.checker.check_all();
  EXPECT_TRUE(report.ok()) << report.str();
}

// ---------------------------------------------------------------------------
// Scenario 8 (ISSUE 9): tenant-churn chaos. While a randomized storm flaps
// sessions and restarts a router on the data-plane harness, the tenant
// control plane onboards and removes tenants with netlink failures armed
// mid-onboarding. Every fleet transaction must be atomic — commit fully
// (fingerprint gains the tenant's artifacts) or roll back to a
// byte-identical fleet fingerprint — and draining all survivors must return
// the fleet to its tenantless baseline while the storm settles cleanly.

TEST(FaultScenarios, TenantChurnDuringChaosCommitsOrRollsBackCleanly) {
  Harness h(29);
  ASSERT_TRUE(h.converge());
  ASSERT_TRUE(h.checker.check_all().ok());

  platform::ConfigDatabase db(platform::build_footprint(1));
  tenant::TenantOrchestrator orchestrator(&db);
  ASSERT_TRUE(orchestrator.register_all_pops().ok());
  const std::string empty_fleet = orchestrator.fleet_state_fingerprint();

  // The storm: two session flaps plus a router restart spanning the churn.
  h.injector.inject_session_flap("n1a", h.loop.now() + Duration::seconds(2),
                                 Duration::seconds(8), FlapKind::kGraceful);
  h.injector.inject_session_flap("bb", h.loop.now() + Duration::seconds(6),
                                 Duration::seconds(10), FlapKind::kGraceful);
  h.injector.inject_router_restart("e2", h.loop.now() + Duration::seconds(12),
                                   Duration::seconds(15));

  const std::vector<std::string> pop_pool = {"amsterdam01", "gatech01",
                                             "seattle01", "ufmg01", "wisc01"};
  Rng rng(29);
  std::set<std::string> live;
  int committed = 0, rolled_back = 0;
  for (int round = 0; round < 12; ++round) {
    h.loop.run_for(Duration::seconds(3));
    InvariantReport mid = h.checker.check_fib_liveness();
    ASSERT_TRUE(mid.ok()) << "round " << round << ": " << mid.str();

    std::string id = "chaos-";
    id += std::to_string(round);
    tenant::TenantIntent intent;
    intent.id = id;
    intent.description = "tenant churn under chaos";
    intent.contact = id + "@example.edu";
    intent.scopes.push_back({pop_pool[rng.below(pop_pool.size())], {}});
    const std::string other = pop_pool[rng.below(pop_pool.size())];
    if (other != intent.scopes[0].pop_id) intent.scopes.push_back({other, {}});

    // Half the time, arm a netlink failure on one scoped PoP so the fleet
    // transaction dies mid-commit and must roll back.
    const bool sabotage = rng.chance(0.5);
    if (sabotage) {
      orchestrator.netlink(intent.scopes[0].pop_id)
          ->fail_nth_mutation(static_cast<int>(rng.range(1, 4)));
    }

    const std::string before = orchestrator.fleet_state_fingerprint();
    auto result = orchestrator.onboard(intent);
    if (result.ok()) {
      ++committed;
      live.insert(id);
      EXPECT_NE(orchestrator.fleet_state_fingerprint().find("tap-" + id),
                std::string::npos);
    } else {
      ++rolled_back;
      EXPECT_TRUE(sabotage) << result.error().message;
      // Atomicity: the failed transaction left no trace anywhere.
      EXPECT_EQ(orchestrator.fleet_state_fingerprint(), before);
      EXPECT_EQ(orchestrator.tenant(id), nullptr);
    }

    // Occasionally retire a survivor mid-storm; removal is also a fleet
    // transaction and must succeed outright with no armed faults left.
    if (!live.empty() && rng.chance(0.3)) {
      const std::string victim = *live.begin();
      ASSERT_TRUE(orchestrator.remove(victim).ok());
      live.erase(victim);
    }
  }
  EXPECT_GT(committed, 0);
  EXPECT_GT(rolled_back, 0);
  EXPECT_EQ(orchestrator.tenant_count(), live.size());

  // Drain the survivors: byte-identical return to the tenantless baseline.
  for (const std::string& id : std::set<std::string>(live))
    ASSERT_TRUE(orchestrator.remove(id).ok());
  EXPECT_EQ(orchestrator.fleet_state_fingerprint(), empty_fleet);

  // The data-plane storm settled cleanly alongside the control-plane churn.
  h.loop.run_for(Duration::seconds(60));
  ASSERT_TRUE(h.converge());
  InvariantReport post = h.checker.check_all();
  EXPECT_TRUE(post.ok()) << post.str();
}

// ---------------------------------------------------------------------------
// Determinism: two same-seed runs produce byte-identical fault schedules
// and obs event traces; a different seed produces a different schedule.

struct RunArtifacts {
  std::string schedule;
  std::string trace;
  std::string monitoring;
  std::uint64_t updates = 0;
  std::uint64_t faults = 0;
};

RunArtifacts run_storm(std::uint64_t seed) {
  Harness h(seed);
  EXPECT_TRUE(h.converge());
  h.checker.check_all();
  h.injector.schedule_random_storm(h.loop.now(), Duration::seconds(40), 8);
  h.loop.run_for(Duration::seconds(80));
  h.converge();
  h.checker.check_all();
  RunArtifacts artifacts;
  artifacts.schedule = h.injector.schedule_log();
  artifacts.trace = h.registry.trace().to_jsonl();
  artifacts.monitoring = h.station.to_jsonl();
  artifacts.updates = h.total_updates();
  artifacts.faults = static_cast<std::uint64_t>(
      h.registry.snapshot(h.loop.now()).total("faults_injected_total"));
  return artifacts;
}

TEST(FaultDeterminism, SameSeedRunsAreByteIdentical) {
  RunArtifacts a = run_storm(42);
  RunArtifacts b = run_storm(42);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.monitoring, b.monitoring);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_GT(a.faults, 0u);
  EXPECT_FALSE(a.monitoring.empty());

  RunArtifacts c = run_storm(43);
  EXPECT_NE(a.schedule, c.schedule);
}

// ---------------------------------------------------------------------------
// Negative: the checker must catch deliberately corrupted state — a FIB
// route egressing via the wrong interface, and a stale FIB entry left
// behind on a downed session.

TEST(FaultInvariants, CheckerCatchesInjectedStaleState) {
  Harness h(23);
  ASSERT_TRUE(h.converge());
  ASSERT_TRUE(h.checker.check_all().ok());

  // Wrong egress interface while the session is up.
  auto* nb1b = h.e1.registry().by_peer(h.peer_n1b);
  ASSERT_NE(nb1b, nullptr);
  nb1b->fib.insert(ip::Route{pfx("100.99.0.0/24"), Ipv4Address(10, 0, 2, 2),
                             nb1b->interface + 17, 0});
  InvariantReport bad_iface = h.checker.check_fib_liveness();
  EXPECT_FALSE(bad_iface.ok());
  nb1b->fib.remove(pfx("100.99.0.0/24"));
  EXPECT_TRUE(h.checker.check_fib_liveness().ok());

  // Stale route surviving a session teardown (the exact bug class the FIB
  // liveness invariant exists for).
  h.injector.inject_session_flap("n1a", h.loop.now(), Duration::seconds(300),
                                 FlapKind::kGraceful);
  h.loop.run_for(Duration::seconds(5));
  auto* nb1a = h.e1.registry().by_peer(h.peer_n1a);
  ASSERT_NE(nb1a, nullptr);
  ASSERT_TRUE(nb1a->fib.empty()) << "teardown must flush the neighbor FIB";
  nb1a->fib.insert(ip::Route{pfx("192.168.0.0/24"), Ipv4Address(10, 0, 1, 2),
                             nb1a->interface, 0});
  InvariantReport stale = h.checker.check_fib_liveness();
  EXPECT_FALSE(stale.ok());
  EXPECT_NE(stale.str().find("down but its FIB holds"), std::string::npos);
  nb1a->fib.remove(pfx("192.168.0.0/24"));
  EXPECT_TRUE(h.checker.check_fib_liveness().ok());
}

}  // namespace
}  // namespace peering::faults

// Reproduces the §6 in-text AMS-IX operating point: PEERING's vBGP router
// there exchanges routes with 4 route servers, 2 transit providers, and 235
// bilateral routers across 104 member networks — 2.7M routes from 854 ASes
// — and over an 18h window processed 21.8 updates/s on average with a p99
// of ~400 updates/s. This bench loads an AMS-IX-scale table into the vBGP
// RIB/FIB structures, then replays churn at the observed mean rate on the
// simulation clock, reporting memory and CPU headroom.
//
// The whole run executes under an installed obs::Registry: per-neighbor
// update counters and rates, enforcement verdict totals, and FIB
// shared/flat accounting all land in one deterministic snapshot
// (BENCH_amsix_replay.obs.json) plus a structured event trace
// (BENCH_amsix_replay.trace.jsonl). Two runs with the same seeds produce
// byte-identical copies of both files: every metric in them is derived
// from the feed generator and the simulated clock, never from wall time.
#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench_util.h"
#include "bgp/rib.h"
#include "enforce/control_policy.h"
#include "inet/route_feed.h"
#include "ip/fib_set.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"

using namespace peering;

namespace {
constexpr std::size_t kRoutes = 2'700'000;
constexpr std::size_t kFeeds = 6;  // 4 route servers + 2 transits
constexpr std::size_t kChurnUpdates = 100'000;
// Replay the churn at the paper's observed mean of 21.8 updates/s on the
// sim clock: 100k updates / 21.8 per s, in integer nanoseconds per update.
constexpr std::int64_t kChurnStepNs = 1'000'000'000'000 / 21'800;

const char* kNeighborNames[kFeeds] = {"rs1", "rs2", "rs3", "rs4",
                                      "transit1", "transit2"};

/// Drives the control-plane enforcement chain with a deterministic mix of
/// experiment announcements, so verdict counts by rule land in the
/// snapshot: in-allocation accepts, out-of-allocation rejects, and one
/// prefix hammered past its daily update budget.
void replay_enforcement(enforce::ControlPlaneEnforcer& control,
                        sim::EventLoop& loop) {
  enforce::ExperimentGrant grant;
  grant.experiment_id = "amsix-probe";
  grant.allocated_prefixes = {Ipv4Prefix(Ipv4Address(184, 164, 224, 0), 19)};
  grant.allowed_origin_asns = {61574};
  grant.max_updates_per_day = 144;
  control.set_grant(grant);

  bgp::PathAttributes attrs;
  attrs.as_path = bgp::AsPath({61574});
  bgp::AttrsPtr shared = bgp::make_attrs(attrs);

  for (int i = 0; i < 600; ++i) {
    enforce::AnnouncementContext ctx;
    ctx.experiment_id = "amsix-probe";
    ctx.pop_id = "amsix01";
    ctx.attrs = shared;
    ctx.now = loop.now();
    if (i % 5 == 4) {
      // Outside the allocation: prefix-ownership reject.
      ctx.prefix = Ipv4Prefix(Ipv4Address(8, 8, static_cast<std::uint8_t>(i), 0), 24);
    } else if (i % 2 == 0) {
      // One prefix re-announced 240 times in a sim "day": the first 144
      // pass the rate limiter, the rest are update-rate-limit rejects.
      ctx.prefix = Ipv4Prefix(Ipv4Address(184, 164, 224, 0), 24);
    } else {
      ctx.prefix =
          Ipv4Prefix(Ipv4Address(184, 164, 230, static_cast<std::uint8_t>(i)), 32);
    }
    control.check(ctx);
    loop.run_for(Duration::seconds(1));
  }
}

}  // namespace

int main() {
  std::printf("=== AMS-IX scale replay (2.7M routes, 854 peer ASes) ===\n\n");

  // Install the telemetry registry before constructing anything observed:
  // FibSet and ControlPlaneEnforcer capture the global registry when built.
  obs::Registry registry;
  registry.trace().set_capacity(4096);
  obs::Scope obs_scope(&registry);
  sim::EventLoop loop;

  inet::RouteFeedConfig config;
  config.route_count = kRoutes;
  config.seed = 2019;
  auto feed = inet::generate_feed(config);

  bgp::AttrPool pool;
  bgp::LocRib loc_rib([](bgp::PeerId) { return bgp::PeerDecisionInfo{}; });
  // Per-neighbor FIBs share one deduplicated store (§4.3's per-neighbor
  // routing tables, as vBGP actually keeps them).
  ip::FibSet fib_set;
  std::vector<ip::FibView> fibs;
  obs::Counter* updates_by_neighbor[kFeeds];
  for (std::size_t f = 0; f < kFeeds; ++f) {
    fibs.push_back(fib_set.make_view());
    updates_by_neighbor[f] = registry.counter(
        "amsix_updates_total", {{"neighbor", kNeighborNames[f]}});
  }

  registry.trace().emit(loop.now(), "amsix", "load_start",
                        {{"routes", std::to_string(kRoutes)}});
  auto load_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < feed.size(); ++i) {
    std::size_t f = i % kFeeds;
    bgp::PeerId peer = static_cast<bgp::PeerId>(1 + f);
    bgp::RibRoute route;
    route.prefix = feed[i].prefix;
    route.peer = peer;
    route.attrs = pool.intern(feed[i].attrs);
    loc_rib.update(route);
    fibs[f].insert(ip::Route{feed[i].prefix, feed[i].attrs.next_hop,
                             static_cast<int>(peer), 0});
  }
  double load_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - load_start)
                      .count();
  registry.trace().emit(loop.now(), "amsix", "load_done",
                        {{"attr_sets", std::to_string(pool.size())}});

  std::size_t rib_bytes = pool.memory_bytes() + loc_rib.memory_bytes();
  std::size_t fib_shared = fib_set.memory_bytes();
  std::size_t fib_flat = fib_set.flat_equivalent_bytes();

  std::printf("initial convergence: %.1f s for %zu routes (%.0f routes/s)\n",
              load_s, kRoutes, kRoutes / load_s);
  std::printf("memory: RIB %.0f MB + per-neighbor FIBs %.0f MB shared "
              "(%.0f MB flat-equivalent)\n",
              rib_bytes / 1e6, fib_shared / 1e6, fib_flat / 1e6);
  std::printf("attribute pool: %zu distinct attribute sets (%.1fx sharing)\n\n",
              pool.size(), static_cast<double>(kRoutes) / pool.size());

  // Churn replay on the sim clock: re-announcements with perturbed
  // attributes, one every kChurnStepNs of virtual time (the observed 21.8
  // updates/s mean), so per-neighbor rates in the snapshot are exact.
  auto churn = inet::generate_churn(feed, kChurnUpdates, 7);
  SimTime churn_begin = loop.now();
  registry.trace().emit(churn_begin, "amsix", "churn_start",
                        {{"updates", std::to_string(kChurnUpdates)}});
  auto churn_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < churn.size(); ++i) {
    std::size_t f = i % kFeeds;
    bgp::PeerId peer = static_cast<bgp::PeerId>(1 + f);
    if (churn[i].withdraw) {
      loc_rib.withdraw(churn[i].prefix, peer, 0);
      fibs[f].remove(churn[i].prefix);
    } else {
      bgp::RibRoute route;
      route.prefix = churn[i].prefix;
      route.peer = peer;
      route.attrs = pool.intern(churn[i].attrs);
      loc_rib.update(route);
      fibs[f].insert(ip::Route{churn[i].prefix, churn[i].attrs.next_hop,
                               static_cast<int>(peer), 0});
    }
    updates_by_neighbor[f]->inc();
    loop.run_until(churn_begin + Duration::nanos(
                                     kChurnStepNs * static_cast<std::int64_t>(i + 1)));
  }
  double churn_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - churn_start)
                       .count();
  Duration churn_window = loop.now() - churn_begin;
  registry.trace().emit(loop.now(), "amsix", "churn_done",
                        {{"window_s", std::to_string(churn_window.ns() /
                                                     1'000'000'000)}});
  double per_update = churn_s / kChurnUpdates;
  double capacity = 1.0 / per_update;

  // Per-neighbor update rates over the churn window, in integer
  // milli-updates/s so the snapshot stays byte-identical across runs.
  for (std::size_t f = 0; f < kFeeds; ++f) {
    std::int64_t rate_milli =
        static_cast<std::int64_t>(updates_by_neighbor[f]->value()) * 1'000'000 /
        (churn_window.ns() / 1'000'000);
    registry.gauge("amsix_update_rate_milli_per_s",
                   {{"neighbor", kNeighborNames[f]}})
        ->set(rate_milli);
  }

  // Drive the enforcement chain so verdict counts appear in the snapshot.
  enforce::ControlPlaneEnforcer control;
  control.install_default_rules({47065, 47064});
  replay_enforcement(control, loop);

  // Memory accounting as gauges: one snapshot carries update rates,
  // verdicts, and FIB shared/flat bytes together.
  auto i64 = [](std::size_t v) { return static_cast<std::int64_t>(v); };
  registry.gauge("amsix_routes")->set(i64(kRoutes));
  registry.gauge("amsix_attr_pool_sets")->set(i64(pool.size()));
  registry.gauge("amsix_rib_bytes")->set(i64(rib_bytes));
  registry.gauge("amsix_fib_shared_bytes")->set(i64(fib_set.memory_bytes()));
  registry.gauge("amsix_fib_flat_bytes")
      ->set(i64(fib_set.flat_equivalent_bytes()));
  registry.gauge("amsix_fib_routes")->set(i64(fib_set.route_count()));

  std::printf("churn processing: %.1f us/update -> capacity %.0f updates/s\n",
              per_update * 1e6, capacity);
  std::printf("observed AMS-IX mean 21.8 upd/s -> %.3f%% utilization\n",
              21.8 * per_update * 100);
  std::printf("observed AMS-IX p99  400 upd/s -> %.2f%% utilization\n",
              400 * per_update * 100);
  std::printf("headroom over p99: %.0fx\n", capacity / 400.0);
  std::printf("enforcement: %llu accepted, %llu rejected, %llu transformed\n",
              static_cast<unsigned long long>(control.accepted()),
              static_cast<unsigned long long>(control.rejected()),
              static_cast<unsigned long long>(control.transformed()));

  // Deterministic exports: the default snapshot excludes wall-clock timing
  // series, so both files are byte-identical across same-seed runs.
  obs::Snapshot snap = registry.snapshot(loop.now());
  {
    std::ofstream out("BENCH_amsix_replay.obs.json");
    out << snap.to_json();
  }
  {
    std::ofstream out("BENCH_amsix_replay.trace.jsonl");
    out << registry.trace().to_jsonl();
  }
  std::printf("wrote BENCH_amsix_replay.obs.json (%zu series), "
              "BENCH_amsix_replay.trace.jsonl (%zu events)\n",
              snap.series.size(), registry.trace().size());

  benchutil::JsonReport report("amsix_replay");
  report.metric("routes", static_cast<double>(kRoutes));
  report.metric("load_seconds", load_s);
  report.metric("rib_mb", rib_bytes / 1e6);
  report.metric("fib_shared_mb", fib_shared / 1e6);
  report.metric("fib_flat_mb", fib_flat / 1e6);
  report.metric("distinct_attr_sets", static_cast<double>(pool.size()));
  report.metric("churn_us_per_update", per_update * 1e6);
  report.metric("headroom_over_p99", capacity / 400.0);
  report.metric("enforce_accepted", static_cast<double>(control.accepted()));
  report.metric("enforce_rejected", static_cast<double>(control.rejected()));
  std::printf("wrote %s\n", report.write().c_str());
  return 0;
}

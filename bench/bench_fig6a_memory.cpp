// Reproduces Figure 6a: memory consumption vs number of known routes for
// the three vBGP configurations the paper measures on BIRD:
//
//   control plane          — a single global RIB (attribute pool +
//                            Loc-RIB, whose candidates are also the
//                            per-peer Adj-RIB-In views), no FIB;
//   per-interconnection    — adds one kernel-FIB (LPM trie) entry per known
//   data plane               route, spread across per-neighbor tables, so
//                            experiments can pick any neighbor per packet;
//   ... w/ default         — additionally maintains a best-path "default"
//                            table synchronized with the decision process
//                            (unnecessary for vBGP, included for
//                            comparison, as in the paper).
//
// The data plane now lives in the shared-leaf FibSet: all per-neighbor
// tables (and the default table) are views of one deduplicated trie. The
// sweep reports both the shared (actual) bytes and the flat equivalent
// (what private per-neighbor RoutingTables would cost — the paper's literal
// per-interconnection configuration, and this repo's pre-sharing design).
//
// A second phase runs the sharing ablation the FibSet design targets: 20
// neighbors whose tables overlap ~95% (the realistic shape — most neighbors
// carry nearly the full Internet table), materialized twice — once as
// FibSet views, once as real private RoutingTables — with LPM answers
// cross-checked between the two before comparing bytes/route.
//
// The paper reports linear scaling at ~327 B/route for BIRD and concludes a
// 32 GiB server can hold ~100M routes; we report our own B/route for each
// configuration and verify linear shape. Route counts follow the paper's
// x-axis (0-4M; AMS-IX holds 2.7M routes today).
//
// Usage: bench_fig6a_memory [--mode=sweep|ablation|both]   (default: both)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bgp/rib.h"
#include "inet/route_feed.h"
#include "ip/fib_set.h"
#include "ip/routing_table.h"
#include "netbase/rand.h"

using namespace peering;

namespace {

constexpr std::size_t kNeighbors = 6;  // transit x2 + route servers x4

struct MemoryPoint {
  std::size_t routes;
  std::size_t control_plane;
  std::size_t with_fib;       // control plane + shared (deduplicated) FIB
  std::size_t with_default;   // ... + default table (extra view)
  std::size_t fib_shared;     // FibSet actual bytes
  std::size_t fib_flat;       // per-view-equivalent bytes
};

MemoryPoint measure(std::size_t route_count) {
  inet::RouteFeedConfig config;
  config.route_count = route_count;
  config.seed = 42;
  auto feed = inet::generate_feed(config);

  bgp::AttrPool pool;
  bgp::LocRib loc_rib([](bgp::PeerId) { return bgp::PeerDecisionInfo{}; });
  ip::FibSet fib_set;
  std::vector<ip::FibView> fibs;
  for (std::size_t i = 0; i < kNeighbors; ++i)
    fibs.push_back(fib_set.make_view());

  for (std::size_t i = 0; i < feed.size(); ++i) {
    const auto& route = feed[i];
    bgp::PeerId peer = static_cast<bgp::PeerId>(1 + i % kNeighbors);
    bgp::RibRoute rib_route;
    rib_route.prefix = route.prefix;
    rib_route.path_id = 0;
    rib_route.peer = peer;
    rib_route.attrs = pool.intern(route.attrs);
    loc_rib.update(rib_route);
    fibs[peer - 1].insert(
        ip::Route{route.prefix, route.attrs.next_hop, static_cast<int>(peer), 0});
  }

  MemoryPoint point;
  point.routes = route_count;
  std::size_t rib_bytes = pool.memory_bytes() + loc_rib.memory_bytes();
  point.control_plane = rib_bytes;
  point.fib_shared = fib_set.memory_bytes();
  point.fib_flat = fib_set.flat_equivalent_bytes();
  point.with_fib = rib_bytes + point.fib_shared;

  // The default table is one more view of the same set: measure the marginal
  // cost of adding it, as the paper's "w/ default" configuration does.
  {
    ip::FibView default_fib = fib_set.make_view();
    loc_rib.visit_best([&](const bgp::RibRoute& best) {
      default_fib.insert(ip::Route{best.prefix, best.attrs->next_hop,
                                   static_cast<int>(best.peer), 0});
    });
    point.with_default = rib_bytes + fib_set.memory_bytes();
  }
  return point;
}

int run_sweep(benchutil::JsonReport& report) {
  std::printf("%10s %18s %28s %30s %12s\n", "routes", "control plane (MB)",
              "per-interconn dataplane (MB)", "per-interconn w/ default (MB)",
              "fib dedup");

  std::vector<std::size_t> sweep{250'000, 500'000, 1'000'000, 2'000'000,
                                 3'000'000, 4'000'000};
  std::vector<MemoryPoint> points;
  for (std::size_t routes : sweep) {
    MemoryPoint p = measure(routes);
    points.push_back(p);
    std::printf("%10zu %18.1f %28.1f %30.1f %11.1fx\n", p.routes,
                p.control_plane / 1e6, p.with_fib / 1e6, p.with_default / 1e6,
                static_cast<double>(p.fib_flat) /
                    static_cast<double>(p.fib_shared));
  }

  // Per-route cost from the largest point (steady-state slope).
  const MemoryPoint& last = points.back();
  double per_route_cp = static_cast<double>(last.control_plane) / last.routes;
  double per_route_fib = static_cast<double>(last.with_fib) / last.routes;
  double per_route_def = static_cast<double>(last.with_default) / last.routes;
  std::printf("\nper-route cost at %zu routes: control-plane %.0f B/route, "
              "w/ data plane %.0f B/route, w/ default %.0f B/route\n",
              last.routes, per_route_cp, per_route_fib, per_route_def);
  std::printf("data-plane store: %.1f MB shared vs %.1f MB flat-equivalent\n",
              last.fib_shared / 1e6, last.fib_flat / 1e6);
  double routes_32gib = 32.0 * (1ull << 30) / per_route_fib / 1e6;
  std::printf("a 32 GiB server supports ~%.0fM routes in the vBGP "
              "configuration\n", routes_32gib);

  // Linearity check: slope between consecutive points varies < 50%.
  bool linear = true;
  for (std::size_t i = 1; i < points.size(); ++i) {
    double slope = static_cast<double>(points[i].with_fib - points[i - 1].with_fib) /
                   static_cast<double>(points[i].routes - points[i - 1].routes);
    if (slope < per_route_fib * 0.5 || slope > per_route_fib * 2.0)
      linear = false;
  }
  std::printf("linear scaling: %s\n", linear ? "yes" : "NO");

  report.metric("routes", static_cast<double>(last.routes));
  report.metric("control_plane_bytes_per_route", per_route_cp);
  report.metric("with_dataplane_bytes_per_route", per_route_fib);
  report.metric("with_default_bytes_per_route", per_route_def);
  report.metric("fib_shared_bytes", static_cast<double>(last.fib_shared));
  report.metric("fib_flat_bytes", static_cast<double>(last.fib_flat));
  report.metric("routes_in_32gib_millions", routes_32gib);
  report.metric("linear_scaling", linear ? 1 : 0);
  return 0;
}

// ---------------------------------------------------------------------------
// Sharing ablation: shared FibSet vs private per-neighbor RoutingTables.
// ---------------------------------------------------------------------------

constexpr std::size_t kAblationNeighbors = 20;
constexpr std::size_t kAblationPrefixes = 200'000;
constexpr double kAblationOverlap = 0.95;

int run_ablation(benchutil::JsonReport& report) {
  std::printf("\n=== sharing ablation: %zu neighbors, ~%.0f%% table overlap "
              "===\n", kAblationNeighbors, kAblationOverlap * 100);

  inet::RouteFeedConfig config;
  config.route_count = kAblationPrefixes;
  config.seed = 42;
  auto feed = inet::generate_feed(config);

  // Materialize the identical contents twice. Each neighbor carries every
  // prefix with probability kAblationOverlap (neighbor 0 carries all, so
  // every prefix exists somewhere), with a per-neighbor next-hop — the
  // realistic shape: same table, different gateways.
  Rng membership(1234);
  std::vector<std::vector<bool>> carries(
      kAblationNeighbors, std::vector<bool>(feed.size(), false));
  for (std::size_t i = 0; i < feed.size(); ++i)
    for (std::size_t v = 0; v < kAblationNeighbors; ++v)
      carries[v][i] = v == 0 || membership.chance(kAblationOverlap);

  ip::FibSet set;
  std::vector<ip::FibView> views;
  for (std::size_t v = 0; v < kAblationNeighbors; ++v)
    views.push_back(set.make_view());
  std::vector<ip::RoutingTable> tables(kAblationNeighbors);

  std::size_t total_routes = 0;
  for (std::size_t i = 0; i < feed.size(); ++i) {
    for (std::size_t v = 0; v < kAblationNeighbors; ++v) {
      if (!carries[v][i]) continue;
      ip::Route r{feed[i].prefix,
                  Ipv4Address(static_cast<std::uint32_t>(0x0a000001 + v)),
                  static_cast<int>(v), 0};
      views[v].insert(r);
      tables[v].insert(r);
      ++total_routes;
    }
  }

  // Differential spot-check before trusting the numbers: both stores must
  // give identical LPM answers for every neighbor.
  Rng probe_rng(99);
  std::size_t checked = 0;
  for (int p = 0; p < 20'000; ++p) {
    Ipv4Address probe(static_cast<std::uint32_t>(probe_rng.next()));
    std::size_t v = probe_rng.below(kAblationNeighbors);
    auto got = views[v].lookup(probe);
    auto want = tables[v].lookup(probe);
    if (got.has_value() != want.has_value() ||
        (got && (got->prefix != want->prefix || got->next_hop != want->next_hop))) {
      std::fprintf(stderr, "LPM MISMATCH view %zu probe %s\n", v,
                   probe.str().c_str());
      return 1;
    }
    ++checked;
  }

  std::size_t shared_bytes = set.memory_bytes();
  std::size_t flat_bytes = 0;
  for (const auto& t : tables) flat_bytes += t.memory_bytes();
  double shared_per_route =
      static_cast<double>(shared_bytes) / static_cast<double>(total_routes);
  double flat_per_route =
      static_cast<double>(flat_bytes) / static_cast<double>(total_routes);
  double dedup = static_cast<double>(flat_bytes) /
                 static_cast<double>(shared_bytes);

  std::printf("%zu routes across %zu neighbors (%zu unique prefixes), "
              "%zu LPM probes cross-checked\n", total_routes,
              kAblationNeighbors, set.unique_prefix_count(), checked);
  std::printf("  shared (FibSet):        %8.1f MB  (%.1f B/route)\n",
              shared_bytes / 1e6, shared_per_route);
  std::printf("  flat (RoutingTables):   %8.1f MB  (%.1f B/route)\n",
              flat_bytes / 1e6, flat_per_route);
  std::printf("  dedup factor:           %8.1fx  (target >= 4x)\n", dedup);

  report.metric("ablation_neighbors", static_cast<double>(kAblationNeighbors));
  report.metric("ablation_routes", static_cast<double>(total_routes));
  report.metric("ablation_shared_bytes_per_route", shared_per_route);
  report.metric("ablation_flat_bytes_per_route", flat_per_route);
  report.metric("ablation_dedup_factor", dedup);
  report.metric("ablation_lpm_checked", static_cast<double>(checked));
  return dedup >= 4.0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "both";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--mode=", 7) == 0) mode = argv[i] + 7;
  }

  std::printf("=== Figure 6a: memory vs known routes ===\n");
  std::printf("(paper: BIRD scales linearly at ~327 B/route; a 32 GiB server"
              " supports ~100M routes)\n\n");

  benchutil::JsonReport report("fig6a_memory");
  int rc = 0;
  if (mode == "sweep" || mode == "both") rc |= run_sweep(report);
  if (mode == "ablation" || mode == "both") rc |= run_ablation(report);
  std::printf("wrote %s\n", report.write().c_str());
  return rc;
}

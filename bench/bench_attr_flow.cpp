// Measures the interned copy-on-write attribute flow end-to-end: one
// AttrsPtr travels decode -> import hook -> Loc-RIB -> export hook -> wire,
// cloned only at mutation points and serialized once per (attribute set,
// codec options) by the pool's encode cache.
//
// Reported:
//   - per-update cost of the single-router vBGP pipeline (the Figure 6b
//     quantity the tentpole optimizes; seed baseline 15.6 us/update);
//   - per-update cost as the ADD-PATH experiment fan-out grows over
//     {0, 1, 2, 4, 8} all-paths sessions (the multiplexing overhead vBGP
//     pays for parallel experiments);
//   - pool occupancy and hit rates after the run, showing how many
//     attribute sets the whole pipeline actually materializes.
//
// Results are mirrored into BENCH_attr_flow.json (see bench_util.h).
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "enforce/control_policy.h"
#include "enforce/data_enforcer.h"
#include "vbgp/vrouter.h"

using namespace peering;

namespace {

constexpr std::size_t kUpdates = 20'000;

struct FlowResult {
  double us_per_update = 0;
  std::size_t pool_size = 0;
  double intern_hit_rate = 0;
  double encode_hit_rate = 0;
  double pool_kib = 0;
  double encode_cache_kib = 0;
};

FlowResult measure(int experiment_count) {
  sim::EventLoop loop;
  vbgp::VRouterConfig config;
  config.name = "flow";
  config.pop_id = "flow01";
  config.asn = 47065;
  config.router_id = Ipv4Address(10, 255, 7, 1);
  config.router_seed = 3;
  vbgp::VRouter router(&loop, config);

  enforce::ControlPlaneEnforcer control;
  control.install_default_rules({47065, 47064});
  enforce::DataPlaneEnforcer data;
  router.set_control_enforcer(&control);
  router.set_data_enforcer(&data);

  bgp::PeerId neighbor = router.add_neighbor(
      {.name = "n1", .asn = 65001, .local_address = Ipv4Address(10, 0, 1, 1),
       .remote_address = Ipv4Address(10, 0, 1, 2), .interface = 0,
       .global_id = 1});

  std::vector<std::unique_ptr<benchutil::WirePeer>> experiments;
  for (int i = 0; i < experiment_count; ++i) {
    std::string exp_id = "x";
    exp_id += std::to_string(i);
    auto peer = router.add_experiment(
        {.experiment_id = exp_id,
         .asn = 61574u + static_cast<bgp::Asn>(i),
         .local_address = Ipv4Address(100, 64, static_cast<std::uint8_t>(i), 1),
         .remote_address = Ipv4Address(100, 64, static_cast<std::uint8_t>(i), 2),
         .interface = 10 + i});
    auto streams = sim::StreamChannel::make(&loop, Duration::micros(10));
    router.speaker().connect_peer(peer, streams.a);
    experiments.push_back(std::make_unique<benchutil::WirePeer>(
        &loop, streams.b, 61574u + static_cast<bgp::Asn>(i),
        Ipv4Address(9, 9, 9, static_cast<std::uint8_t>(i)), true));
  }

  auto streams = sim::StreamChannel::make(&loop, Duration::micros(10));
  router.speaker().connect_peer(neighbor, streams.a);
  benchutil::WirePeer source(&loop, streams.b, 65001, Ipv4Address(2, 2, 2, 2),
                             false);
  loop.run_for(Duration::seconds(2));
  if (!source.established()) {
    std::fprintf(stderr, "session failed to establish\n");
    return {};
  }

  inet::RouteFeedConfig feed_config;
  feed_config.route_count = kUpdates;
  feed_config.neighbor_asn = 65001;
  feed_config.seed = 11;
  auto feed = inet::generate_feed(feed_config);
  auto wires = benchutil::encode_feed(feed, source.tx_options());

  auto start = std::chrono::steady_clock::now();
  for (const auto& wire : wires) source.send_raw(wire);
  // Drain short of the 90 s hold-timer expiry: the wire peers never send
  // keepalives, and letting the sessions tear down would sweep the pool
  // before the steady-state readout below.
  loop.run_for(Duration::seconds(60));
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const bgp::AttrPool& pool = router.speaker().attr_pool();
  FlowResult result;
  result.us_per_update = elapsed / kUpdates * 1e6;
  result.pool_size = pool.size();
  result.intern_hit_rate = pool.stats().intern_hit_rate();
  result.encode_hit_rate = pool.stats().encode_hit_rate();
  result.pool_kib = pool.memory_bytes() / 1024.0;
  result.encode_cache_kib = pool.encode_cache_bytes() / 1024.0;
  return result;
}

}  // namespace

int main() {
  std::printf("=== Interned attribute flow (%zu updates per point) ===\n\n",
              kUpdates);

  benchutil::JsonReport report("attr_flow");
  report.note("seed_baseline",
              "accept 4.3 us, single-router 15.6 us, multi-router 17.9 us "
              "per update");

  // The Figure 6b single-router configuration (2 experiment sessions).
  FlowResult single = measure(2);
  std::printf("single-router vBGP (2 experiments): %.1f us/update "
              "(seed baseline 15.6)\n", single.us_per_update);
  std::printf("  pool %zu sets / %.0f KiB, intern hit %.1f%%, encode cache "
              "%.0f KiB hit %.1f%%\n\n",
              single.pool_size, single.pool_kib,
              single.intern_hit_rate * 100, single.encode_cache_kib,
              single.encode_hit_rate * 100);
  report.metric("single_router_us_per_update", single.us_per_update);
  report.metric("seed_single_router_us_per_update", 15.6);
  report.metric("pool_size", static_cast<double>(single.pool_size));
  report.metric("intern_hit_rate", single.intern_hit_rate);
  report.metric("encode_hit_rate", single.encode_hit_rate);
  report.metric("encode_cache_kib", single.encode_cache_kib);

  // Fan-out cost curve (key names as in bench/baselines/BENCH_attr_flow.json).
  std::printf("%16s %20s\n", "experiments", "us per update");
  for (int n : {0, 1, 2, 4, 8}) {
    FlowResult r = measure(n);
    std::printf("%16d %20.1f%s\n", n, r.us_per_update,
                n == 0 ? "  (no fan-out baseline)" : "");
    report.metric("encode_cache_on_" + std::to_string(n) + "_us",
                  r.us_per_update);
  }

  std::printf("wrote %s\n", report.write().c_str());
  return 0;
}

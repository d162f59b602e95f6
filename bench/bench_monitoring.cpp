// Monitoring-plane benchmark: a four-PoP eBGP chain with one BMP-style
// MonitorSession per hop, a shared MonitoringStation, and a
// PropagationTracer stamping every injected announcement at the origin.
// Reports end-to-end propagation-latency percentiles (time-to-Loc-RIB
// across all hops, extracted from the deterministic sim-time histograms)
// plus monitoring-stream volume — all exact-gateable, because every number
// is a pure function of the seeded feed and the event loop.
//
// Correctness self-check (running this binary is itself a test): for each
// seed, the merged station JSONL, the per-hop binary BMP streams, and a
// set of looking-glass dumps must be byte-identical between two runs of
// the same seed. A divergence exits non-zero — this is the monitoring
// plane's determinism contract from DESIGN.md, enforced on every CI run.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bgp/speaker.h"
#include "mon/looking_glass.h"
#include "mon/monitor.h"
#include "mon/propagation.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/stream.h"

using namespace peering;

namespace {

constexpr int kHops = 4;
constexpr std::size_t kRoutes = 1024;
constexpr std::size_t kWave = 64;  // prefixes injected per sim event

struct RunResult {
  std::string fingerprint;  // station JSONL + binary streams + LG dumps
  std::size_t station_records = 0;
  std::uint64_t dropped = 0;
  std::size_t stream_bytes = 0;
  std::uint64_t locrib_samples = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p90_ns = 0;
  std::uint64_t p99_ns = 0;
  std::string prometheus;
};

std::string hex(const Bytes& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

RunResult run(std::uint64_t seed) {
  obs::Registry registry(true);
  obs::Scope scope(&registry);
  sim::EventLoop loop;

  // pop01 -> pop02 -> pop03 -> pop04, eBGP, increasing link latency and
  // MRAI on the middle hops so flush batching shapes the latency tail.
  std::vector<std::unique_ptr<bgp::BgpSpeaker>> pops;
  for (int i = 0; i < kHops; ++i) {
    std::string pop_name = "pop0";
    pop_name += std::to_string(i + 1);
    pops.push_back(std::make_unique<bgp::BgpSpeaker>(
        &loop, pop_name,
        static_cast<bgp::Asn>(65001 + i),
        Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1))));
  }
  const Duration latency[] = {Duration::millis(1), Duration::millis(5),
                              Duration::millis(10)};
  const Duration mrai[] = {Duration(), Duration::millis(200),
                           Duration::millis(500)};
  for (int i = 0; i + 1 < kHops; ++i) {
    auto a = static_cast<std::uint8_t>(i);
    std::string down_name = "to-pop0";
    down_name += std::to_string(i + 2);
    std::string up_name = "to-pop0";
    up_name += std::to_string(i + 1);
    bgp::PeerId down = pops[static_cast<std::size_t>(i)]->add_peer(
        {.name = down_name,
         .peer_asn = static_cast<bgp::Asn>(65002 + i),
         .local_address = Ipv4Address(10, 1, a, 1),
         .peer_address = Ipv4Address(10, 1, a, 2),
         .mrai = mrai[i]});
    bgp::PeerId up = pops[static_cast<std::size_t>(i + 1)]->add_peer(
        {.name = up_name,
         .peer_asn = static_cast<bgp::Asn>(65001 + i),
         .local_address = Ipv4Address(10, 1, a, 2),
         .peer_address = Ipv4Address(10, 1, a, 1)});
    auto pair = sim::StreamChannel::make(&loop, latency[i]);
    pops[static_cast<std::size_t>(i)]->connect_peer(down, pair.a);
    pops[static_cast<std::size_t>(i + 1)]->connect_peer(up, pair.b);
  }

  mon::MonitoringStation station;
  mon::PropagationTracer tracer;
  std::vector<std::unique_ptr<mon::MonitorSession>> monitors;
  for (auto& pop : pops) {
    auto session = std::make_unique<mon::MonitorSession>(&loop, pop.get());
    session->set_station(&station);
    session->set_tracer(&tracer);
    monitors.push_back(std::move(session));
  }
  monitors[1]->enable_stats_reports(Duration::millis(500));

  loop.run_for(Duration::seconds(5));

  // Inject seeded prefixes at the origin PoP in fixed-size waves, stamping
  // each announcement as it enters the system.
  const auto base = static_cast<std::uint8_t>(seed & 0x7f);
  std::size_t injected = 0;
  while (injected < kRoutes) {
    for (std::size_t i = 0; i < kWave && injected < kRoutes; ++i, ++injected) {
      Ipv4Prefix prefix(
          Ipv4Address(base, static_cast<std::uint8_t>(injected >> 8),
                      static_cast<std::uint8_t>(injected & 0xff), 0),
          24);
      tracer.stamp_origin(prefix, loop.now());
      bgp::PathAttributes attrs;
      attrs.next_hop = Ipv4Address(10, 0, 0, 1);
      pops[0]->originate(prefix, attrs);
    }
    loop.run_for(Duration::millis(20));
  }
  loop.run_for(Duration::seconds(10));  // settle MRAI + stats reports

  RunResult result;
  std::ostringstream fp;
  fp << station.to_jsonl() << "#binary\n";
  for (auto& session : monitors) {
    Bytes stream = session->encode();
    result.stream_bytes += stream.size();
    result.dropped += session->dropped();
    fp << session->speaker_name() << ' ' << hex(stream) << '\n';
  }
  fp << "#looking-glass\n";
  for (auto& pop : pops) {
    mon::LookingGlass glass(pop.get());
    fp << glass.query("lpm " + std::to_string(base) + ".0.0.1");
    fp << glass.query("explain " + std::to_string(base) + ".0.0.0/24");
  }
  {
    mon::LookingGlass glass(pops[kHops - 1].get());
    fp << glass.query("adj-in to-pop03");
  }
  {
    mon::LookingGlass glass(pops[0].get());
    fp << glass.query("adj-out to-pop02");
  }
  result.fingerprint = fp.str();
  result.station_records = station.record_count();
  result.locrib_samples = tracer.locrib_samples();
  obs::Histogram* e2e = tracer.locrib_aggregate();
  result.p50_ns = e2e->quantile(0.50);
  result.p90_ns = e2e->quantile(0.90);
  result.p99_ns = e2e->quantile(0.99);
  result.prometheus = registry.snapshot(loop.now()).to_prometheus();
  return result;
}

}  // namespace

int main() {
  std::printf("=== monitoring plane: %d-hop chain, %zu routes ===\n", kHops,
              kRoutes);

  bool identical = true;
  RunResult reference;
  for (std::uint64_t seed : {11ull, 23ull}) {
    RunResult first = run(seed);
    RunResult second = run(seed);
    bool match = first.fingerprint == second.fingerprint;
    identical = identical && match;
    std::printf(
        "  seed %llu: %zu station records, %zu stream bytes, "
        "e2e locrib p50=%llu us p90=%llu us p99=%llu us, same-seed rerun %s\n",
        static_cast<unsigned long long>(seed), first.station_records,
        first.stream_bytes,
        static_cast<unsigned long long>(first.p50_ns / 1000),
        static_cast<unsigned long long>(first.p90_ns / 1000),
        static_cast<unsigned long long>(first.p99_ns / 1000),
        match ? "IDENTICAL" : "DIVERGED");
    if (seed == 11) reference = first;
  }

  // Prometheus text for the CI linter: the full monitored-run exposition.
  {
    std::ofstream out("mon_metrics.prom");
    out << reference.prometheus;
    std::printf("wrote mon_metrics.prom (%zu bytes)\n",
                reference.prometheus.size());
  }

  benchutil::JsonReport report("monitoring");
  report.metric("routes_injected", static_cast<double>(kRoutes));
  report.metric("station_records",
                static_cast<double>(reference.station_records));
  report.metric("stream_bytes", static_cast<double>(reference.stream_bytes));
  report.metric("records_dropped", static_cast<double>(reference.dropped));
  report.metric("locrib_samples",
                static_cast<double>(reference.locrib_samples));
  report.metric("e2e_locrib_p50_ns", static_cast<double>(reference.p50_ns));
  report.metric("e2e_locrib_p90_ns", static_cast<double>(reference.p90_ns));
  report.metric("e2e_locrib_p99_ns", static_cast<double>(reference.p99_ns));
  report.metric("stream_identical_same_seed", identical ? 1 : 0);
  std::printf("wrote %s\n", report.write().c_str());

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: monitoring stream diverged between same-seed runs\n");
    return 1;
  }
  return 0;
}

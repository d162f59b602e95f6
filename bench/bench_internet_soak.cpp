// Internet-scale soak (ISSUE 10): a full synthetic Internet table —
// realistic prefix-length mix, Zipf origins, measured community carriage —
// replayed into the backbone fabric at the paper's 13-PoP footprint, then
// churned continuously for a simulated hour: beacon announce/withdraw
// waves, prefix flap storms composed with backbone session flaps, and
// steady background noise.
//
// Self-checks (exit non-zero on failure):
//  * both worlds quiesce (initial load and post-churn);
//  * the churned world's Loc-RIB at EVERY PoP equals a fresh-converged
//    reference world that saw no churn and no faults, attribute content
//    included (faults::InvariantChecker::diff_locrib) — the churn schedule
//    is closed, so any residue is a convergence bug.
//
// Gated metrics (BENCH_internet_soak.json): time-to-Loc-RIB p50/p99 and
// time-to-FIB p99 (sim-time, deterministic), MRAI flush batching
// efficiency, export-group log depth p99, full-resync counts, and peak RSS
// (a `max` ceiling — see tools/bench_check.py). The committed baseline
// corresponds to the CI invocation (see ci/run.sh); the no-argument run is
// the full-scale workload EXPERIMENTS.md reports.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "faults/invariants.h"
#include "inet/route_feed.h"
#include "inet/soak.h"
#include "platform/footprint.h"

namespace {

using namespace peering;

std::vector<std::string> pop_names(std::size_t count) {
  std::vector<std::string> names;
  const auto& footprint = platform::footprint_pops();
  for (std::size_t i = 0; i < count; ++i) {
    if (i < footprint.size()) {
      names.emplace_back(footprint[i].id);
    } else {
      names.push_back("pop" + std::to_string(i));
    }
  }
  return names;
}

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  // Line-buffered even into a pipe or file: a run that dies (say, of
  // std::bad_alloc at full scale) keeps every phase line it printed.
  std::setvbuf(stdout, nullptr, _IOLBF, BUFSIZ);
  std::size_t routes = 1'000'000;
  std::size_t pops = 13;
  std::int64_t duration_s = 3600;
  int flaps = 6;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--routes") == 0) {
      routes = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--pops") == 0) {
      pops = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--duration-s") == 0) {
      duration_s = std::strtoll(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--flaps") == 0) {
      flaps = std::atoi(argv[i + 1]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--routes N] [--pops N] [--duration-s N] "
                   "[--flaps N]\n",
                   argv[0]);
      return 2;
    }
  }

  soak::SoakConfig config;
  config.pops = pop_names(pops);
  config.table.route_count = routes;
  config.churn.duration = Duration::seconds(duration_s);
  config.session_flaps = flaps;

  std::printf("internet soak: %zu routes x %zu PoPs, %llds simulated churn, "
              "%d session flaps\n",
              routes, pops, static_cast<long long>(duration_s), flaps);

  auto wall_start = std::chrono::steady_clock::now();
  inet::FullTableStats table_stats;
  std::vector<inet::FeedRoute> feed =
      inet::generate_full_table(config.table, &table_stats);
  inet::ChurnSchedule schedule =
      inet::generate_churn_schedule(feed.size(), config.churn);
  std::printf("  generated: %zu routes (%zu origins, %zu aggregates, %zu "
              "attr sets), %zu churn events (%zu announce / %zu withdraw) "
              "[%.1fs]\n",
              feed.size(), table_stats.origin_count,
              table_stats.aggregate_routes, table_stats.distinct_attr_sets,
              schedule.events.size(), schedule.announces, schedule.withdraws,
              wall_seconds_since(wall_start));

  // The churned world.
  auto soak_start = std::chrono::steady_clock::now();
  soak::SoakHarness world(config, &feed, &schedule);
  world.run();
  const double soak_wall_s = wall_seconds_since(soak_start);
  const soak::SoakReport r = world.report();
  std::printf("  soak world: %zu sessions up, converged initial=%d "
              "post-churn=%d, %llu faults [%.1fs]\n",
              world.established_sessions(), r.converged_initial ? 1 : 0,
              r.converged_post_churn ? 1 : 0,
              static_cast<unsigned long long>(r.faults_scheduled),
              soak_wall_s);

  // Peak RSS is sampled before the reference world exists, so the ceiling
  // describes the soak workload itself.
  const std::size_t peak_rss = benchutil::peak_rss_bytes();

  // The fresh-converged reference: same feed, same fabric, no churn, no
  // faults. The closed schedule means the churned world must land exactly
  // here.
  soak::SoakConfig ref_config = config;
  ref_config.churn_enabled = false;
  ref_config.session_flaps = 0;
  soak::SoakHarness reference(ref_config, &feed, &schedule);
  reference.run();
  const soak::SoakReport ref_report = reference.report();

  faults::InvariantReport diff;
  for (std::size_t p = 0; p < world.pop_count(); ++p) {
    faults::InvariantChecker::diff_locrib(world.speaker(p),
                                          reference.speaker(p),
                                          "pop:" + config.pops[p], diff);
  }
  const bool matches = diff.ok() && diff.checks > 0;
  std::printf("  post-churn vs fresh reference: %s (%llu checks)\n",
              matches ? "IDENTICAL" : diff.str().c_str(),
              static_cast<unsigned long long>(diff.checks));

  std::printf("  time-to-Loc-RIB p50 %.3fms p99 %.3fms (%llu samples), "
              "time-to-FIB p99 %.3fms\n",
              r.ttl_p50_ns / 1e6, r.ttl_p99_ns / 1e6,
              static_cast<unsigned long long>(r.locrib_samples),
              r.ttf_p99_ns / 1e6);
  std::printf("  MRAI: %llu drain events serving %llu peer flushes (%.1f "
              "peers/flush), %llu wire updates, %llu full resyncs, log depth "
              "p99 %llu\n",
              static_cast<unsigned long long>(r.mrai_flushes),
              static_cast<unsigned long long>(r.mrai_peer_flushes),
              r.mrai_batch_mean,
              static_cast<unsigned long long>(r.updates_out),
              static_cast<unsigned long long>(r.full_resyncs),
              static_cast<unsigned long long>(r.export_log_depth_p99));
  std::printf("  memory: RIBs %.0f MB, shared FIBs %.0f MB, peak RSS %.0f MB\n",
              r.rib_memory_bytes / 1e6, r.fib_memory_bytes / 1e6,
              peak_rss / 1e6);

  benchutil::JsonReport report("internet_soak");
  report.metric("routes", static_cast<double>(r.routes));
  report.metric("pops", static_cast<double>(r.pops));
  report.metric("origins", static_cast<double>(table_stats.origin_count));
  report.metric("distinct_attr_sets",
                static_cast<double>(table_stats.distinct_attr_sets));
  report.metric("churn_events", static_cast<double>(r.churn_events));
  report.metric("churn_announces", static_cast<double>(r.churn_announces));
  report.metric("churn_withdraws", static_cast<double>(r.churn_withdraws));
  report.metric("faults_scheduled", static_cast<double>(r.faults_scheduled));
  report.metric("converged", (r.converged_initial && r.converged_post_churn &&
                              ref_report.converged_initial)
                                 ? 1
                                 : 0);
  report.metric("post_churn_matches_reference", matches ? 1 : 0);
  report.metric("locrib_samples", static_cast<double>(r.locrib_samples));
  report.metric("fib_samples", static_cast<double>(r.fib_samples));
  report.metric("ttl_p50_ns", static_cast<double>(r.ttl_p50_ns));
  report.metric("ttl_p99_ns", static_cast<double>(r.ttl_p99_ns));
  report.metric("ttf_p99_ns", static_cast<double>(r.ttf_p99_ns));
  report.metric("mrai_flushes", static_cast<double>(r.mrai_flushes));
  report.metric("mrai_peer_flushes",
                static_cast<double>(r.mrai_peer_flushes));
  report.metric("mrai_batch_mean", r.mrai_batch_mean);
  report.metric("updates_out", static_cast<double>(r.updates_out));
  report.metric("full_resyncs", static_cast<double>(r.full_resyncs));
  report.metric("export_log_depth_p99",
                static_cast<double>(r.export_log_depth_p99));
  report.metric("monitor_records", static_cast<double>(r.monitor_records));
  report.metric("monitor_dropped", static_cast<double>(r.monitor_dropped));
  report.metric("rib_memory_mb", r.rib_memory_bytes / 1e6);
  report.metric("fib_memory_mb", r.fib_memory_bytes / 1e6);
  report.metric("peak_rss_mb", peak_rss / 1e6);
  report.metric("soak_wall_s", soak_wall_s);
  std::printf("wrote %s\n", report.write().c_str());

  if (!r.converged_initial || !r.converged_post_churn ||
      !ref_report.converged_initial) {
    std::fprintf(stderr, "FAIL: a world did not quiesce\n");
    return 1;
  }
  if (!matches) {
    std::fprintf(stderr,
                 "FAIL: post-churn state diverged from the fresh-converged "
                 "reference: %s\n",
                 diff.str().c_str());
    return 1;
  }
  return 0;
}

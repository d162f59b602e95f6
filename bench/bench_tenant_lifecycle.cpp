// Tenant-lifecycle benchmark (ISSUE 9): the multi-tenant control plane at
// 1000-experiment scale. Onboards 1000 intent-compiled tenants onto the full
// 13-PoP footprint through the transactional orchestrator and reports:
//
//   * onboarding latency percentiles (p50/p90/p99 wall-clock — printed and
//     recorded, but NOT baseline-gated: wall time is host-dependent);
//   * deterministic fleet totals (netlink mutations, installed grants,
//     fleet fingerprint size) — exact-gated against the committed baseline,
//     because the seeded intent stream makes them pure functions of the
//     code;
//   * steady-state per-update overhead: a vBGP router processing the same
//     seeded announce/withdraw workload through its experiment session with
//     1000 resident tenant grants vs a tenantless single-grant baseline,
//     interleaved best-of-5 — the ratio must stay <= 1.10 or the binary
//     exits non-zero.
//
// Self-checks (running this binary is itself a test; any failure exits
// non-zero):
//   * all 1000 onboards succeed;
//   * an injected mid-fleet netlink failure rolls the fleet back to a
//     byte-identical state fingerprint;
//   * onboard + remove of a probe tenant restores the byte-identical
//     fingerprint (the remove/rollback contract);
//   * the steady-state overhead bound above.
//
// It also snapshots the tenant-instrumented obs registry to
// tenant_metrics.prom — 1000 tenants overflow the 256-series label cap, so
// the snapshot demonstrates the cardinality collapse and must still lint
// clean.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "enforce/control_policy.h"
#include "netbase/rand.h"
#include "obs/metrics.h"
#include "platform/configdb.h"
#include "platform/footprint.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "sim/stream.h"
#include "tenant/intent.h"
#include "tenant/orchestrator.h"
#include "vbgp/vrouter.h"

using namespace peering;

namespace {

constexpr int kTenants = 1000;
constexpr double kOverheadBound = 1.10;

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The stock footprint carries the paper's 40 /24s; 1000 single-prefix
/// tenants need a pool of at least 1000, so the bench models a grown
/// allocation out of adjacent unused space (184.160.0.0/14, disjoint from
/// the stock 184.164.224.0/19 block).
platform::PlatformModel enlarged_footprint() {
  platform::PlatformModel model = platform::build_footprint(1);
  for (int i = 0; i < kTenants; ++i) {
    model.resources.prefix_pool.push_back(
        Ipv4Prefix(Ipv4Address(184, static_cast<std::uint8_t>(160 + (i >> 8)),
                               static_cast<std::uint8_t>(i & 0xff), 0),
                   24));
  }
  return model;
}

/// Seeded intent stream: each tenant scopes 1-3 distinct PoPs drawn from the
/// footprint. Pure function of (seed, index) so every fleet total downstream
/// is deterministic.
tenant::TenantIntent make_intent(const std::vector<std::string>& pop_ids,
                                 Rng& rng, int index) {
  char id[16];
  std::snprintf(id, sizeof id, "exp%04d", index);
  tenant::TenantIntent intent;
  intent.id = id;
  intent.description = "bench tenant";
  intent.contact = std::string(id) + "@bench.example.edu";
  std::set<std::string> scoped;
  const std::size_t want = 1 + rng.below(3);
  while (scoped.size() < want)
    scoped.insert(pop_ids[rng.below(pop_ids.size())]);
  for (const std::string& pop : scoped) intent.scopes.push_back({pop, {}});
  return intent;
}

std::uint64_t percentile(std::vector<std::uint64_t> sorted, double q) {
  if (sorted.empty()) return 0;
  auto index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

// ---------------------------------------------------------------------------
// Steady-state overhead: wall time for a vBGP router to process a seeded
// announce/withdraw workload arriving over its experiment session, with the
// enforcer either tenantless (one grant) or carrying 1000 resident tenant
// grants with their per-tenant counters. Everything else is identical; the
// measured session always announces under the same grant id.

double measure_update_wall_ns(int resident_grants) {
  obs::Registry registry(true);
  obs::Scope scope(&registry);
  sim::EventLoop loop;

  enforce::ControlPlaneEnforcer enforcer;
  enforcer.install_default_rules({47065, 47064});
  for (int i = 0; i < resident_grants; ++i) {
    char id[16];
    std::snprintf(id, sizeof id, "exp%04d", i);
    enforce::ExperimentGrant grant;
    grant.experiment_id = id;
    grant.allocated_prefixes = {
        Ipv4Prefix(Ipv4Address(184, static_cast<std::uint8_t>(160 + (i >> 8)),
                               static_cast<std::uint8_t>(i & 0xff), 0),
                   24)};
    grant.allowed_origin_asns = {61574};
    grant.max_updates_per_day = 1 << 30;
    enforcer.set_grant(grant);
  }
  // The measured tenant owns a wider block so a whole /24 sweep under it is
  // accepted and fully processed.
  enforce::ExperimentGrant measured;
  measured.experiment_id = "exp0500";
  measured.allocated_prefixes = {pfx("184.128.0.0/16")};
  measured.allowed_origin_asns = {61574};
  measured.max_updates_per_day = 1 << 30;
  enforcer.set_grant(measured);

  vbgp::VRouter mux(&loop, {.name = "mux",
                            .pop_id = "bench01",
                            .asn = 47065,
                            .router_id = Ipv4Address(10, 255, 9, 1),
                            .router_seed = 9});
  mux.set_control_enforcer(&enforcer);
  sim::LinkConfig link_config;
  link_config.name = "l-x1";
  sim::Link l_x1(&loop, link_config);
  int if_x1 = mux.add_attached_interface("x1", MacAddress::from_id(0xFB000001),
                                         {Ipv4Address(100, 64, 0, 1), 24},
                                         l_x1, true, true);
  bgp::PeerId peer_x1 =
      mux.add_experiment({.experiment_id = "exp0500",
                          .asn = 61574,
                          .local_address = Ipv4Address(100, 64, 0, 1),
                          .remote_address = Ipv4Address(100, 64, 0, 2),
                          .interface = if_x1});

  bgp::BgpSpeaker x1(&loop, "x1", 61574, Ipv4Address(9, 9, 9, 1));
  bgp::PeerId x1_side =
      x1.add_peer({.name = "mux",
                   .peer_asn = 47065,
                   .local_address = Ipv4Address(100, 64, 0, 2),
                   .peer_address = Ipv4Address(100, 64, 0, 1),
                   .addpath = bgp::AddPathMode::kBoth});
  auto pair = sim::StreamChannel::make(&loop, Duration::millis(1));
  mux.speaker().connect_peer(peer_x1, pair.a);
  x1.connect_peer(x1_side, pair.b);
  loop.run_for(Duration::seconds(5));

  // Measured region: four announce/withdraw sweeps of 256 prefixes, every
  // one passing the enforcement hot path and full update processing.
  bgp::PathAttributes attrs;
  const std::uint64_t begin = wall_ns();
  for (int sweep = 0; sweep < 4; ++sweep) {
    for (int i = 0; i < 256; ++i) {
      x1.originate(Ipv4Prefix(
                       Ipv4Address(184, 128, static_cast<std::uint8_t>(i), 0),
                       24),
                   attrs);
    }
    loop.run_for(Duration::seconds(2));
    for (int i = 0; i < 256; ++i) {
      x1.withdraw_originated(Ipv4Prefix(
          Ipv4Address(184, 128, static_cast<std::uint8_t>(i), 0), 24));
    }
    loop.run_for(Duration::seconds(2));
  }
  return static_cast<double>(wall_ns() - begin);
}

}  // namespace

int main() {
  std::printf("=== tenant lifecycle: %d tenants, transactional fleet ===\n",
              kTenants);

  obs::Registry registry(true);
  obs::Scope scope(&registry);
  platform::ConfigDatabase db(enlarged_footprint());
  tenant::TenantOrchestrator orchestrator(&db);
  if (!orchestrator.register_all_pops().ok()) {
    std::fprintf(stderr, "FAIL: register_all_pops\n");
    return 1;
  }
  std::vector<std::string> pop_ids;
  for (const auto& [pop_id, pop] : db.model().pops) {
    (void)pop;
    pop_ids.push_back(pop_id);
  }

  // --- onboard 1000 seeded tenants ---------------------------------------
  Rng rng(42);
  std::vector<tenant::TenantIntent> intents;
  intents.reserve(kTenants);
  for (int i = 0; i < kTenants; ++i)
    intents.push_back(make_intent(pop_ids, rng, i));

  std::vector<std::uint64_t> onboard_ns;
  onboard_ns.reserve(kTenants);
  int failures = 0;
  const std::uint64_t onboard_begin = wall_ns();
  for (const auto& intent : intents) {
    const std::uint64_t t0 = wall_ns();
    auto result = orchestrator.onboard(intent);
    onboard_ns.push_back(wall_ns() - t0);
    if (!result.ok()) {
      ++failures;
      std::fprintf(stderr, "onboard %s failed: %s\n", intent.id.c_str(),
                   result.error().message.c_str());
    }
  }
  const double onboard_total_s =
      static_cast<double>(wall_ns() - onboard_begin) / 1e9;

  std::vector<std::uint64_t> sorted = onboard_ns;
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t p50 = percentile(sorted, 0.50);
  const std::uint64_t p90 = percentile(sorted, 0.90);
  const std::uint64_t p99 = percentile(sorted, 0.99);
  std::printf(
      "  onboarded %zu/%d tenants in %.2f s; per-onboard p50=%llu us "
      "p90=%llu us p99=%llu us\n",
      orchestrator.tenant_count(), kTenants, onboard_total_s,
      static_cast<unsigned long long>(p50 / 1000),
      static_cast<unsigned long long>(p90 / 1000),
      static_cast<unsigned long long>(p99 / 1000));

  std::uint64_t total_mutations = 0;
  std::size_t grants_installed = 0;
  for (const std::string& pop_id : pop_ids) {
    total_mutations += orchestrator.netlink(pop_id)->mutation_count();
    grants_installed += orchestrator.enforcer(pop_id)->grants().size();
  }
  const std::string loaded_fingerprint = orchestrator.fleet_state_fingerprint();
  std::printf("  fleet: %llu netlink mutations, %zu grants, %zu-byte state "
              "fingerprint\n",
              static_cast<unsigned long long>(total_mutations),
              grants_installed, loaded_fingerprint.size());

  // --- self-check: mid-fleet failure rolls back byte-identically ----------
  tenant::TenantIntent doomed = make_intent(pop_ids, rng, kTenants);
  orchestrator.netlink(doomed.scopes[0].pop_id)->fail_nth_mutation(2);
  bool rollback_ok = false;
  {
    auto result = orchestrator.onboard(doomed);
    rollback_ok = !result.ok() &&
                  orchestrator.fleet_state_fingerprint() == loaded_fingerprint;
  }
  std::printf("  rollback self-check: %s\n", rollback_ok ? "ok" : "FAILED");

  // --- self-check: onboard + remove restores byte-identical state ---------
  tenant::TenantIntent probe = make_intent(pop_ids, rng, kTenants + 1);
  bool remove_ok = false;
  {
    auto result = orchestrator.onboard(probe);
    if (result.ok() && orchestrator.remove(probe.id).ok())
      remove_ok = orchestrator.fleet_state_fingerprint() == loaded_fingerprint;
  }
  std::printf("  remove self-check: %s\n", remove_ok ? "ok" : "FAILED");

  // --- tenant-instrumented obs snapshot for the CI prometheus linter ------
  // 1000 tenants blow past the 256-series per-family label cap, so this also
  // demonstrates the cardinality collapse staying lint-clean.
  {
    std::ofstream out("tenant_metrics.prom");
    out << registry.snapshot().to_prometheus();
  }
  std::printf("  wrote tenant_metrics.prom\n");

  // --- steady-state per-update overhead, interleaved best-of-5 ------------
  double base_min = 0, loaded_min = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double base = measure_update_wall_ns(1);
    const double loaded = measure_update_wall_ns(kTenants);
    if (rep == 0 || base < base_min) base_min = base;
    if (rep == 0 || loaded < loaded_min) loaded_min = loaded;
  }
  const double ratio = loaded_min / base_min;
  const bool overhead_ok = ratio <= kOverheadBound;
  std::printf(
      "  steady-state update overhead: baseline %.2f ms, 1000-tenant %.2f ms "
      "-> ratio %.3f (bound %.2f) %s\n",
      base_min / 1e6, loaded_min / 1e6, ratio, kOverheadBound,
      overhead_ok ? "ok" : "FAILED");

  const bool onboards_ok =
      failures == 0 &&
      orchestrator.tenant_count() == static_cast<std::size_t>(kTenants);

  benchutil::JsonReport report("tenant_lifecycle");
  report.metric("tenants_onboarded",
                static_cast<double>(orchestrator.tenant_count()));
  report.metric("onboard_failures", failures);
  report.metric("fleet_pops", static_cast<double>(pop_ids.size()));
  report.metric("total_netlink_mutations",
                static_cast<double>(total_mutations));
  report.metric("grants_installed", static_cast<double>(grants_installed));
  report.metric("fleet_fingerprint_bytes",
                static_cast<double>(loaded_fingerprint.size()));
  report.metric("rollback_restores_state", rollback_ok ? 1 : 0);
  report.metric("remove_restores_state", remove_ok ? 1 : 0);
  report.metric("overhead_within_bound", overhead_ok ? 1 : 0);
  // Wall-clock figures: recorded for trend inspection, never gated.
  report.metric("onboard_p50_ns", static_cast<double>(p50));
  report.metric("onboard_p90_ns", static_cast<double>(p90));
  report.metric("onboard_p99_ns", static_cast<double>(p99));
  report.metric("steady_state_overhead_ratio", ratio);
  std::printf("wrote %s\n", report.write().c_str());

  if (!onboards_ok || !rollback_ok || !remove_ok || !overhead_ok) {
    std::fprintf(stderr, "FAIL: tenant lifecycle self-checks\n");
    return 1;
  }
  return 0;
}

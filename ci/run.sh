#!/usr/bin/env bash
# CI entry point: build the default (RelWithDebInfo) and asan-ubsan presets,
# run the full test suite on both, then regenerate the fig6a memory report
# and gate on the committed baseline (deterministic memory metrics only —
# timing metrics are too noisy for CI thresholds).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "=== configure + build: default preset ==="
cmake --preset default
cmake --build --preset default -j "$(nproc)"

echo "=== configure + build: asan-ubsan preset ==="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)"

echo "=== ctest: default preset ==="
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "=== ctest: asan-ubsan preset ==="
ctest --test-dir build-asan --output-on-failure -j "$(nproc)"

echo "=== faults-soak: chaos scenarios under 3 fixed seeds, both presets ==="
# The chaos soak re-runs every fault scenario (and the flap-storm
# differential check) per seed; the asan-ubsan pass catches lifetime bugs in
# the sever/reconnect paths that a clean run would miss.
PEERING_SOAK_SEEDS="11,23,37" ./build/tests/fault_injection_test
PEERING_SOAK_SEEDS="11,23,37" ./build-asan/tests/fault_injection_test

echo "=== example smoke: controlled hijack + ARTEMIS detection ==="
# Exits non-zero if the hijack goes undetected or the victim's
# mitigation more-specifics are not visible at the collector.
./build/examples/hijack_detection

echo "=== bench: fault recovery (self-checking determinism) ==="
# Exits non-zero if two same-seed runs diverge, so running it is the check.
(cd build/bench && ./bench_fault_recovery)

echo "=== bench regression gate: fig6a memory ==="
# The ablation cross-checks FibView vs RoutingTable LPM answers and exits
# non-zero below the 4x dedup target, so running it is itself a check.
(cd build/bench && ./bench_fig6a_memory --mode=both)
python3 tools/bench_check.py --fresh-dir build/bench \
  --metric fig6a_memory:control_plane_bytes_per_route:lower \
  --metric fig6a_memory:with_dataplane_bytes_per_route:lower \
  --metric fig6a_memory:with_default_bytes_per_route:lower \
  --metric fig6a_memory:ablation_shared_bytes_per_route:lower \
  --metric fig6a_memory:ablation_dedup_factor:higher

echo "=== bench regression gate: fig6b + attr_flow (deterministic metrics) ==="
# Absolute timings are too noisy to gate; the telemetry counters and
# attribute pool statistics are pure functions of the seeded feeds, so they
# must match the committed baselines exactly.
# New self-check: bench_fig6b_cpu times FibView (multibit index) and
# RoutingTable (binary trie walk) lookups interleaved, best of 5 rounds, and
# exits non-zero if the FibView/RoutingTable ratio exceeds 0.5. A ratio of
# two timings in one process survives host noise that absolute numbers do
# not, so running the binary is the gate.
(cd build/bench && ./bench_fig6b_cpu)
(cd build/bench && ./bench_attr_flow)
python3 tools/bench_check.py --fresh-dir build/bench \
  --metric fig6b_cpu:updates_per_measurement:exact \
  --metric fig6b_cpu:obs_updates_in:exact \
  --metric fig6b_cpu:obs_updates_out:exact \
  --metric fig6b_cpu:obs_fanout_exports:exact \
  --metric fig6b_cpu:obs_nh_rewrites:exact \
  --metric fig6b_cpu:mon_records:exact \
  --metric attr_flow:pool_size:exact \
  --metric attr_flow:intern_hit_rate:exact \
  --metric attr_flow:encode_hit_rate:exact

echo "=== bench regression gate: interning + MRAI batching ablations ==="
# Attribute-pool bytes with and without interning (and their ratio: the
# "~20x" EXPERIMENTS.md quotes) are byte accounting over a seeded feed;
# updates emitted for 300 flaps of one prefix at MRAI 0/5/30/120 s are
# sim-clock counts. All are deterministic and gated exactly.
(cd build/bench && ./bench_ablations)
python3 tools/bench_check.py --fresh-dir build/bench \
  --metric ablations:interning_with_mb:exact \
  --metric ablations:interning_without_mb:exact \
  --metric ablations:interning_ratio:exact \
  --metric ablations:mrai_0s_updates:exact \
  --metric ablations:mrai_5s_updates:exact \
  --metric ablations:mrai_30s_updates:exact \
  --metric ablations:mrai_120s_updates:exact

echo "=== bench regression gate: update-group fan-out ==="
# The binary self-checks that grouping reduces per-session export cost at
# 1000 sessions, that grouped/ungrouped send identical update counts, and
# that a 1000-member group allocates no more per UPDATE than a 500-member
# one (x1.05) (exits non-zero otherwise); the deterministic counters,
# heap allocations and executed events per UPDATE included, gate on
# baseline. The event count pins one event per drain and one per stream
# chunk.
(cd build/bench && ./bench_fanout)
python3 tools/bench_check.py --fresh-dir build/bench \
  --metric fanout:sessions_grouped_500:exact \
  --metric fanout:groups_grouped_500:exact \
  --metric fanout:updates_sent_grouped_500:exact \
  --metric fanout:sessions_ungrouped_500:exact \
  --metric fanout:groups_ungrouped_500:exact \
  --metric fanout:updates_sent_ungrouped_500:exact \
  --metric fanout:sessions_grouped_1000:exact \
  --metric fanout:groups_grouped_1000:exact \
  --metric fanout:sessions_ungrouped_1000:exact \
  --metric fanout:groups_ungrouped_1000:exact \
  --metric fanout:updates_sent_grouped_1000:exact \
  --metric fanout:updates_sent_ungrouped_1000:exact \
  --metric fanout:allocs_per_update_grouped_500:exact \
  --metric fanout:allocs_per_update_grouped_1000:exact \
  --metric fanout:allocs_per_update_ungrouped_500:exact \
  --metric fanout:allocs_per_update_ungrouped_1000:exact \
  --metric fanout:events_per_update_grouped_500:exact \
  --metric fanout:events_per_update_grouped_1000:exact \
  --metric fanout:events_per_update_ungrouped_500:exact \
  --metric fanout:events_per_update_ungrouped_1000:exact

echo "=== bench regression gate: monitoring plane ==="
# The binary exits non-zero if the monitoring streams or looking-glass
# dumps of two same-seed runs differ, so running it is the byte-identity
# check. Record/byte counts and the
# propagation-latency percentiles are sim-time quantities — deterministic,
# gated exactly. It also snapshots the monitored run's Prometheus text,
# which the linter below validates.
(cd build/bench && ./bench_monitoring)
python3 tools/bench_check.py --fresh-dir build/bench \
  --metric monitoring:routes_injected:exact \
  --metric monitoring:station_records:exact \
  --metric monitoring:stream_bytes:exact \
  --metric monitoring:records_dropped:exact \
  --metric monitoring:locrib_samples:exact \
  --metric monitoring:e2e_locrib_p50_ns:exact \
  --metric monitoring:e2e_locrib_p90_ns:exact \
  --metric monitoring:e2e_locrib_p99_ns:exact \
  --metric monitoring:stream_identical_same_seed:exact

echo "=== prometheus exposition lint: monitored-run snapshot ==="
python3 tools/prom_lint.py build/bench/mon_metrics.prom

echo "=== bench regression gate: internet soak (scaled) ==="
# A scaled-down run of the internet-scale soak (full run: 1M routes x 13
# PoPs, see EXPERIMENTS.md). The binary self-checks quiescence and that the
# churned world's Loc-RIB at every PoP equals a fresh-converged reference
# (exits non-zero otherwise). Everything on the sim clock is deterministic
# and gates exactly — including the time-to-Loc-RIB percentiles. The MRAI
# batching efficiency gates as a floor, the memory accounting with the
# usual tolerance, and peak RSS against a hard ceiling (the committed
# number is a budget, not a measurement): a memory regression at soak scale
# fails CI even when every latency metric still passes.
# NOTE: the committed baseline corresponds to THIS invocation; regenerate
# it with the same flags after intentional changes.
(cd build/bench && ./bench_internet_soak --routes 50000 --pops 3 \
  --duration-s 120 --flaps 2)
python3 tools/bench_check.py --fresh-dir build/bench \
  --metric internet_soak:routes:exact \
  --metric internet_soak:pops:exact \
  --metric internet_soak:origins:exact \
  --metric internet_soak:distinct_attr_sets:exact \
  --metric internet_soak:churn_events:exact \
  --metric internet_soak:churn_announces:exact \
  --metric internet_soak:churn_withdraws:exact \
  --metric internet_soak:faults_scheduled:exact \
  --metric internet_soak:converged:exact \
  --metric internet_soak:post_churn_matches_reference:exact \
  --metric internet_soak:locrib_samples:exact \
  --metric internet_soak:fib_samples:exact \
  --metric internet_soak:ttl_p50_ns:exact \
  --metric internet_soak:ttl_p99_ns:exact \
  --metric internet_soak:ttf_p99_ns:exact \
  --metric internet_soak:mrai_flushes:exact \
  --metric internet_soak:mrai_peer_flushes:exact \
  --metric internet_soak:mrai_batch_mean:higher \
  --metric internet_soak:updates_out:exact \
  --metric internet_soak:full_resyncs:exact \
  --metric internet_soak:export_log_depth_p99:exact \
  --metric internet_soak:monitor_records:exact \
  --metric internet_soak:monitor_dropped:exact \
  --metric internet_soak:rib_memory_mb:lower \
  --metric internet_soak:fib_memory_mb:lower \
  --metric internet_soak:peak_rss_mb:max

echo "=== bench regression gate: tenant lifecycle ==="
# The binary self-checks 1000 clean onboards, byte-identical mid-fleet
# rollback, byte-identical remove, and the <=1.10 steady-state per-update
# overhead bound (exits non-zero on any of them). The fleet totals are pure
# functions of the seeded intent stream, so they gate exactly; the
# onboarding wall-clock percentiles are recorded in the JSON but not gated.
(cd build/bench && ./bench_tenant_lifecycle)
python3 tools/bench_check.py --fresh-dir build/bench \
  --metric tenant_lifecycle:tenants_onboarded:exact \
  --metric tenant_lifecycle:onboard_failures:exact \
  --metric tenant_lifecycle:fleet_pops:exact \
  --metric tenant_lifecycle:total_netlink_mutations:exact \
  --metric tenant_lifecycle:grants_installed:exact \
  --metric tenant_lifecycle:fleet_fingerprint_bytes:exact \
  --metric tenant_lifecycle:rollback_restores_state:exact \
  --metric tenant_lifecycle:remove_restores_state:exact \
  --metric tenant_lifecycle:overhead_within_bound:exact

echo "=== prometheus exposition lint: tenant-instrumented snapshot ==="
# 1000 per-tenant label values overflow the 256-series cardinality cap; the
# collapsed exposition must still lint clean.
python3 tools/prom_lint.py build/bench/tenant_metrics.prom

echo "=== bench coverage: every baselined bench emitted fresh JSON ==="
# A bench that silently stops writing its report would otherwise pass all
# the per-metric gates above by vacuous success.
python3 tools/bench_check.py --fresh-dir build/bench --require-all-baselines

echo "=== CI: all green ==="

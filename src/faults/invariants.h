// Convergence invariant checking for fault scenarios (ISSUE 5 tentpole).
// After (or during) a fault schedule, the InvariantChecker sweeps the
// registered vBGP routers, experiment sessions, and enforcement engine and
// asserts the properties the paper's delegation design depends on:
//
//  (a) FIB liveness — no stale virtual next-hops: every per-neighbor FIB of
//      a down session is empty, every FIB route egresses via its neighbor's
//      interface, and every Loc-RIB next-hop in the virtual pools
//      (127.65/16 local, 127.127/16 global) resolves to a registered
//      vbgp::NeighborRegistry entry. Candidates from down sessions are
//      stale by definition and flagged.
//  (c) ADD-PATH fan-out — each experiment's Loc-RIB carries exactly one
//      candidate per surviving exportable path at its attached router (the
//      §3.2.1 "experiments see every path" contract, post-fault).
//  (d) Monotone counters — no obs counter series, and no enforcement
//      verdict counter, ever decreases between checkpoints.
//
// Property (b), differential recovery, is a static helper: diff_lpm()
// compares two FibViews' longest-prefix-match answers over a seeded probe
// set, so tests can hold a freshly converged reference harness against the
// post-fault one.
//
// Every sweep emits a "faults/invariant_check" trace event with its verdict
// so same-seed runs log byte-identical check sequences.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bgp/speaker.h"
#include "enforce/control_policy.h"
#include "ip/fib_set.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "vbgp/vrouter.h"

namespace peering::faults {

struct InvariantReport {
  /// Individual checks evaluated (for "the sweep actually ran" assertions).
  std::uint64_t checks = 0;
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  void merge(const InvariantReport& other);
  /// Human-readable summary: "<checks> checks, <n> violations[: ...]".
  std::string str() const;
};

class InvariantChecker {
 public:
  explicit InvariantChecker(sim::EventLoop* loop);

  /// Routers are held non-const: NeighborRegistry lookups are mutating
  /// (internal index maintenance), but checks never alter routing state.
  void add_router(vbgp::VRouter* router);

  /// `peer` is the session id on the *experiment's* speaker toward its
  /// attached router (used to skip fan-out checks while the session is
  /// re-establishing).
  void add_experiment(const std::string& name, bgp::BgpSpeaker* speaker,
                      bgp::PeerId peer, vbgp::VRouter* attached);

  void set_enforcer(const enforce::ControlPlaneEnforcer* enforcer);

  InvariantReport check_fib_liveness();
  InvariantReport check_addpath_fanout();
  InvariantReport check_monotonic_counters();
  /// All of the above, merged, plus the trace event.
  InvariantReport check_all();

  /// Differential LPM check: `got` and `want` must answer identically over
  /// a probe set of every prefix base address in either view plus
  /// `random_probes` seeded random addresses. Violations are labeled with
  /// `label`.
  static void diff_lpm(const ip::FibView& got, const ip::FibView& want,
                       std::uint64_t seed, int random_probes,
                       const std::string& label, InvariantReport& report);

  /// Differential Loc-RIB check: every candidate (and every best path) of
  /// `got`'s Loc-RIB must match `want`'s, attribute content included. Both
  /// visits emit in ascending prefix order. The internet-scale soak uses
  /// it to prove the post-churn table equals a fresh-converged reference.
  static void diff_locrib(const bgp::BgpSpeaker& got,
                          const bgp::BgpSpeaker& want,
                          const std::string& label, InvariantReport& report);

 private:
  struct Experiment {
    std::string name;
    bgp::BgpSpeaker* speaker = nullptr;
    bgp::PeerId peer = 0;
    vbgp::VRouter* attached = nullptr;
  };

  sim::EventLoop* loop_;
  obs::Registry* metrics_;
  std::vector<vbgp::VRouter*> routers_;
  std::vector<Experiment> experiments_;
  const enforce::ControlPlaneEnforcer* enforcer_ = nullptr;
  /// Last-seen counter values, keyed by "name\x1flabel=value...": the
  /// monotonicity baseline across checkpoints.
  std::map<std::string, std::int64_t> counter_baseline_;
  std::uint64_t enforcer_accepted_ = 0;
  std::uint64_t enforcer_rejected_ = 0;
  std::uint64_t enforcer_transformed_ = 0;
};

}  // namespace peering::faults

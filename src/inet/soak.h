// Internet-scale soak harness (ISSUE 10 tentpole): a full synthetic
// Internet table replayed into a multi-PoP backbone fabric, then churned
// continuously for a simulated interval — BGP-beacon waves, prefix flap
// storms (optionally composed with src/faults backbone session flaps), and
// steady background noise — with the monitoring plane attached end to end.
//
// One SoakHarness is one self-contained world: its own obs::Registry (and
// Scope), event loop, vBGP routers, backbone mesh, fault injector, feed
// speaker, per-PoP monitor sessions, station, and propagation tracer. Two
// harnesses with the same config and feed are byte-identical worlds, which
// is the whole point:
//
//  * the soak bench runs one harness with churn and one reference harness
//    without, lets both settle, and proves via
//    faults::InvariantChecker::diff_locrib that the churned world converged
//    back to exactly the fresh-converged table (the schedule is closed —
//    see inet::generate_churn_schedule);
//  * the determinism test runs the same world twice from the same seed and
//    compares Loc-RIB fingerprints, monitor-stream hashes, fault schedules,
//    and churn logs byte for byte.
//
// Scale notes: the harness never renders the full table as text. Loc-RIB
// fingerprints are streaming FNV-1a over canonical attribute encodings in
// ascending prefix order (see bgp::LocRib), and
// monitor fingerprints hash each session's bounded binary stream.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backbone/fabric.h"
#include "bgp/speaker.h"
#include "faults/injector.h"
#include "inet/route_feed.h"
#include "mon/monitor.h"
#include "mon/propagation.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "vbgp/vrouter.h"

namespace peering::soak {

struct SoakConfig {
  /// PoP identifiers; [0] hosts the feed neighbor. Size >= 2. The bench
  /// passes the platform's 13-PoP footprint; tests pass 3.
  std::vector<std::string> pops;
  inet::FullTableConfig table;
  inet::ChurnScheduleConfig churn;
  /// MRAI armed on every backbone iBGP session (both ends) — the batching
  /// knob the soak's flush-efficiency gate measures.
  Duration backbone_mrai = Duration::millis(200);
  /// Wall given to session establishment before injection starts.
  Duration establish = Duration::seconds(10);
  /// Quiescence window for settle(): converged means one full window with
  /// no update traffic anywhere (see faults::FaultInjector::await_quiescence).
  Duration settle_window = Duration::seconds(5);
  int settle_max_windows = 400;
  /// Routes injected between 20 ms loop pauses during the initial table
  /// load; the pauses let MRAI flushes interleave with injection the way
  /// arrival does on a real wire.
  std::size_t inject_batch = 4096;
  /// Backbone session flaps composed with the churn window (0 = none).
  /// Deterministically placed at fractions of churn.duration, alternating
  /// graceful CEASE and abrupt TCP reset.
  int session_flaps = 0;
  Duration session_flap_down = Duration::seconds(5);
  std::uint64_t fault_seed = 42;
  /// The reference harness sets this false: same world, no churn, no
  /// flaps — the fresh-converged table diff_locrib compares against.
  bool churn_enabled = true;
};

/// Derived, snapshot-backed results of one run().
struct SoakReport {
  std::size_t routes = 0;
  std::size_t pops = 0;
  bool converged_initial = false;
  bool converged_post_churn = true;  // stays true when churn is disabled
  std::size_t churn_events = 0;
  std::size_t churn_announces = 0;
  std::size_t churn_withdraws = 0;
  std::uint64_t faults_scheduled = 0;
  /// Propagation: time-to-Loc-RIB over every (stamped prefix, observing
  /// speaker) pair, and time-to-FIB over every observing router.
  std::uint64_t locrib_samples = 0;
  std::uint64_t fib_samples = 0;
  std::uint64_t ttl_p50_ns = 0;
  std::uint64_t ttl_p99_ns = 0;
  std::uint64_t ttf_p99_ns = 0;
  /// MRAI batching across every speaker. A "flush" is one drain event (one
  /// timer fire serving every due peer at that instant); peer_flushes is
  /// the total member flushes those events carried. The mean — peers
  /// coalesced per drain event — is the batching efficiency the bench
  /// gates (floor): it collapses toward 1.0 if flush instants stop being
  /// shared.
  std::uint64_t mrai_flushes = 0;
  std::uint64_t mrai_peer_flushes = 0;
  double mrai_batch_mean = 0.0;
  std::uint64_t updates_out = 0;
  std::uint64_t full_resyncs = 0;
  std::uint64_t export_log_depth_p99 = 0;
  std::uint64_t monitor_records = 0;
  std::uint64_t monitor_dropped = 0;
  /// Memory floor: every speaker's RIB/pool accounting plus every router's
  /// shared-FIB accounting (Figure 6a's quantity, at soak scale).
  std::size_t rib_memory_bytes = 0;
  std::size_t fib_memory_bytes = 0;
};

class SoakHarness {
 public:
  /// `feed` must outlive the harness (the bench generates it once and
  /// shares it with the reference harness). `schedule` may be null, in
  /// which case the harness generates its own from (feed size, config
  /// churn) — passing one avoids regenerating it per harness.
  SoakHarness(SoakConfig config, const std::vector<inet::FeedRoute>* feed,
              const inet::ChurnSchedule* schedule = nullptr);
  ~SoakHarness();

  SoakHarness(const SoakHarness&) = delete;
  SoakHarness& operator=(const SoakHarness&) = delete;

  /// establish + inject_table + settle [+ replay_churn + settle].
  void run();

  // Individual phases, public so tests can interleave their own checks.
  void establish();
  void inject_table();
  /// Runs until one full settle_window passes with no update traffic.
  bool settle();
  void replay_churn();

  const SoakConfig& config() const { return config_; }
  const std::vector<inet::FeedRoute>& feed() const { return *feed_; }
  const inet::ChurnSchedule& schedule() const { return *schedule_; }
  const std::string& fault_log() const { return injector_->schedule_log(); }

  sim::EventLoop& loop() { return loop_; }
  obs::Registry& registry() { return registry_; }
  mon::PropagationTracer& tracer() { return tracer_; }
  const mon::MonitoringStation& station() const { return station_; }

  std::size_t pop_count() const { return routers_.size(); }
  vbgp::VRouter& router(std::size_t pop) { return *routers_[pop]; }
  const bgp::BgpSpeaker& speaker(std::size_t pop) const {
    return const_cast<vbgp::VRouter&>(*routers_[pop]).speaker();
  }

  /// Established backbone + feed sessions (for liveness assertions).
  std::size_t established_sessions() const;

  /// Streaming FNV-1a over one PoP's Loc-RIB: every candidate and every
  /// best path in ascending prefix order, attribute content included via
  /// the canonical 4-byte-ASN wire encoding. Pipeline-shape independent.
  std::uint64_t locrib_fingerprint(std::size_t pop) const;
  /// All PoPs' fingerprints mixed in PoP order.
  std::uint64_t locrib_fingerprint() const;
  /// FNV-1a over each monitor session's binary stream + drop counter, in
  /// PoP order, then the station's arrival tally. Only meaningful compared
  /// against another run's value (no committed constant).
  std::uint64_t monitor_fingerprint() const;

  /// Snapshot-derived metrics; call after run().
  SoakReport report() const;

 private:
  void build();
  void inject_event(const inet::ChurnEvent& event);
  std::vector<bgp::BgpSpeaker*> all_speakers();

  SoakConfig config_;
  const std::vector<inet::FeedRoute>* feed_;
  inet::ChurnSchedule owned_schedule_;
  const inet::ChurnSchedule* schedule_;

  // Construction (and destruction) order matters: the registry + scope
  // must exist before anything that resolves obs handles; monitors detach
  // before their speakers die (declared after routers_, destroyed first).
  obs::Registry registry_{true};
  obs::Scope scope_{&registry_};
  sim::EventLoop loop_;
  std::vector<std::unique_ptr<vbgp::VRouter>> routers_;
  std::unique_ptr<backbone::BackboneFabric> fabric_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<bgp::BgpSpeaker> feeder_;
  bgp::PeerId feeder_peer_ = 0;  // on feeder_, toward routers_[0]
  bgp::PeerId feed_peer_ = 0;    // on routers_[0], toward feeder_
  mon::PropagationTracer tracer_;
  mon::MonitoringStation station_;
  std::vector<std::unique_ptr<mon::MonitorSession>> monitors_;

  bool converged_initial_ = false;
  bool converged_post_churn_ = true;
};

}  // namespace peering::soak

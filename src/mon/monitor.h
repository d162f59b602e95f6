// BMP-flavored (RFC 7854) route monitoring plane. A MonitorSession
// attaches to one bgp::BgpSpeaker through the MonitorTap interface and
// records a deterministic, seed-stable event stream: peer up/down
// notifications, route-monitoring records mirroring the Adj-RIB-In feed
// pre- and post-policy, and periodic per-peer statistics reports rendered
// from the obs::Snapshot API. Records can be rendered as JSON-lines or as
// a binary BMP-flavored byte stream; either rendering is byte-identical
// across same-seed runs (the speaker emits tap callbacks in a canonical
// order — see bgp::MonitorTap).
//
// The session's buffer is the only place a record lives. A
// MonitoringStation merges streams from many sessions (one per router
// across a backbone) in arrival order, playing the role RouteViews or RIPE
// RIS collectors play for the real platform (§8): it indexes the sessions'
// records rather than copying them. platform::RouteCollector archives
// through a session of its own.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bgp/speaker.h"
#include "netbase/bytes.h"
#include "netbase/time.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"

namespace peering::mon {

class MonitoringStation;
class PropagationTracer;

/// Record types, numbered as the BMP message types they mirror
/// (RFC 7854 §4: Route Monitoring = 0, Statistics Report = 1,
/// Peer Down = 2, Peer Up = 3).
enum class RecordType : std::uint8_t {
  kRouteMonitoring = 0,
  kStatsReport = 1,
  kPeerDown = 2,
  kPeerUp = 3,
};

const char* record_type_name(RecordType type);

/// One monitoring record. Cheap to buffer: attribute sets ride along as
/// interned pointers; rendering (JSONL or binary) is deferred until asked.
struct MonitorRecord {
  std::uint64_t seq = 0;  // 1-based, monotone per session
  SimTime at;
  RecordType type = RecordType::kRouteMonitoring;
  /// BMP per-peer header L flag: false = pre-policy Adj-RIB-In mirror,
  /// true = post-policy (Loc-RIB candidate view).
  bool post_policy = false;
  bool withdrawn = false;
  bgp::PeerId peer = 0;  // session peer (route records: the origin peer)
  std::uint32_t path_id = 0;
  Ipv4Prefix prefix;
  bgp::AttrsPtr attrs;  // null for withdraws and non-route records
  /// Peer-down reason / rendered stats-report body.
  std::string info;
};

class MonitorSession : public bgp::MonitorTap {
 public:
  struct Options {
    /// Record buffer bound; past it new records are dropped (and counted).
    std::size_t capacity = 1 << 16;
  };

  /// Attaches to `speaker` (one monitor per speaker; a later session
  /// displaces an earlier one). Destroy the session before the speaker.
  MonitorSession(sim::EventLoop* loop, bgp::BgpSpeaker* speaker,
                 Options options);
  MonitorSession(sim::EventLoop* loop, bgp::BgpSpeaker* speaker);
  ~MonitorSession() override;

  MonitorSession(const MonitorSession&) = delete;
  MonitorSession& operator=(const MonitorSession&) = delete;

  /// Stops observing the speaker (idempotent; also run by the destructor).
  void detach();

  const std::string& speaker_name() const { return name_; }
  const std::vector<MonitorRecord>& records() const { return records_; }
  std::uint64_t dropped() const { return dropped_; }
  /// The speaker's name for `peer` (PeerConfig::name; "local" for
  /// originated routes, the numeric id once detached).
  std::string peer_name(bgp::PeerId peer) const;

  /// Index every record this session keeps in an in-sim monitoring
  /// station as it is made (see MonitoringStation for the lifetime rule).
  void set_station(MonitoringStation* station) { station_ = station; }
  /// Feed post-policy installs into a propagation tracer (time-to-Loc-RIB).
  void set_tracer(PropagationTracer* tracer) { tracer_ = tracer; }

  /// Emits one statistics-report record per established peer every
  /// `interval`, rendered from the obs::Snapshot of the speaker's
  /// published metrics. Call once; Duration 0 disables.
  void enable_stats_reports(Duration interval);

  /// Deterministic JSON-lines rendering, one record per line.
  std::string to_jsonl() const;
  /// Binary BMP-flavored stream: per record, a common header
  /// (version=3, u32 length, u8 type) + per-peer header (u32 peer,
  /// u8 flags [bit0 = post-policy], u64 sim-ns timestamp) + a
  /// type-specific body. Route monitoring bodies carry the canonical
  /// (4-byte-ASN) attribute encoding, so the stream is codec-independent.
  Bytes encode() const;

  // bgp::MonitorTap:
  void on_peer_state(bgp::PeerId peer, bgp::SessionState state) override;
  void on_route_pre_policy(bgp::PeerId from, const bgp::NlriEntry& entry,
                           const bgp::AttrsPtr& attrs) override;
  void on_route_post_policy(const bgp::RibRoute& route,
                            bool withdrawn) override;

 private:
  /// Appends a blank record (seq/timestamp assigned, indexed in the
  /// station) or counts a drop and returns null when the buffer is at
  /// capacity. Hot callbacks fill the slot in place; cold paths go through
  /// push().
  MonitorRecord* append();
  void push(MonitorRecord record);
  void emit_stats_reports();
  void schedule_stats();

  sim::EventLoop* loop_;
  bgp::BgpSpeaker* speaker_;
  Options options_;
  std::string name_;
  std::vector<MonitorRecord> records_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dropped_ = 0;
  MonitoringStation* station_ = nullptr;
  PropagationTracer* tracer_ = nullptr;
  Duration stats_interval_;
  /// Liveness token for the recurring stats event: the scheduled lambda
  /// holds a weak_ptr, so a destroyed session simply stops the chain.
  std::shared_ptr<std::uint64_t> stats_gen_;
  obs::Counter* obs_records_;
  obs::Counter* obs_dropped_;
};

/// In-sim monitoring station: the collector end of one or more
/// MonitorSessions. It is an index, not a store: one (session, record
/// index) reference per record a session kept, in delivery order
/// (event-loop order, deterministic). A record its session dropped never
/// reaches the station, so the station has no bound or drop count of its
/// own.
///
/// Lifetime: the station reads records out of its sessions. Every owner
/// declares the station before its sessions (so it is destroyed after
/// them) and reads it only while they live.
class MonitoringStation {
 public:
  void deliver(const MonitorSession& session, std::size_t index) {
    feed_.push_back({&session, index});
  }

  std::size_t record_count() const { return feed_.size(); }

  /// Merged JSON-lines feed, arrival order, speaker-tagged.
  std::string to_jsonl() const;

 private:
  struct Ref {
    const MonitorSession* session;
    std::size_t index;
  };
  std::vector<Ref> feed_;
};

/// Renders one record as a JSON object (no trailing newline). `speaker` is
/// included when non-empty (the station's merged feed uses it).
std::string render_record_json(const MonitorRecord& record,
                               const std::string& speaker,
                               const std::string& peer_name);

}  // namespace peering::mon

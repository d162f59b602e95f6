// BgpSpeaker: a complete BGP-4 speaker — session FSMs over simulated TCP
// streams, OPEN capability negotiation (4-byte ASN, ADD-PATH), one Loc-RIB
// route store (each peer's Adj-RIB-In is a view of it) with the standard
// decision process, policy-driven export with MRAI batching, and hook
// points at import/export where vBGP interposes (next-hop rewriting,
// security enforcement).
//
// This is the role BIRD plays in the authors' deployment, and like BIRD the
// speaker is single-threaded and handles each route when it is received.
// Import runs one route at a time; export runs as serial stages:
//
//   import        — the message path parses an UPDATE, interns its
//       attributes once, and takes each NLRI to completion where it is
//       decoded: loop check, import policy, import hook, Loc-RIB update,
//       then, only if the Loc-RIB changed, the route event, the append to
//       every export group's delta log and the post-policy monitor record;
//   group eval    — peers due for an MRAI flush at the same instant drain
//       as one batch: transform + policy + export hook once per (export
//       group, prefix);
//   member classify — split horizon and the export filter per member,
//       members with identical results form one encode class;
//   encode        — Adj-RIB-Out diff and wire encode (through the AttrPool
//       encode cache) once per class;
//   transmit      — per member, ascending peer order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/message.h"
#include "bgp/policy.h"
#include "bgp/rib.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/event_loop.h"
#include "sim/stream.h"

namespace peering::bgp {

/// Session FSM states. Connect/Active are collapsed into Idle because
/// transport establishment is instantaneous in the simulator: the platform
/// hands the speaker an already-connected stream.
enum class SessionState : std::uint8_t {
  kIdle = 0,
  kOpenSent,
  kOpenConfirm,
  kEstablished,
};

const char* session_state_name(SessionState state);

/// Pseudo peer id for locally originated routes.
constexpr PeerId kLocalRoutes = 0;

/// Export-path shape of one speaker.
struct PipelineConfig {
  /// Bound on each export group's pending-export delta log; a member whose
  /// cursor falls off the trimmed end falls back to a full-table
  /// reevaluation at its next flush.
  std::size_t peer_queue_capacity = 1 << 16;
  /// Cluster sessions with identical export fingerprints into shared
  /// update groups: policy + hooks + the standard export transform run once
  /// per group, each UPDATE is encoded once per (group, attrset), and
  /// per-neighbor next-hops are spliced into the cached template at send
  /// time. With false every session gets a singleton group — the escape
  /// hatch the grouped-vs-ungrouped differential drives. Both settings run
  /// the same machinery and must stay byte-identical on the wire.
  bool group_exports = true;
};

/// Passive monitoring tap, BMP-flavored (RFC 7854): the monitoring plane
/// (src/mon) implements this and attaches with BgpSpeaker::set_monitor.
/// Declared here so bgp does not depend on mon. Callback order:
///  * on_route_pre_policy fires in arrival order, as each NLRI is decoded;
///  * on_route_post_policy fires when that NLRI changed the Loc-RIB, so a
///    route's post-policy record directly follows its pre-policy record
///    (a route the import policy or hook rejects, or an unchanged
///    re-announcement, has only the pre-policy one);
///  * on_peer_state fires at every FSM transition.
/// A tap must not mutate the speaker from inside a callback.
class MonitorTap {
 public:
  virtual ~MonitorTap() = default;
  /// Session FSM transition (kEstablished = BMP peer-up, kIdle = peer-down).
  virtual void on_peer_state(PeerId peer, SessionState state) = 0;
  /// Route-monitoring, pre-policy: mirrors the Adj-RIB-In feed as it
  /// arrived on the wire, before import policy. Null attrs = withdraw.
  virtual void on_route_pre_policy(PeerId from, const NlriEntry& entry,
                                   const AttrsPtr& attrs) = 0;
  /// Route-monitoring, post-policy: a post-import route-set change (the
  /// Loc-RIB candidate view), after policy and import hooks.
  virtual void on_route_post_policy(const RibRoute& route, bool withdrawn) = 0;
};

struct PeerConfig {
  std::string name;
  Asn peer_asn = 0;
  Ipv4Address local_address;
  Ipv4Address peer_address;
  std::uint16_t hold_time = 90;
  /// ADD-PATH mode this side advertises in its OPEN.
  AddPathMode addpath = AddPathMode::kNone;
  /// Minimum Route Advertisement Interval: exports to this peer are batched
  /// and flushed at most once per interval (0 = immediate).
  Duration mrai = Duration::seconds(0);
  RoutePolicy import_policy = RoutePolicy::accept_all();
  RoutePolicy export_policy = RoutePolicy::accept_all();
  /// vBGP mode: export every Loc-RIB candidate to this peer (requires
  /// ADD-PATH send to be negotiated), not just the best path.
  bool export_all_paths = false;
  /// Suppress standard eBGP loop detection on import (used by test
  /// harnesses exercising poisoned announcements).
  bool allow_own_asn_in = false;
  /// RFC 7947 transparent route-server mode for the *local* speaker on
  /// this session: exports do not prepend the local ASN and leave the
  /// next-hop untouched, so clients see each other's routes as if they
  /// peered directly. This is how IXP route servers deliver most of
  /// PEERING's 900+ peers.
  bool transparent = false;
  /// Export class: the export hooks' view of this peer (see BgpSpeaker::
  /// ExportHook). Peers that share a class and the rest of their export
  /// identity share one update group and one hook evaluation per advert.
  /// A class with a registered source hook exports source-driven.
  std::uint64_t export_class = 0;
};

/// Per-session statistics.
struct PeerStats {
  std::uint64_t updates_received = 0;
  std::uint64_t updates_sent = 0;
  std::uint64_t routes_rejected_import = 0;
  std::uint64_t notifications_sent = 0;
  std::uint64_t notifications_received = 0;
  std::uint64_t keepalives_received = 0;
  /// Transmit-side attribute serializations served from the AttrPool encode
  /// cache (every member send splices a pre-encoded template).
  std::uint64_t attr_encode_cache_hits = 0;
};

class BgpSpeaker {
 public:
  /// Import hook: runs after the peer's import policy, before RIB insertion.
  /// Return nullopt to reject the route, the input pointer to accept it
  /// unchanged (zero-copy), or a different AttrsPtr to transform it — build
  /// one cheaply with AttrBuilder and commit() against attr_pool(). vBGP
  /// rewrites next-hops here (and records the original next-hop per (peer,
  /// prefix, path-id) for its per-neighbor FIBs).
  using ImportHook = std::function<std::optional<AttrsPtr>(
      PeerId from, const NlriEntry& entry, const AttrsPtr& attrs)>;

  /// The export contract. Every export hook below is a pure function of
  /// (source attrs, origin peer, the receiving peer's export class), given
  /// external state that the owner invalidates through
  /// invalidate_export_memos(). The speaker relies on it twice: it runs a
  /// hook once per update group, for the group's representative member,
  /// and memoizes the result per (source attrs, origin).
  ///
  /// General export hook: runs after the standard export transform and the
  /// export policy, before transmission. Return nullopt to suppress, the
  /// input pointer to pass through untouched, or a transformed AttrsPtr.
  /// On non-transparent eBGP sessions `attrs.next_hop` is the splice
  /// placeholder, which each member replaces with its own address at send
  /// time; a hook that sets a concrete next-hop disables the splice.
  using ExportHook = std::function<std::optional<AttrsPtr>(
      PeerId to, const RibRoute& route, const AttrsPtr& attrs)>;

  /// Source-driven export hook, registered per export class: the class
  /// exports each route's *source* attribute set verbatim (no transform
  /// clone, no re-intern, no pool growth) and the hook only decides
  /// suppression and the next-hop, spliced over the template's cached wire
  /// bytes at send time. This is vBGP's experiment fan-out. Eligibility
  /// gates still apply (iBGP split, NO_ADVERTISE/NO_EXPORT); the standard
  /// transform, the export policy and the general hook do not.
  using SourceExportHook =
      std::function<std::optional<Ipv4Address>(const RibRoute& route)>;

  /// Per-member export filter: runs for every group member at send time,
  /// after group evaluation, with the advert's *pre-transform* source
  /// attribute set. Return false to suppress this member's copy. Decisions
  /// that depend on the member itself live here (vBGP's per-neighbor
  /// community gate).
  using ExportFilterHook =
      std::function<bool(PeerId to, const PathAttributes& source_attrs)>;

  /// Route event: fired when the post-import route set changes (install or
  /// withdraw). vBGP synchronizes per-neighbor FIBs from this, one route at
  /// a time, in the order the changes happen.
  using RouteEventHandler =
      std::function<void(const RibRoute& route, bool withdrawn)>;

  /// Session event: fired on state transitions.
  using SessionEventHandler =
      std::function<void(PeerId peer, SessionState state)>;

  BgpSpeaker(sim::EventLoop* loop, std::string name, Asn asn,
             Ipv4Address router_id, PipelineConfig pipeline = {});
  ~BgpSpeaker();

  BgpSpeaker(const BgpSpeaker&) = delete;
  BgpSpeaker& operator=(const BgpSpeaker&) = delete;

  const std::string& name() const { return name_; }
  Asn asn() const { return asn_; }
  Ipv4Address router_id() const { return router_id_; }
  const PipelineConfig& pipeline() const { return pipeline_; }

  /// Registers a peer; returns its id (>= 1).
  PeerId add_peer(PeerConfig config);

  PeerConfig& peer_config(PeerId peer);
  const PeerStats& peer_stats(PeerId peer) const;
  SessionState session_state(PeerId peer) const;
  bool is_ibgp(PeerId peer) const;

  /// Every registered peer id, ascending. The fault harness iterates this
  /// to sweep session state without knowing how peers were created.
  std::vector<PeerId> peer_ids() const;

  /// Binds an established transport to the peer and starts the FSM (sends
  /// OPEN immediately).
  void connect_peer(PeerId peer, std::shared_ptr<sim::StreamEndpoint> stream);

  /// Administratively closes the session (sends CEASE).
  void disconnect_peer(PeerId peer);

  /// Sends a ROUTE-REFRESH to the peer: ask it to resend everything (used
  /// after changing our import policy so it can be re-applied).
  void request_refresh(PeerId peer);

  /// Recomputes and re-sends this peer's Adj-RIB-Out (invoked on receiving
  /// a ROUTE-REFRESH from the peer, or locally after an export-policy
  /// change). Only deltas relative to what was already advertised are
  /// transmitted, so unchanged routes cause no churn.
  void reevaluate_exports(PeerId peer);

  /// Originates a local route, announced to peers per export policy.
  void originate(const Ipv4Prefix& prefix, PathAttributes attrs);

  /// Withdraws a locally originated route.
  void withdraw_originated(const Ipv4Prefix& prefix);

  /// Imports an UPDATE as if it had arrived (already decoded) on `peer`'s
  /// established session, without the wire framing: the same per-route
  /// processing as the message path, minus the FSM check and the
  /// bgp_update_processing span. No-op unless the session is Established.
  void inject_update(PeerId peer, const UpdateMessage& update);

  void set_import_hook(ImportHook hook) { import_hook_ = std::move(hook); }
  /// Installs the general export hook (see ExportHook for the contract).
  void set_export_hook(ExportHook hook);
  /// Installs a source-driven hook for one export class (must be nonzero:
  /// class 0 always takes the general path); groups of that class use it
  /// instead of the general export hook. Pass an empty function to
  /// unregister.
  void set_source_export_hook(std::uint64_t export_class,
                              SourceExportHook hook);
  void set_export_filter(ExportFilterHook hook) {
    export_filter_ = std::move(hook);
  }
  /// Drops every group's export-evaluation memo. Hook owners call it when
  /// hook-visible external state changes.
  void invalidate_export_memos();

  /// Adjusts the peer's MRAI after registration (the backbone fabric
  /// registers iBGP peers itself; the internet-scale soak then arms MRAI
  /// batching on them). MRAI is part of the export-group fingerprint, so
  /// call before the session establishes — on an established session the
  /// peer is re-fingerprinted into a matching group.
  void set_peer_mrai(PeerId peer, Duration mrai);

  /// Export-group id the peer currently belongs to (0 when none — e.g.
  /// session not established). Test introspection.
  std::uint64_t export_group_of(PeerId peer) const;
  /// Number of live export groups.
  std::size_t export_group_count() const { return groups_.size(); }
  /// Members of the peer's export subgroup — the group members sharing its
  /// Adj-RIB-Out, the peer included (0 when it is in no group). Test
  /// introspection.
  std::size_t export_subgroup_size(PeerId peer) const;
  void on_route_event(RouteEventHandler handler) {
    route_event_ = std::move(handler);
  }
  void on_session_event(SessionEventHandler handler) {
    session_event_ = std::move(handler);
  }

  /// Attaches a passive monitoring tap (one per speaker; null detaches).
  /// Separate from on_route_event/on_session_event, which the platform
  /// consumes — monitoring must not clobber the vrouter's FIB sync.
  void set_monitor(MonitorTap* tap) { monitor_ = tap; }
  MonitorTap* monitor() const { return monitor_; }

  const LocRib& loc_rib() const { return loc_rib_; }
  /// The peer's Adj-RIB-In: a view of its Loc-RIB candidates, in
  /// (prefix, path id) order.
  std::vector<RibRoute> adj_rib_in(PeerId peer) const;
  AttrPool& attr_pool() { return attr_pool_; }
  const AttrPool& attr_pool() const { return attr_pool_; }

  /// One advertised path in a peer's Adj-RIB-Out, with the next-hop the
  /// peer actually sees (the splice placeholder resolved). Ordered by
  /// (prefix, local path id).
  struct AdjOutEntry {
    Ipv4Prefix prefix;
    std::uint32_t local_id = 0;
    PeerId origin = 0;
    AttrsPtr attrs;
    Ipv4Address next_hop;
  };
  /// Full Adj-RIB-Out toward `peer` (active paths only). The looking
  /// glass renders per-peer dumps from this.
  std::vector<AdjOutEntry> adj_rib_out(PeerId peer) const;

  /// Decision-process inputs for `peer` (iBGP flag, ASN, address,
  /// router id) — the looking glass narrates best-path selection with it.
  PeerDecisionInfo peer_decision_info(PeerId peer) const;

  /// Total bytes across RIBs and the attribute pool (Figure 6a's
  /// "control plane" quantity).
  std::size_t memory_bytes() const;

  std::uint64_t total_updates_received() const { return total_updates_rx_; }
  std::uint64_t total_updates_sent() const { return total_updates_tx_; }

  /// Publishes derived control-plane state (attr pool, Loc-RIB, per-peer
  /// stats) into `registry` as gauges. Registered as a collector on the
  /// speaker's own registry; callable against any other registry so a
  /// looking glass can render a one-off snapshot.
  void publish_metrics(obs::Registry& registry) const;

 private:
  struct Session;
  struct ExportGroup;
  /// One Adj-RIB-Out, shared by the members of an export subgroup.
  struct OutTable;

  /// One group-level advertisement for a prefix: where the route came from
  /// (origin peer and path id, for split horizon and member filters), the
  /// post-transform/policy/hook attribute template, whether the template
  /// carries the next-hop placeholder a member splices over, and the
  /// template's cached wire image, resolved when the group evaluates the
  /// advert.
  struct GroupAdvert {
    PeerId origin = 0;
    std::uint32_t origin_path_id = 0;
    AttrsPtr source_attrs;
    AttrsPtr attrs;
    bool splice = false;
    /// Engaged for source-driven groups: the next-hop the hook chose for
    /// this advert, spliced in place of the member's own address.
    std::optional<Ipv4Address> splice_nh;
    const Bytes* wire = nullptr;
    std::size_t nh_offset = kNoNextHopOffset;
  };
  /// Phase-A output for one group, parallel to the drain plan's sorted
  /// unique prefix list: spans[i] delimits the adverts evaluated for the
  /// i-th prefix inside the flat `adverts` array. Contiguous storage: two
  /// amortized allocations per drain instead of a hashtable node plus a
  /// vector per prefix, and members locate a prefix's span by merge-walk
  /// (their prefix list is a sorted subset of the group's) with no hashing.
  struct GroupEval {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;
    std::vector<GroupAdvert> adverts;
  };

  /// Encode-stage output for one encode class (the members of a subgroup
  /// whose results are identical): concatenated wire messages plus the stat
  /// deltas each member applies at transmit. The wire is one stream image
  /// (empty when no member's stream is open): every member of the class
  /// sends that same buffer. The cache and splice counts describe one
  /// member's send; members without an open stream skip them.
  struct EncodeResult {
    std::shared_ptr<Bytes> wire;
    std::uint64_t updates = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t splices = 0;
  };

  /// Why a member left its subgroup with a copy of the shared table.
  enum SplitReason : std::uint8_t {
    kSplitWindow = 0,    // different prefix list or drain instant
    kSplitHorizon,       // an advert in the window originated at a member
    kSplitFilter,        // the export filter decided differently
    kSplitNextHop,       // a different spliced next-hop (member address)
    kSplitRefresh,       // ROUTE-REFRESH from one member
    kSplitReasons,
  };
  /// Phase-B work for one encode class, and the copy-on-write handle on
  /// the table it writes.
  struct EncodeClass;
  struct OutWriter;
  /// The drain's working storage, kept between drains: cleared, never
  /// freed, so a steady-state drain allocates nothing of its own.
  struct DrainScratch;

  /// The peer's session; throws std::out_of_range for an unknown id.
  Session& session(PeerId peer) const;
  /// The peer's session, or null for kLocalRoutes and unknown ids.
  const Session* find_session(PeerId peer) const;

  void handle_bytes(PeerId peer, const Bytes& data);
  void handle_message(PeerId peer, BgpMessage message);
  void handle_open(PeerId peer, const OpenMessage& open);
  void handle_update(PeerId peer, const UpdateMessage& update);
  void handle_notification(PeerId peer, const NotificationMessage& msg);
  void handle_keepalive(PeerId peer);
  void session_established(PeerId peer);
  void session_down(PeerId peer, const std::string& reason);
  void send_message(PeerId peer, const BgpMessage& message);
  void send_notification(PeerId peer, NotificationCode code,
                         std::uint8_t subcode, const std::string& reason);
  void arm_hold_timer(PeerId peer);
  void schedule_hold_check(PeerId peer, std::uint64_t gen);
  void arm_keepalive_timer(PeerId peer);

  /// Imports all of `update`'s withdrawals, then its announcements, one
  /// NLRI at a time (handle_update and inject_update share this body).
  void import_update(PeerId peer, const UpdateMessage& update);
  /// One NLRI to completion: loop check, import policy, import hook,
  /// Loc-RIB update, and apply_change() if the Loc-RIB changed.
  void import_route(Session& s, PeerId from, const NlriEntry& entry,
                    const AttrsPtr& attrs);
  void import_withdraw(Session& s, PeerId from, const NlriEntry& entry);
  /// The effects of one Loc-RIB change, in order: the route event, the
  /// export fan-out (skipped when `fan_out` is false, for a further path
  /// of a prefix already fanned out) and the post-policy monitor record.
  void apply_change(const RibRoute& route, bool withdrawn, bool fan_out = true);

  /// Appends (prefix, origin) to every group's delta log and schedules a
  /// flush for members other than `origin` (split horizon records the
  /// origin per entry; members skip their own entries at drain time).
  void fan_out_export(const Ipv4Prefix& prefix, PeerId origin);
  /// Ensures the peer is in a flush batch ('immediate' bypasses MRAI, the
  /// historical behavior of refresh/initial-table flushes).
  void schedule_flush(PeerId to, bool immediate = false);
  /// True when the member has undrained export work (a full resync due, or
  /// group delta-log entries past its cursor from another origin).
  bool member_has_pending(PeerId peer) const;
  /// Flush event: drains every peer whose flush came due at `at` — group
  /// evaluation once per group, encode once per class, transmit per member
  /// in ascending peer order.
  void drain_flush_batch(SimTime at);
  /// Sends the full table to a newly established peer.
  void send_initial_table(PeerId to);

  /// Phase A: runs transform + policy + export hook once for the group
  /// (against its representative member) and records one template advert
  /// per surviving Loc-RIB candidate, with its wire image from the encode
  /// cache. No split horizon, no member encode — both are per-member
  /// concerns.
  void evaluate_group(ExportGroup& group, const Ipv4Prefix& prefix,
                      std::vector<GroupAdvert>& out);
  /// Phase B, classification: runs split horizon and the export filter for
  /// every member of a unit (the due members at positions [begin, end),
  /// which share one table and one window) and partitions them into
  /// classes whose encode results are identical: the first returned-count
  /// entries of the scratch class list. This is the one place include
  /// decisions are made; filter calls stay one per (member, advert), as
  /// without subgroups.
  std::size_t classify_members(std::size_t begin, std::size_t end,
                               const std::vector<Ipv4Prefix>& prefixes,
                               const std::vector<Ipv4Prefix>& group_order,
                               const GroupEval& eval);
  /// Phase B: diffs one class's Adj-RIB-Out against the group evaluation
  /// and encodes the delta into `r` through the AttrPool encode cache,
  /// splicing the next-hop into the cached template. `s` is the class
  /// leader's session; `keep` holds the class's include decisions, one per
  /// advert in the window. Writes only through `out`.
  void encode_member(const Session& s, OutWriter& out,
                     const std::vector<std::uint8_t>& keep, bool stream_open,
                     const std::vector<Ipv4Prefix>& prefixes,
                     const std::vector<Ipv4Prefix>& group_order,
                     const GroupEval& eval, EncodeResult& r);

  /// Canonical export fingerprint: peers with equal fingerprints share a
  /// group. Covers negotiated capabilities (ADD-PATH, 4-byte ASN), export
  /// policy identity, transparency/iBGP mode, MRAI class, and the export
  /// hook class; group_exports=false additionally mixes in the peer id.
  std::uint64_t export_fingerprint(PeerId peer) const;
  /// Content check behind the fingerprint: guards against hash collisions.
  bool fingerprint_matches(PeerId peer, const ExportGroup& group) const;
  void join_group(PeerId peer);
  void leave_group(PeerId peer);
  /// Recomputes the peer's fingerprint and migrates it between groups when
  /// it changed (policy change, capability renegotiation, class change).
  void refingerprint_peer(PeerId peer);
  void refingerprint_established();
  void clear_group_memos();
  /// Drops delta-log entries every member has consumed.
  void trim_group_log(ExportGroup& group);

  /// Default per-session transforms applied on export before policy: AS
  /// prepend + next-hop handling for eBGP, LOCAL_PREF for iBGP. Mutates the
  /// builder copy-on-write; returns false to suppress the advertisement.
  /// The eBGP next-hop rewrite installs the splice placeholder (sets
  /// *splice), so one template serves every member.
  bool standard_export_transform(PeerId to, const RibRoute& route,
                                 AttrBuilder& attrs, bool* splice) const;
  /// The transform's pure reject gates (iBGP split, NO_ADVERTISE /
  /// NO_EXPORT) without any attribute mutation — the eligibility check
  /// source-driven groups run before handing the route to their hook.
  bool export_eligible(PeerId to, const RibRoute& route) const;

  sim::EventLoop* loop_;
  std::string name_;
  Asn asn_;
  Ipv4Address router_id_;
  PipelineConfig pipeline_;

  /// Sessions by peer id. Ids are dense from 1 and never removed; slot 0
  /// (kLocalRoutes) stays empty.
  std::vector<std::unique_ptr<Session>> sessions_;

  AttrPool attr_pool_;
  LocRib loc_rib_;
  std::map<Ipv4Prefix, AttrsPtr> originated_;

  /// Flush batches: peers whose pending exports come due at the same
  /// instant share one drain event. Drained nodes are kept, peer vector
  /// and all, and carry the next instant's batch.
  using FlushBatches = std::map<SimTime, std::vector<PeerId>>;
  FlushBatches flush_batches_;
  std::vector<FlushBatches::node_type> spare_batches_;
  std::unique_ptr<DrainScratch> drain_;

  /// Export groups by id (ascending — the group-evaluation order) and
  /// the fingerprint-key index into them.
  std::map<std::uint64_t, std::unique_ptr<ExportGroup>> groups_;
  std::unordered_map<std::uint64_t, std::uint64_t> group_by_key_;
  std::uint64_t next_group_id_ = 1;

  ImportHook import_hook_;
  ExportHook export_hook_;
  std::unordered_map<std::uint64_t, SourceExportHook> source_export_hooks_;
  ExportFilterHook export_filter_;
  RouteEventHandler route_event_;
  SessionEventHandler session_event_;
  MonitorTap* monitor_ = nullptr;

  std::uint64_t total_updates_rx_ = 0;
  std::uint64_t total_updates_tx_ = 0;

  /// Telemetry: handles resolved once at construction against the
  /// process-global obs registry (no-ops when telemetry is off).
  void note_transition(PeerId peer, SessionState state);
  obs::Registry* metrics_;
  obs::Counter* obs_updates_in_;
  obs::Counter* obs_updates_out_;
  obs::Counter* obs_group_evals_;
  obs::Counter* obs_group_memo_hits_;
  obs::Counter* obs_group_splices_;
  obs::Histogram* obs_group_members_;
  obs::Counter* obs_transitions_[4];  // indexed by SessionState
  /// Export-group interior.
  obs::Histogram* obs_flush_batch_;
  obs::Histogram* obs_group_log_depth_;
  obs::Counter* obs_resync_initial_;
  obs::Counter* obs_resync_log_trim_;
  /// Member encodes served by another member's class encode ("shared") vs
  /// computed for the member itself ("own"), and subgroup splits by reason.
  obs::Counter* obs_member_encodes_shared_;
  obs::Counter* obs_member_encodes_own_;
  obs::Counter* obs_subgroup_splits_[kSplitReasons];
  obs::SpanMeter update_span_;
  obs::SpanMeter encode_span_;
  std::uint64_t collector_token_ = 0;
};

}  // namespace peering::bgp

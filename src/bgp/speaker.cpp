#include "bgp/speaker.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "netbase/log.h"
#include "netbase/rand.h"

namespace peering::bgp {

const char* session_state_name(SessionState state) {
  switch (state) {
    case SessionState::kIdle:
      return "Idle";
    case SessionState::kOpenSent:
      return "OpenSent";
    case SessionState::kOpenConfirm:
      return "OpenConfirm";
    case SessionState::kEstablished:
      return "Established";
  }
  return "?";
}

/// Next-hop placeholder the group-level export transform writes into eBGP
/// templates; members splice their own address over it at send time. Must
/// be non-zero: a zero next-hop would be omitted from the encoded template
/// entirely, leaving nothing to patch.
const Ipv4Address kNhPlaceholder(255, 255, 255, 255);

/// An advertisement currently installed in the Adj-RIB-Out toward a peer:
/// the shared group template plus the final (post-splice) next-hop that
/// actually went on the wire.
struct OutRoute {
  PeerId origin_peer = 0;
  std::uint32_t origin_path_id = 0;
  AttrsPtr attrs;
  Ipv4Address next_hop;
};

/// One (prefix, origin) delta in a group's export log. Split horizon is a
/// member-level concern: each member skips entries whose origin is itself.
struct GroupLogEntry {
  Ipv4Prefix prefix;
  PeerId origin = 0;
};

/// An Adj-RIB-Out. Members of one export group whose export state is
/// identical reference one table — an export *subgroup*: the drain diffs and
/// encodes it once per class and sends the same bytes to every member. A
/// member whose result could differ leaves with a copy before anything is
/// written (OutWriter). Tables that hold paths never re-merge: local path
/// ids depend on drain order, so merged members would see different bytes.
struct BgpSpeaker::OutTable {
  /// Bookkeeping for one prefix: one entry per local path id ever
  /// allocated, holding both the origin key (for RFC 7911 id-stable
  /// reallocation) and the currently advertised state. A withdrawn path
  /// keeps its entry with active=false so a re-advertisement of the same
  /// origin path reuses its local id. One flat vector — a prefix carries a
  /// handful of paths, so linear scans beat node-based maps and their
  /// per-entry allocations. Entries stay sorted by ascending local id: ids
  /// are allocated monotonically, so new entries append at the back.
  struct OutPath {
    PeerId origin = 0;
    std::uint32_t origin_path_id = 0;
    std::uint32_t local_id = 0;
    bool active = false;
    OutRoute route;
  };
  struct PrefixOut {
    std::vector<OutPath> paths;
  };
  /// Hashed on the prefix: encode probes it once per prefix and nothing
  /// needs prefix order (full-table walks dump into a sorted vector first).
  std::unordered_map<Ipv4Prefix, PrefixOut> prefixes;
  std::uint32_t next_out_id = 1;
  /// Active paths and allocated path entries, for the size gauges.
  std::size_t active_paths = 0;
  std::size_t path_entries = 0;

  std::size_t memory_bytes() const {
    return prefixes.size() * (sizeof(Ipv4Prefix) + sizeof(PrefixOut) +
                              2 * sizeof(void*)) +
           path_entries * sizeof(OutPath);
  }
};

/// One class classify_members found: its members (positions in the
/// drain's `due` list, ascending) and the per-advert include decisions
/// split horizon and the export filter made for them. The other fields are
/// the class key and, for the split counter, why the class differs.
struct BgpSpeaker::EncodeClass {
  std::vector<std::size_t> members;
  std::vector<std::uint8_t> keep;
  bool own_origin = false;
  Ipv4Address next_hop;
  SplitReason reason = kSplitWindow;
};

/// Copy-on-write handle on the table one encode class writes: the first
/// write swaps in a private copy while `others` sessions outside the class
/// still reference the original.
struct BgpSpeaker::OutWriter {
  OutTable* table = nullptr;
  std::size_t others = 0;
  std::shared_ptr<OutTable> copy;
  OutTable& write();
};

BgpSpeaker::OutTable& BgpSpeaker::OutWriter::write() {
  if (others > 0) {
    copy = std::make_shared<OutTable>(*table);
    table = copy.get();
    others = 0;
  }
  return *table;
}

struct BgpSpeaker::Session {
  PeerConfig config;
  PeerStats stats;
  SessionState state = SessionState::kIdle;
  std::shared_ptr<sim::StreamEndpoint> stream;
  MessageDecoder decoder;
  UpdateCodecOptions tx_options;
  bool addpath_tx = false;
  bool addpath_rx = false;
  bool open_received = false;
  Ipv4Address peer_router_id;
  std::uint16_t negotiated_hold = 90;
  /// Loc-RIB candidates sourced by this peer: the size of its Adj-RIB-In
  /// view.
  std::size_t rib_routes = 0;

  /// Adj-RIB-Out toward this peer, shared with the other members of its
  /// export subgroup (see OutTable).
  std::shared_ptr<OutTable> out = std::make_shared<OutTable>();

  /// Export-group membership: the group this established session belongs
  /// to (0 = none), the member's cursor into the group's delta log, and
  /// whether the next flush must reevaluate the full table (initial sync,
  /// refresh, rejoin after migration, or cursor lost to log trimming).
  std::uint64_t group = 0;
  std::uint64_t group_cursor = 0;
  bool needs_full = false;
  bool flush_scheduled = false;
  SimTime flush_at;
  SimTime next_flush_allowed;

  /// Timer generations: a scheduled callback fires only if its generation
  /// still matches (reset/restart invalidates stale timers).
  std::uint64_t hold_gen = 0;
  std::uint64_t keepalive_gen = 0;

  /// Per-peer telemetry handles (shared no-ops when telemetry is off).
  obs::Counter* obs_updates_in = obs::Registry::nop_counter();
  obs::Counter* obs_updates_out = obs::Registry::nop_counter();
  /// Lazy hold timer: receiving a message only refreshes the deadline; at
  /// most one expiry check sits in the event queue per session. Without
  /// this, a full-table burst enqueues one 90-second timer per UPDATE and
  /// the event heap drowns in stale no-ops.
  SimTime hold_deadline;
  SimTime hold_check_at;
  bool hold_scheduled = false;
};

/// An update group: sessions whose export fingerprints match share one
/// delta log, one policy/hook evaluation per advert, and one encoded
/// template per (advert, codec options). Members diff and transmit
/// individually from per-member cursors into the shared log.
struct BgpSpeaker::ExportGroup {
  std::uint64_t id = 0;
  /// Fingerprint key this group is indexed under in group_by_key_.
  std::uint64_t key = 0;
  /// Members, ascending. The front member is the representative whose
  /// config drives group-level evaluation; join-time content verification
  /// guarantees every member's export identity equals the representative's.
  std::vector<PeerId> members;

  /// Bounded delta log plus the sequence number of its front entry. A
  /// member whose cursor precedes log_base missed trimmed entries and
  /// falls back to a full-table resync.
  std::deque<GroupLogEntry> log;
  std::uint64_t log_base = 0;

  std::uint64_t log_end() const { return log_base + log.size(); }

  /// Per-(source attrs, origin) transform memo: under the export contract
  /// the group-level export chain is a pure function of those once the
  /// policy is prefix-independent. A null result records suppression.
  /// Values pin pool entries, so the speaker clears every memo before
  /// sweeping the pool.
  struct MemoKey {
    const PathAttributes* attrs = nullptr;
    PeerId origin = 0;
    bool operator==(const MemoKey&) const = default;
  };
  struct MemoKeyHash {
    std::size_t operator()(const MemoKey& k) const {
      return std::hash<const void*>()(k.attrs) ^
             (static_cast<std::size_t>(k.origin) * 0x9e3779b97f4a7c15ull);
    }
  };
  struct MemoValue {
    AttrsPtr source;  // pins the key pointer
    AttrsPtr result;  // null = suppressed
    bool splice = false;
    std::optional<Ipv4Address> splice_nh;
  };
  std::unordered_map<MemoKey, MemoValue, MemoKeyHash> memo;
  bool memo_enabled = false;
  /// Source-driven class (set_source_export_hook): the source attribute
  /// set is the template and `source_hook` picks the spliced next-hop;
  /// transform/policy/general-hook are bypassed.
  bool source_driven = false;
  SourceExportHook source_hook;

  /// The drain that last planned this group, and its plan there.
  std::uint64_t drain_epoch = 0;
  std::size_t plan = 0;
};

/// The drain's working storage. Every container is cleared at the start
/// of the drain that uses it and keeps its capacity, so once the drain has
/// seen its largest batch it allocates nothing of its own.
struct BgpSpeaker::DrainScratch {
  static constexpr std::size_t kNoWindow = SIZE_MAX;

  /// One export group with members due in this drain.
  struct GroupPlan {
    ExportGroup* group = nullptr;
    /// Sorted union of the group's windows: the prefixes Phase A evaluates.
    std::vector<Ipv4Prefix> order;
    /// The group's last log window.
    std::size_t last_log_window = kNoWindow;
    /// Full-resync windows by table (null: every empty table). A resync
    /// list depends only on the Loc-RIB and the member's table, so the
    /// members on one table share one walk and one window.
    std::vector<std::pair<const OutTable*, std::size_t>> resync_windows;
    /// Members resyncing from an empty table, by the table's next local
    /// path id: the first of them; the rest adopt its table.
    std::vector<std::pair<std::uint32_t, PeerId>> fresh;
    GroupEval eval;
  };

  /// Numbers drains, so groups can tag their plan.
  std::uint64_t epoch = 0;
  /// One due member: its window, its id and its session, resolved once
  /// when the member is planned.
  struct Due {
    std::size_t window;
    PeerId peer;
    Session* session;
  };
  /// One entry per due member, planned in peer order. The encode walks it
  /// in unit order; once a member's unit is encoded, its window is
  /// replaced by the position of the result it sends, and transmit puts
  /// the list back in peer order.
  std::vector<Due> due;
  /// The first `window_count` windows are live; the next slot is where a
  /// member's window is built, and it stays only if it is a new window.
  std::vector<std::vector<Ipv4Prefix>> windows;
  std::size_t window_count = 0;
  std::vector<std::size_t> window_plan;
  /// The first `plan_count` plans are live, in first-due order;
  /// `plan_order` lists them by ascending group id.
  std::vector<GroupPlan> plans;
  std::size_t plan_count = 0;
  std::vector<std::size_t> plan_order;
  std::vector<EncodeClass> classes;
  /// By class leader's position in `due`; a slot keeps its wire image
  /// from drain to drain.
  std::vector<EncodeResult> results;
  /// encode_member's per-class lists.
  std::vector<NlriEntry> withdrawals;
  std::vector<const GroupAdvert*> chosen;
  std::vector<std::pair<std::uint32_t, const GroupAdvert*>> desired;
  std::vector<NlriEntry> nlri;
};

BgpSpeaker::BgpSpeaker(sim::EventLoop* loop, std::string name, Asn asn,
                       Ipv4Address router_id, PipelineConfig pipeline)
    : loop_(loop),
      name_(std::move(name)),
      asn_(asn),
      router_id_(router_id),
      pipeline_(pipeline),
      sessions_(1),
      loc_rib_([this](PeerId p) { return peer_decision_info(p); }),
      drain_(std::make_unique<DrainScratch>()),
      metrics_(obs::Registry::global()) {
  obs::Labels labels{{"speaker", name_}};
  obs_updates_in_ = metrics_->counter("bgp_updates_in_total", labels);
  obs_updates_out_ = metrics_->counter("bgp_updates_out_total", labels);
  obs_group_evals_ =
      metrics_->counter("bgp_export_group_evals_total", labels);
  obs_group_memo_hits_ =
      metrics_->counter("bgp_export_group_memo_hits_total", labels);
  obs_group_splices_ =
      metrics_->counter("bgp_export_group_splices_total", labels);
  obs_group_members_ =
      metrics_->histogram("bgp_export_group_members", labels);
  obs_flush_batch_ = metrics_->histogram("bgp_mrai_flush_batch", labels);
  obs_group_log_depth_ =
      metrics_->histogram("bgp_export_group_log_depth", labels);
  {
    obs::Labels rl = labels;
    rl.emplace_back("reason", "initial");
    obs_resync_initial_ =
        metrics_->counter("bgp_export_full_resyncs_total", rl);
    rl.back().second = "log_trim";
    obs_resync_log_trim_ =
        metrics_->counter("bgp_export_full_resyncs_total", rl);
    obs::Labels ml = labels;
    ml.emplace_back("mode", "shared");
    obs_member_encodes_shared_ =
        metrics_->counter("bgp_export_member_encodes_total", ml);
    ml.back().second = "own";
    obs_member_encodes_own_ =
        metrics_->counter("bgp_export_member_encodes_total", ml);
    static const char* const kSplitNames[kSplitReasons] = {
        "window", "split_horizon", "filter", "next_hop", "refresh"};
    for (int i = 0; i < kSplitReasons; ++i) {
      rl.back().second = kSplitNames[i];
      obs_subgroup_splits_[i] =
          metrics_->counter("bgp_export_subgroup_splits_total", rl);
    }
  }
  for (int i = 0; i < 4; ++i) {
    obs::Labels tl = labels;
    tl.emplace_back("state",
                    session_state_name(static_cast<SessionState>(i)));
    obs_transitions_[i] =
        metrics_->counter("bgp_session_transitions_total", tl);
  }
  update_span_ = obs::SpanMeter(metrics_, "bgp_update_processing", labels);
  encode_span_ = obs::SpanMeter(metrics_, "bgp_pipeline_encode", labels);
  collector_token_ = metrics_->add_collector(
      [this](obs::Registry& registry) { publish_metrics(registry); });
}

BgpSpeaker::~BgpSpeaker() { metrics_->remove_collector(collector_token_); }

namespace {

// Out of line, so that session() stays small enough to inline.
[[noreturn, gnu::cold, gnu::noinline]] void throw_unknown_peer(PeerId peer) {
  throw std::out_of_range("bgp: unknown peer id " + std::to_string(peer));
}

}  // namespace

BgpSpeaker::Session& BgpSpeaker::session(PeerId peer) const {
  if (peer == kLocalRoutes || peer >= sessions_.size()) [[unlikely]]
    throw_unknown_peer(peer);
  return *sessions_[peer];
}

const BgpSpeaker::Session* BgpSpeaker::find_session(PeerId peer) const {
  return peer == kLocalRoutes || peer >= sessions_.size()
             ? nullptr
             : sessions_[peer].get();
}

PeerId BgpSpeaker::add_peer(PeerConfig config) {
  const auto id = static_cast<PeerId>(sessions_.size());
  auto session = std::make_unique<Session>();
  session->config = std::move(config);
  obs::Labels labels{{"speaker", name_}, {"peer", session->config.name}};
  session->obs_updates_in =
      metrics_->counter("bgp_peer_updates_in_total", labels);
  session->obs_updates_out =
      metrics_->counter("bgp_peer_updates_out_total", labels);
  sessions_.push_back(std::move(session));
  return id;
}

void BgpSpeaker::note_transition(PeerId peer, SessionState state) {
  obs_transitions_[static_cast<int>(state)]->inc();
  if (monitor_) monitor_->on_peer_state(peer, state);
}

PeerConfig& BgpSpeaker::peer_config(PeerId peer) {
  return session(peer).config;
}

const PeerStats& BgpSpeaker::peer_stats(PeerId peer) const {
  return session(peer).stats;
}

SessionState BgpSpeaker::session_state(PeerId peer) const {
  return session(peer).state;
}

bool BgpSpeaker::is_ibgp(PeerId peer) const {
  return session(peer).config.peer_asn == asn_;
}

std::vector<PeerId> BgpSpeaker::peer_ids() const {
  std::vector<PeerId> ids;
  ids.reserve(sessions_.size() - 1);
  for (PeerId id = 1; id < sessions_.size(); ++id) ids.push_back(id);
  return ids;
}

std::vector<RibRoute> BgpSpeaker::adj_rib_in(PeerId peer) const {
  return loc_rib_.peer_routes(peer);
}

std::vector<BgpSpeaker::AdjOutEntry> BgpSpeaker::adj_rib_out(
    PeerId peer) const {
  std::vector<AdjOutEntry> out;
  const Session& s = session(peer);
  for (const auto& [prefix, po] : s.out->prefixes) {
    for (const auto& path : po.paths) {
      if (!path.active) continue;
      out.push_back(AdjOutEntry{prefix, path.local_id, path.route.origin_peer,
                                path.route.attrs, path.route.next_hop});
    }
  }
  // The table is hashed; (prefix, local id) is the canonical dump order.
  std::sort(out.begin(), out.end(),
            [](const AdjOutEntry& a, const AdjOutEntry& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              return a.local_id < b.local_id;
            });
  return out;
}

PeerDecisionInfo BgpSpeaker::peer_decision_info(PeerId peer) const {
  PeerDecisionInfo info;
  if (peer == kLocalRoutes) {
    info.ibgp = false;
    info.peer_asn = asn_;
    info.router_id = router_id_;
    return info;
  }
  const Session* s = find_session(peer);
  if (s == nullptr) return info;
  info.ibgp = s->config.peer_asn == asn_;
  info.peer_asn = s->config.peer_asn;
  info.peer_address = s->config.peer_address;
  info.router_id = s->peer_router_id;
  return info;
}

void BgpSpeaker::connect_peer(PeerId peer,
                              std::shared_ptr<sim::StreamEndpoint> stream) {
  Session& s = session(peer);
  s.stream = std::move(stream);
  s.decoder = MessageDecoder();
  s.open_received = false;
  s.stream->on_data([this, peer](const Bytes& data) {
    handle_bytes(peer, data);
  });
  s.stream->on_close([this, peer]() { session_down(peer, "stream closed"); });

  OpenMessage open;
  open.asn = asn_;
  open.hold_time = s.config.hold_time;
  open.router_id = router_id_;
  open.add_four_byte_asn(asn_);
  if (s.config.addpath != AddPathMode::kNone)
    open.add_addpath_ipv4(s.config.addpath);
  send_message(peer, open);
  s.state = SessionState::kOpenSent;
  obs_transitions_[static_cast<int>(s.state)]->inc();
  arm_hold_timer(peer);
}

void BgpSpeaker::disconnect_peer(PeerId peer) {
  Session& s = session(peer);
  if (s.state == SessionState::kIdle) return;
  send_notification(peer, NotificationCode::kCease, 2, "admin shutdown");
  session_down(peer, "admin shutdown");
}

void BgpSpeaker::handle_bytes(PeerId peer, const Bytes& data) {
  Session& s = session(peer);
  s.decoder.feed(data);
  while (true) {
    auto result = s.decoder.poll();
    if (!result) {
      LOG_WARN("bgp", name_ << ": decode error from " << s.config.name << ": "
                            << result.error().message);
      send_notification(peer, s.decoder.error_code(),
                        static_cast<std::uint8_t>(result.error().code),
                        result.error().message);
      session_down(peer, "decode error");
      return;
    }
    if (!result->has_value()) break;
    handle_message(peer, std::move(**result));
    // The session may have gone down while handling the message.
    if (session(peer).state == SessionState::kIdle) return;
  }
}

void BgpSpeaker::handle_message(PeerId peer, BgpMessage message) {
  arm_hold_timer(peer);
  if (auto* update = std::get_if<UpdateMessage>(&message)) {
    handle_update(peer, *update);
    return;
  }
  if (auto* open = std::get_if<OpenMessage>(&message)) {
    handle_open(peer, *open);
  } else if (auto* notification = std::get_if<NotificationMessage>(&message)) {
    handle_notification(peer, *notification);
  } else if (std::get_if<RouteRefreshMessage>(&message)) {
    // RFC 2918: the peer asks for our full Adj-RIB-Out again (typically
    // after changing its import policy). Force a complete resend: the
    // peer re-applies policy to routes that are unchanged on our side.
    Session& s = session(peer);
    if (s.state == SessionState::kEstablished) {
      // Only this member resends: its result now differs from the rest of
      // its subgroup's, so it leaves with a copy of the shared table.
      if (s.out.use_count() > 1) {
        s.out = std::make_shared<OutTable>(*s.out);
        obs_subgroup_splits_[kSplitRefresh]->inc();
      }
      for (auto& [prefix, po] : s.out->prefixes)
        for (auto& path : po.paths) path.route.attrs.reset();
      reevaluate_exports(peer);
    }
  } else {
    handle_keepalive(peer);
  }
}

void BgpSpeaker::request_refresh(PeerId peer) {
  Session& s = session(peer);
  if (s.state != SessionState::kEstablished) return;
  send_message(peer, RouteRefreshMessage{});
}

void BgpSpeaker::reevaluate_exports(PeerId peer) {
  Session& s = session(peer);
  if (s.state != SessionState::kEstablished) return;
  // The peer's export identity may have changed out from under us (policy
  // edited in place, refresh received): recompute its fingerprint so it
  // migrates to the right group, then force a full-table reevaluation. The
  // encode stage diffs against the Adj-RIB-Out, so only real changes hit
  // the wire.
  refingerprint_peer(peer);
  schedule_flush(peer, /*immediate=*/true);
}

void BgpSpeaker::handle_open(PeerId peer, const OpenMessage& open) {
  Session& s = session(peer);
  if (s.state != SessionState::kOpenSent) {
    send_notification(peer, NotificationCode::kFsmError, 0,
                      "OPEN in unexpected state");
    session_down(peer, "unexpected OPEN");
    return;
  }

  Asn remote_asn = open.four_byte_asn().value_or(open.asn);
  if (s.config.peer_asn != 0 && remote_asn != s.config.peer_asn) {
    send_notification(peer, NotificationCode::kOpenMessageError, 2,
                      "bad peer AS");
    session_down(peer, "bad peer AS");
    return;
  }
  if (s.config.peer_asn == 0) s.config.peer_asn = remote_asn;
  s.peer_router_id = open.router_id;
  s.negotiated_hold = std::min(s.config.hold_time, open.hold_time);

  // ADD-PATH negotiation (RFC 7911 §4): we send path ids iff we advertised
  // send and the peer advertised receive, and vice versa.
  AddPathMode local = s.config.addpath;
  AddPathMode remote = open.addpath_ipv4();
  auto has_send = [](AddPathMode m) {
    return m == AddPathMode::kSend || m == AddPathMode::kBoth;
  };
  auto has_recv = [](AddPathMode m) {
    return m == AddPathMode::kReceive || m == AddPathMode::kBoth;
  };
  s.addpath_tx = has_send(local) && has_recv(remote);
  s.addpath_rx = has_recv(local) && has_send(remote);

  // Both ends of this implementation always advertise 4-byte ASN support;
  // fall back to 2-byte encoding when the remote does not.
  bool four_byte = open.four_byte_asn().has_value();
  s.tx_options.attrs.four_byte_asn = four_byte;
  s.tx_options.add_path = s.addpath_tx;
  UpdateCodecOptions rx_options;
  rx_options.attrs.four_byte_asn = four_byte;
  rx_options.add_path = s.addpath_rx;
  s.decoder.set_options(rx_options);

  s.open_received = true;
  send_message(peer, KeepaliveMessage{});
  s.state = SessionState::kOpenConfirm;
  note_transition(peer, s.state);
}

void BgpSpeaker::handle_keepalive(PeerId peer) {
  Session& s = session(peer);
  ++s.stats.keepalives_received;
  if (s.state == SessionState::kOpenConfirm) {
    session_established(peer);
  }
}

void BgpSpeaker::session_established(PeerId peer) {
  Session& s = session(peer);
  s.state = SessionState::kEstablished;
  arm_keepalive_timer(peer);
  LOG_INFO("bgp", name_ << ": session with " << s.config.name
                        << " established (addpath tx=" << s.addpath_tx
                        << " rx=" << s.addpath_rx << ")");
  metrics_->trace().emit(loop_->now(), "bgp", "session_up",
                         {{"speaker", name_}, {"peer", s.config.name}});
  note_transition(peer, s.state);
  // Group membership is (re)computed per establishment: capabilities were
  // just negotiated and may differ from the previous incarnation.
  join_group(peer);
  send_initial_table(peer);
}

void BgpSpeaker::handle_notification(PeerId peer,
                                     const NotificationMessage& msg) {
  Session& s = session(peer);
  ++s.stats.notifications_received;
  LOG_WARN("bgp", name_ << ": NOTIFICATION from " << s.config.name << ": "
                        << msg.str());
  session_down(peer, "notification received: " + msg.str());
}

void BgpSpeaker::handle_update(PeerId peer, const UpdateMessage& update) {
  if (session(peer).state != SessionState::kEstablished) {
    send_notification(peer, NotificationCode::kFsmError, 0,
                      "UPDATE before Established");
    session_down(peer, "early UPDATE");
    return;
  }
  obs::Span span(update_span_, nullptr);  // wall-clock CPU cost per UPDATE
  import_update(peer, update);
}

void BgpSpeaker::inject_update(PeerId peer, const UpdateMessage& update) {
  if (session(peer).state != SessionState::kEstablished) return;
  import_update(peer, update);
}

void BgpSpeaker::import_update(PeerId peer, const UpdateMessage& update) {
  Session& s = session(peer);
  ++s.stats.updates_received;
  ++total_updates_rx_;
  obs_updates_in_->inc();
  s.obs_updates_in->inc();
  for (const auto& entry : update.withdrawn) {
    if (monitor_) monitor_->on_route_pre_policy(peer, entry, nullptr);
    import_withdraw(s, peer, entry);
  }
  if (!update.attributes) return;
  // Intern once per UPDATE: every NLRI shares the AttrsPtr, repeated
  // announcements of the same set hit the pool, and downstream
  // pointer-keyed caches (vBGP's next-hop rewrite memo) get a stable key.
  const AttrsPtr attrs = attr_pool_.intern(*update.attributes);
  for (const auto& entry : update.nlri) {
    if (monitor_) monitor_->on_route_pre_policy(peer, entry, attrs);
    import_route(s, peer, entry, attrs);
  }
}

void BgpSpeaker::import_route(Session& s, PeerId from, const NlriEntry& entry,
                              const AttrsPtr& attrs) {
  // eBGP loop detection: drop routes carrying our own ASN.
  if (s.config.peer_asn != asn_ && !s.config.allow_own_asn_in &&
      attrs->as_path.contains(asn_)) {
    ++s.stats.routes_rejected_import;
    return;
  }

  AttrBuilder builder(attrs);
  if (!s.config.import_policy.apply(entry.prefix, builder)) {
    ++s.stats.routes_rejected_import;
    // An implicit withdraw may be needed if a previous version was accepted.
    import_withdraw(s, from, entry);
    return;
  }
  // Hand the hook an uninterned candidate and intern only its final answer:
  // when the hook rewrites the set (the vBGP next-hop case), the
  // intermediate policy result never pays for a pool insertion.
  AttrsPtr working;
  if (import_hook_) {
    auto hooked = import_hook_(from, entry, builder.release());
    if (!hooked) {
      ++s.stats.routes_rejected_import;
      import_withdraw(s, from, entry);
      return;
    }
    working = attr_pool_.adopt(*hooked);
  } else {
    working = builder.commit(attr_pool_);
  }

  RibRoute route;
  route.prefix = entry.prefix;
  route.path_id = entry.path_id;
  route.peer = from;
  route.attrs = std::move(working);

  const LocRib::UpdateResult result = loc_rib_.update(route);
  if (!result.changed) return;  // unchanged re-announcement
  if (result.added) ++s.rib_routes;
  apply_change(route, /*withdrawn=*/false);
}

void BgpSpeaker::import_withdraw(Session& s, PeerId from,
                                 const NlriEntry& entry) {
  auto removed = loc_rib_.withdraw(entry.prefix, from, entry.path_id).removed;
  if (!removed) return;
  --s.rib_routes;
  apply_change(*removed, /*withdrawn=*/true);
}

void BgpSpeaker::apply_change(const RibRoute& route, bool withdrawn,
                              bool fan_out) {
  if (route_event_) route_event_(route, withdrawn);
  if (fan_out) fan_out_export(route.prefix, route.peer);
  if (monitor_) monitor_->on_route_post_policy(route, withdrawn);
}

void BgpSpeaker::originate(const Ipv4Prefix& prefix, PathAttributes attrs) {
  RibRoute route;
  route.prefix = prefix;
  route.path_id = 0;
  route.peer = kLocalRoutes;
  route.attrs = attr_pool_.intern(std::move(attrs));
  originated_[prefix] = route.attrs;
  // Re-originating an unchanged route is not a change: no route event, no
  // export, no post-policy record (as on import).
  if (!loc_rib_.update(route).changed) return;
  apply_change(route, /*withdrawn=*/false);
}

void BgpSpeaker::withdraw_originated(const Ipv4Prefix& prefix) {
  auto it = originated_.find(prefix);
  if (it == originated_.end()) return;
  RibRoute route;
  route.prefix = prefix;
  route.path_id = 0;
  route.peer = kLocalRoutes;
  route.attrs = it->second;
  originated_.erase(it);
  loc_rib_.withdraw(prefix, kLocalRoutes, 0);
  apply_change(route, /*withdrawn=*/true);
}

bool BgpSpeaker::export_eligible(PeerId to, const RibRoute& route) const {
  const Session& s = session(to);
  const bool to_ibgp = s.config.peer_asn == asn_;
  const Session* from = find_session(route.peer);
  const bool from_ibgp = from && from->config.peer_asn == asn_;

  // Standard iBGP rule (no route reflection): iBGP-learned routes are not
  // re-advertised to iBGP peers.
  if (to_ibgp && from_ibgp) return false;

  // RFC 1997 well-known communities.
  if (route.attrs->has_community(kNoAdvertise)) return false;
  if (!to_ibgp && route.attrs->has_community(kNoExport)) return false;
  return true;
}

bool BgpSpeaker::standard_export_transform(PeerId to, const RibRoute& route,
                                           AttrBuilder& attrs,
                                           bool* splice) const {
  if (!export_eligible(to, route)) return false;
  const Session& s = session(to);
  const bool to_ibgp = s.config.peer_asn == asn_;
  const Session* from = find_session(route.peer);
  const bool from_ibgp = from && from->config.peer_asn == asn_;
  const PathAttributes& view = attrs.view();

  if (to_ibgp) {
    if (!view.local_pref) attrs.mutate().local_pref = 100;
  } else if (s.config.transparent) {
    // Route-server transparency (RFC 7947 §2.2): no local-AS prepend, the
    // next-hop of the advertising client is preserved — often the whole
    // transform is a no-op and the route keeps its interned pointer.
    if (view.local_pref) attrs.mutate().local_pref.reset();
  } else {
    PathAttributes& m = attrs.mutate();
    m.as_path = m.as_path.prepended(asn_);
    m.local_pref.reset();
    // MED is non-transitive across ASes: drop it when re-advertising a
    // route learned via eBGP, keep it for routes this AS originates.
    if (route.peer != kLocalRoutes && !from_ibgp) m.med.reset();
    // Group template: one attribute set serves every member; each splices
    // its own local address over the placeholder at send time.
    m.next_hop = kNhPlaceholder;
    if (splice) *splice = true;
  }
  return true;
}

std::uint64_t BgpSpeaker::export_fingerprint(PeerId peer) const {
  const Session& s = session(peer);
  std::uint64_t h = 0x5ee71a6e0bull;
  auto mix = [&](std::uint64_t v) { h = mix64(h ^ v); };
  // Grouping off: every session fingerprints to itself (singleton groups
  // running the identical machinery — the differential's escape hatch).
  if (!pipeline_.group_exports) mix(peer);
  mix(s.config.export_class);                      // export-hook class
  mix(s.config.peer_asn == asn_ ? 1 : 0);          // iBGP vs eBGP transform
  mix(s.config.transparent ? 1 : 0);               // RFC 7947 transparency
  mix(s.config.export_all_paths ? 1 : 0);
  mix(s.addpath_tx ? 1 : 0);                       // negotiated ADD-PATH tx
  mix(s.tx_options.attrs.four_byte_asn ? 1 : 0);   // negotiated codec slot
  mix(static_cast<std::uint64_t>(s.config.mrai.ns()));  // MRAI class
  mix(s.config.export_policy.fingerprint());
  return h;
}

bool BgpSpeaker::fingerprint_matches(PeerId peer,
                                     const ExportGroup& group) const {
  if (group.members.empty()) return true;
  PeerId rep = group.members.front();
  if (rep == peer) return true;
  const Session& a = session(peer);
  const Session& b = session(rep);
  return (a.config.peer_asn == asn_) == (b.config.peer_asn == asn_) &&
         a.config.transparent == b.config.transparent &&
         a.config.export_all_paths == b.config.export_all_paths &&
         a.addpath_tx == b.addpath_tx &&
         a.tx_options.attrs.four_byte_asn ==
             b.tx_options.attrs.four_byte_asn &&
         a.config.mrai == b.config.mrai &&
         a.config.export_class == b.config.export_class &&
         a.config.export_policy == b.config.export_policy;
}

void BgpSpeaker::join_group(PeerId peer) {
  Session& s = session(peer);
  if (s.group != 0) return;
  std::uint64_t key = export_fingerprint(peer);
  ExportGroup* group = nullptr;
  // The fingerprint is a hash: verify content against the candidate group's
  // representative and perturb the key on a genuine collision.
  while (true) {
    auto it = group_by_key_.find(key);
    if (it == group_by_key_.end()) break;
    ExportGroup& candidate = *groups_.at(it->second);
    if (fingerprint_matches(peer, candidate)) {
      group = &candidate;
      break;
    }
    key = mix64(key + 1);
  }
  if (group == nullptr) {
    auto owned = std::make_unique<ExportGroup>();
    group = owned.get();
    group->id = next_group_id_++;
    group->key = key;
    groups_.emplace(group->id, std::move(owned));
    group_by_key_.emplace(key, group->id);
  }
  group->members.insert(
      std::lower_bound(group->members.begin(), group->members.end(), peer),
      peer);
  // The memo caches group-level evaluation results keyed only on (source
  // attrs, origin): the export contract makes the hooks pure in those, so
  // only a prefix-dependent policy rules it out. A source-driven class
  // bypasses the policy.
  auto shit = source_export_hooks_.find(s.config.export_class);
  group->source_driven = shit != source_export_hooks_.end();
  group->source_hook = group->source_driven ? shit->second : nullptr;
  group->memo_enabled = group->source_driven ||
                        s.config.export_policy.prefix_independent();
  s.group = group->id;
  s.group_cursor = group->log_end();
  s.needs_full = true;
  obs_group_members_->record(group->members.size());
}

void BgpSpeaker::leave_group(PeerId peer) {
  Session& s = session(peer);
  if (s.group == 0) return;
  auto it = groups_.find(s.group);
  s.group = 0;
  s.group_cursor = 0;
  s.needs_full = false;
  if (it == groups_.end()) return;
  ExportGroup& group = *it->second;
  auto m = std::find(group.members.begin(), group.members.end(), peer);
  if (m != group.members.end()) group.members.erase(m);
  if (group.members.empty()) {
    group_by_key_.erase(group.key);
    groups_.erase(it);
  } else {
    trim_group_log(group);
  }
}

void BgpSpeaker::refingerprint_peer(PeerId peer) {
  Session& s = session(peer);
  std::uint64_t old_group = s.group;
  if (old_group != 0) {
    // The peer's policy may have been edited in place before this call;
    // results memoized under the old content are no longer trustworthy.
    auto it = groups_.find(old_group);
    if (it != groups_.end()) it->second->memo.clear();
  }
  leave_group(peer);
  if (s.state != SessionState::kEstablished) return;
  join_group(peer);
  auto it = groups_.find(s.group);
  if (it != groups_.end()) it->second->memo.clear();
}

void BgpSpeaker::refingerprint_established() {
  for (PeerId id = 1; id < sessions_.size(); ++id) {
    if (sessions_[id]->state == SessionState::kEstablished)
      refingerprint_peer(id);
  }
}

void BgpSpeaker::clear_group_memos() {
  for (auto& [id, group] : groups_) group->memo.clear();
}

void BgpSpeaker::trim_group_log(ExportGroup& group) {
  std::uint64_t min_cursor = group.log_end();
  for (PeerId member : group.members) {
    const Session& s = session(member);
    if (s.needs_full) continue;  // resyncs from the table, not the log
    min_cursor = std::min(min_cursor, s.group_cursor);
  }
  while (group.log_base < min_cursor && !group.log.empty()) {
    group.log.pop_front();
    ++group.log_base;
  }
}

void BgpSpeaker::set_export_hook(ExportHook hook) {
  export_hook_ = std::move(hook);
  // Memoized results may embed old hook output; rejoining marks every
  // member for a full resync under the new hook.
  clear_group_memos();
  refingerprint_established();
}

void BgpSpeaker::set_source_export_hook(std::uint64_t export_class,
                                        SourceExportHook hook) {
  if (export_class == 0) return;  // class 0 always takes the general path
  if (hook) {
    source_export_hooks_[export_class] = std::move(hook);
  } else {
    source_export_hooks_.erase(export_class);
  }
  // Registration flips the class's evaluation mode: stale memos and stale
  // group flags both need rebuilding.
  clear_group_memos();
  refingerprint_established();
}

void BgpSpeaker::invalidate_export_memos() { clear_group_memos(); }

void BgpSpeaker::set_peer_mrai(PeerId peer, Duration mrai) {
  Session& s = session(peer);
  if (s.config.mrai == mrai) return;
  s.config.mrai = mrai;
  if (s.state == SessionState::kEstablished) {
    clear_group_memos();
    refingerprint_peer(peer);
  }
}

std::uint64_t BgpSpeaker::export_group_of(PeerId peer) const {
  const Session* s = find_session(peer);
  return s ? s->group : 0;
}

std::size_t BgpSpeaker::export_subgroup_size(PeerId peer) const {
  const Session& s = session(peer);
  if (s.group == 0) return 0;
  std::size_t n = 0;
  for (PeerId member : groups_.at(s.group)->members)
    if (session(member).out == s.out) ++n;
  return n;
}

void BgpSpeaker::fan_out_export(const Ipv4Prefix& prefix, PeerId origin) {
  for (auto& [id, group] : groups_) {
    // A singleton group whose sole member originated the change would log
    // an entry nobody ever consumes (split horizon skips it at drain, and
    // a later joiner resyncs from the table, not the log): the source
    // session of a busy feed would otherwise grow a dead log forever.
    if (group->members.size() == 1 && group->members.front() == origin)
      continue;
    group->log.push_back(GroupLogEntry{prefix, origin});
    if (group->log.size() > pipeline_.peer_queue_capacity) {
      // Bounded log: members whose cursor falls off the front detect it at
      // drain time and fall back to a full-table reevaluation.
      group->log.pop_front();
      ++group->log_base;
    }
    for (PeerId member : group->members) {
      if (member == origin) continue;
      schedule_flush(member);
    }
  }
}

bool BgpSpeaker::member_has_pending(PeerId peer) const {
  const Session& s = session(peer);
  if (s.group == 0) return false;
  auto it = groups_.find(s.group);
  if (it == groups_.end()) return false;
  const ExportGroup& group = *it->second;
  if (s.needs_full || s.group_cursor < group.log_base) {
    // A full resync with nothing to sync (empty table, nothing advertised)
    // is not pending work — scheduling it would only rearm MRAI.
    return loc_rib_.prefix_count() > 0 || !s.out->prefixes.empty();
  }
  for (std::uint64_t seq = s.group_cursor; seq < group.log_end(); ++seq) {
    if (group.log[seq - group.log_base].origin != peer) return true;
  }
  return false;
}

void BgpSpeaker::evaluate_group(ExportGroup& group, const Ipv4Prefix& prefix,
                                std::vector<GroupAdvert>& out) {
  PeerId rep = group.members.front();
  const Session& s = session(rep);
  obs_group_evals_->inc();
  // ADD-PATH groups export every candidate: borrow the Loc-RIB's own
  // vector instead of copying it (nothing below mutates the RIB — hooks
  // and policies only transform attribute sets).
  std::span<const RibRoute> sources;
  std::optional<RibRoute> best;
  if (s.config.export_all_paths && s.addpath_tx) {
    if (const auto* candidates = loc_rib_.candidates_ref(prefix))
      sources = *candidates;
  } else if ((best = loc_rib_.best(prefix))) {
    sources = std::span<const RibRoute>(&*best, 1);
  }
  // Records one advert with its wire template, resolved through the encode
  // cache here: once per group, in the order the drain evaluates groups,
  // which is the order the pool's hit/miss counters accrue in. Adverts
  // carry pool-interned sets (adopt/commit and the memo guarantee it), and
  // pool entries are node-based and only sweep() frees them, so every
  // member's send splices from these bytes for the rest of the drain.
  auto emit = [&](const RibRoute& route, AttrsPtr attrs, bool splice,
                  std::optional<Ipv4Address> splice_nh) {
    GroupAdvert& advert =
        out.emplace_back(GroupAdvert{route.peer, route.path_id, route.attrs,
                                     std::move(attrs), splice, splice_nh});
    advert.wire = &attr_pool_.encoded(advert.attrs, s.tx_options.attrs,
                                      &advert.nh_offset);
  };
  for (const RibRoute& route : sources) {
    // No split horizon here: the source route rides along in the advert and
    // classify_members skips each member's own.
    if (group.memo_enabled) {
      auto mit = group.memo.find(
          ExportGroup::MemoKey{route.attrs.get(), route.peer});
      if (mit != group.memo.end()) {
        obs_group_memo_hits_->inc();
        if (mit->second.result) {
          emit(route, mit->second.result, mit->second.splice,
               mit->second.splice_nh);
        }
        continue;
      }
    }
    bool splice = false;
    std::optional<Ipv4Address> splice_nh;
    AttrsPtr result;
    if (group.source_driven) {
      // Source-driven class: the source set is the template — no clone, no
      // re-intern — and the hook only picks the next-hop, spliced over the
      // cached wire bytes at send time.
      if (export_eligible(rep, route)) {
        if (auto nh = group.source_hook(route)) {
          result = route.attrs;
          if (*nh != route.attrs->next_hop) {
            splice = true;
            splice_nh = *nh;
          }
        }
      }
    } else {
      AttrBuilder builder(route.attrs);
      if (standard_export_transform(rep, route, builder, &splice) &&
          s.config.export_policy.apply(prefix, builder)) {
        // As on import: intern only the post-hook set, so a hook that
        // replaces the candidate (vBGP's control-community strip) never
        // inserts the discarded intermediate into the pool.
        if (export_hook_) {
          auto hooked = export_hook_(rep, route, builder.release());
          if (hooked) result = attr_pool_.adopt(*hooked);
        } else {
          result = builder.commit(attr_pool_);
        }
      }
      // A policy action or hook that pinned a concrete next-hop overrides
      // the placeholder: the template's next-hop is final, nothing to
      // splice.
      if (result && splice && result->next_hop != kNhPlaceholder)
        splice = false;
    }
    if (group.memo_enabled && group.memo.size() < 65536) {
      group.memo.emplace(
          ExportGroup::MemoKey{route.attrs.get(), route.peer},
          ExportGroup::MemoValue{route.attrs, result, splice, splice_nh});
    }
    if (result) emit(route, std::move(result), splice, splice_nh);
  }
}

void BgpSpeaker::schedule_flush(PeerId to, bool immediate) {
  Session& s = session(to);
  if (s.state != SessionState::kEstablished) return;
  if (s.flush_scheduled) return;
  if (!member_has_pending(to)) return;
  s.flush_scheduled = true;

  SimTime now = loop_->now();
  SimTime at = now;
  if (!immediate && s.next_flush_allowed > now) at = s.next_flush_allowed;
  s.flush_at = at;
  auto it = flush_batches_.find(at);
  const bool inserted = it == flush_batches_.end();
  if (inserted && spare_batches_.empty()) {
    it = flush_batches_.try_emplace(at).first;
  } else if (inserted) {
    FlushBatches::node_type node = std::move(spare_batches_.back());
    spare_batches_.pop_back();
    node.key() = at;
    node.mapped().clear();
    it = flush_batches_.insert(std::move(node)).position;
  }
  it->second.push_back(to);
  // One drain event per distinct flush instant: every peer due then shares
  // the event, and members of one subgroup share an encode.
  if (inserted)
    loop_->schedule_at(at, [this, at]() { drain_flush_batch(at); });
}

void BgpSpeaker::drain_flush_batch(SimTime at) {
  auto node = flush_batches_.extract(at);
  if (node.empty()) return;
  std::vector<PeerId>& peers = node.mapped();
  // Ascending peer order — the order the per-peer flush events fired in
  // before batching, and independent of how the batch was filled.
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());

  DrainScratch& d = *drain_;
  ++d.epoch;
  d.due.clear();
  d.window_count = 0;
  d.window_plan.clear();
  d.plan_count = 0;
  // The group's plan in this drain, opened on its first due member.
  auto plan_of = [&](ExportGroup& group) -> DrainScratch::GroupPlan& {
    if (group.drain_epoch != d.epoch) {
      group.drain_epoch = d.epoch;
      group.plan = d.plan_count++;
      if (group.plan == d.plans.size()) d.plans.emplace_back();
      DrainScratch::GroupPlan& plan = d.plans[group.plan];
      plan.group = &group;
      plan.order.clear();
      plan.last_log_window = DrainScratch::kNoWindow;
      plan.resync_windows.clear();
      plan.fresh.clear();
      plan.eval.spans.clear();
      plan.eval.adverts.clear();
    }
    return d.plans[group.plan];
  };

  // Plan: decide which members are due and which prefixes each must
  // diff (its window), consuming cursors and needs_full flags now so the
  // phases below only read group state. Equal windows of one
  // group are stored once: members consuming the same log range share the
  // list, which is what lets them share an encode below.
  // Full-resync lists are identical for every member of one group whose
  // table is the same (or empty: the whole Loc-RIB, sorted): compute once
  // per table per batch. A mass join — hundreds of sessions syncing the
  // initial table in one batch — would otherwise walk and sort the full
  // table once per member, and a subgroup whose cursors fell off the
  // trimmed log together would splinter into one window per member.
  // Members resyncing from empty tables also end with identical tables, so
  // they form one new subgroup: each adopts the table of the first one
  // (per local path-id counter, which an emptied table may have advanced).
  for (PeerId peer : peers) {
    Session& s = session(peer);
    // flush_at distinguishes this batch from a newer one scheduled after a
    // session bounce; stale memberships are simply skipped.
    if (!s.flush_scheduled || s.flush_at != at) continue;
    s.flush_scheduled = false;
    if (s.state != SessionState::kEstablished || s.group == 0) continue;
    ExportGroup& group = *groups_.at(s.group);
    DrainScratch::GroupPlan& plan = plan_of(group);

    std::size_t window = d.window_count;
    if (window == d.windows.size()) d.windows.emplace_back();
    std::vector<Ipv4Prefix>& prefixes = d.windows[window];
    prefixes.clear();
    if (s.needs_full || s.group_cursor < group.log_base) {
      // Why this member resyncs: a deliberate full sync (initial table,
      // refresh, group rejoin) vs. a cursor lost to delta-log trimming —
      // the latter signals an undersized peer_queue_capacity.
      (s.needs_full ? obs_resync_initial_ : obs_resync_log_trim_)->inc();
      // Full resync: every Loc-RIB prefix plus everything currently
      // advertised, so stale adverts are withdrawn too.
      const bool fresh = s.out->prefixes.empty();
      const OutTable* table = fresh ? nullptr : s.out.get();
      auto known = std::find_if(
          plan.resync_windows.begin(), plan.resync_windows.end(),
          [&](const auto& r) { return r.first == table; });
      if (known != plan.resync_windows.end()) {
        window = known->second;
      } else {
        loc_rib_.visit_all(
            [&](const RibRoute& route) { prefixes.push_back(route.prefix); });
        for (const auto& [prefix, po] : s.out->prefixes)
          prefixes.push_back(prefix);
        std::sort(prefixes.begin(), prefixes.end());
        prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                       prefixes.end());
        plan.resync_windows.emplace_back(table, window);
      }
      if (fresh) {
        auto first = std::find_if(
            plan.fresh.begin(), plan.fresh.end(),
            [&](const auto& f) { return f.first == s.out->next_out_id; });
        if (first == plan.fresh.end())
          plan.fresh.emplace_back(s.out->next_out_id, peer);
        else
          s.out = session(first->second).out;
      }
    } else {
      for (std::uint64_t seq = s.group_cursor; seq < group.log_end(); ++seq) {
        const GroupLogEntry& entry = group.log[seq - group.log_base];
        if (entry.origin != peer) prefixes.push_back(entry.prefix);
      }
      std::sort(prefixes.begin(), prefixes.end());
      prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                     prefixes.end());
      // The overwhelmingly common case is every member consuming the same
      // log window: one comparison per member against the group's last one.
      if (plan.last_log_window != DrainScratch::kNoWindow &&
          d.windows[plan.last_log_window] == prefixes)
        window = plan.last_log_window;
      else
        plan.last_log_window = window;
    }
    s.needs_full = false;
    s.group_cursor = group.log_end();

    if (window == d.window_count) {
      // A new window: fold it into the group's prefix union (identical
      // lists are detected by equality, so a thousand-member group does not
      // re-sort a growing concatenation).
      if (plan.order.empty()) {
        plan.order = prefixes;
      } else if (plan.order != prefixes) {
        plan.order.insert(plan.order.end(), prefixes.begin(), prefixes.end());
      }
      ++d.window_count;
      d.window_plan.push_back(group.plan);
    }
    d.due.push_back({window, peer, &s});
  }
  // The batch node carries the next flush instant's batch.
  spare_batches_.push_back(std::move(node));

  // Groups in ascending id: the order Phase A runs in.
  d.plan_order.resize(d.plan_count);
  for (std::size_t p = 0; p < d.plan_count; ++p) d.plan_order[p] = p;
  auto by_group_id = [&](std::size_t a, std::size_t b) {
    return d.plans[a].group->id < d.plans[b].group->id;
  };
  if (!std::is_sorted(d.plan_order.begin(), d.plan_order.end(), by_group_id))
    std::sort(d.plan_order.begin(), d.plan_order.end(), by_group_id);
  for (std::size_t p : d.plan_order) {
    DrainScratch::GroupPlan& plan = d.plans[p];
    std::sort(plan.order.begin(), plan.order.end());
    plan.order.erase(std::unique(plan.order.begin(), plan.order.end()),
                     plan.order.end());
    // Pre-trim depth: how far behind the slowest member let the log grow.
    obs_group_log_depth_->record(plan.group->log.size());
    trim_group_log(*plan.group);
  }
  auto& due = d.due;
  if (due.empty()) return;
  obs_flush_batch_->record(due.size());

  // Phase A — group evaluation: transform + policy + export hook run once
  // per (group, prefix), in ascending group id, producing the shared advert
  // templates and their wire images.
  for (std::size_t p : d.plan_order) {
    DrainScratch::GroupPlan& plan = d.plans[p];
    GroupEval& eval = plan.eval;
    eval.spans.reserve(plan.order.size());
    for (const Ipv4Prefix& prefix : plan.order) {
      auto before = static_cast<std::uint32_t>(eval.adverts.size());
      evaluate_group(*plan.group, prefix, eval.adverts);
      eval.spans.emplace_back(
          before, static_cast<std::uint32_t>(eval.adverts.size()) - before);
    }
  }

  // Phase B — encode, once per class. A unit is the due members that
  // share one table and one window; classify_members splits it into
  // classes by their include decisions and next-hop, and each class diffs
  // its table against the group evaluation, assembles the wire from the
  // templates and splices the next-hop. A class that writes a table other
  // sessions still reference takes a private copy first, so which class
  // copies depends on the order: each table sees its units in ascending
  // window id and each unit's members in peer order. Order across tables
  // is free, since no two of them share anything.
  auto by_window = [](const DrainScratch::Due& a, const DrainScratch::Due& b) {
    return a.window != b.window ? a.window < b.window : a.peer < b.peer;
  };
  if (!std::is_sorted(due.begin(), due.end(), by_window))
    std::sort(due.begin(), due.end(), by_window);
  if (d.results.size() < due.size()) d.results.resize(due.size());
  auto encode_class = [&](const EncodeClass& cls,
                          const std::vector<Ipv4Prefix>& window,
                          const DrainScratch::GroupPlan& plan) {
    const std::size_t leader = cls.members.front();
    const std::shared_ptr<OutTable>& table = due[leader].session->out;
    OutWriter out{table.get(),
                  static_cast<std::size_t>(table.use_count()) -
                      cls.members.size()};
    bool stream_open = false;
    for (std::size_t i : cls.members) {
      const Session& s = *due[i].session;
      stream_open = stream_open || (s.stream && s.stream->open());
    }
    encode_member(*due[leader].session, out, cls.keep, stream_open, window,
                  plan.order, plan.eval, d.results[leader]);
    if (out.copy) {
      for (std::size_t i : cls.members) due[i].session->out = out.copy;
      obs_subgroup_splits_[cls.reason]->inc();
    }
    for (std::size_t i : cls.members) due[i].window = leader;
    obs_member_encodes_own_->inc();
    if (cls.members.size() > 1)
      obs_member_encodes_shared_->add(cls.members.size() - 1);
  };
  obs::Span encode_span(encode_span_, nullptr);  // wall-clock encode latency
  for (std::size_t u = 0; u < due.size();) {
    const std::size_t w = due[u].window;
    // Move the window's other members on u's table up behind u, in order.
    // Only the table's other holders can be among them, so a private
    // table ends the search at once.
    const std::shared_ptr<OutTable>& table = due[u].session->out;
    auto others = static_cast<std::size_t>(table.use_count()) - 1;
    std::size_t end = u + 1;
    for (std::size_t k = end;
         others > 0 && k < due.size() && due[k].window == w; ++k) {
      if (due[k].session->out != table) continue;
      std::rotate(due.begin() + end, due.begin() + k, due.begin() + k + 1);
      ++end;
      --others;
    }
    const DrainScratch::GroupPlan& plan = d.plans[d.window_plan[w]];
    const std::size_t classes =
        classify_members(u, end, d.windows[w], plan.order, plan.eval);
    for (std::size_t c = 0; c < classes; ++c)
      encode_class(d.classes[c], d.windows[w], plan);
    u = end;
  }
  encode_span.finish();

  // Phase C — transmit + stats, ascending peer order: one coalesced
  // stream send per peer (the decoder reassembles message-by-message).
  // Members of one class send the same image and take the same stat
  // deltas, as each would have from its own encode.
  auto by_peer = [](const DrainScratch::Due& a, const DrainScratch::Due& b) {
    return a.peer < b.peer;
  };
  if (!std::is_sorted(due.begin(), due.end(), by_peer))
    std::sort(due.begin(), due.end(), by_peer);
  for (const DrainScratch::Due& member : due) {
    Session& s = *member.session;
    const EncodeResult& r = d.results[member.window];
    if (s.config.mrai > Duration::nanos(0))
      s.next_flush_allowed = loop_->now() + s.config.mrai;
    s.stats.updates_sent += r.updates;
    total_updates_tx_ += r.updates;
    if (r.updates > 0) {
      obs_updates_out_->add(r.updates);
      s.obs_updates_out->add(r.updates);
    }
    if (!s.stream || !s.stream->open()) continue;
    if (!r.wire->empty()) s.stream->send(sim::StreamImage(r.wire));
    s.stats.attr_encode_cache_hits += r.cache_hits;
    if (r.splices > 0) obs_group_splices_->add(r.splices);
  }
  // Let go of the adverts' attribute sets, which would otherwise stay
  // pinned in the pool until the next drain.
  for (std::size_t p = 0; p < d.plan_count; ++p)
    d.plans[p].eval.adverts.clear();
}

std::size_t BgpSpeaker::classify_members(
    std::size_t begin, std::size_t end,
    const std::vector<Ipv4Prefix>& prefixes,
    const std::vector<Ipv4Prefix>& group_order, const GroupEval& eval) {
  DrainScratch& d = *drain_;
  std::size_t count = 0;
  for (std::size_t member = begin; member < end; ++member) {
    const PeerId to = d.due[member].peer;
    const Session& s = *d.due[member].session;
    // Decide into the next free class slot; it becomes a class only when
    // no live class has the same decisions.
    if (count == d.classes.size()) d.classes.emplace_back();
    EncodeClass& candidate = d.classes[count];
    std::vector<std::uint8_t>& keep = candidate.keep;
    keep.clear();
    bool own_origin = false;
    bool own_next_hop = false;
    // The merge-walk encode_member repeats to read these decisions back.
    std::size_t gi = 0;
    for (const Ipv4Prefix& prefix : prefixes) {
      while (gi < group_order.size() && group_order[gi] < prefix) ++gi;
      if (gi == group_order.size() || group_order[gi] != prefix) continue;
      auto [off, count_at] = eval.spans[gi];
      for (std::uint32_t a = off; a < off + count_at; ++a) {
        const GroupAdvert& advert = eval.adverts[a];
        bool include = false;
        if (advert.origin == to) {
          own_origin = true;  // split horizon
        } else {
          include = !export_filter_ ||
                    export_filter_(to, *advert.source_attrs);
        }
        if (include && advert.splice && !advert.splice_nh) own_next_hop = true;
        keep.push_back(include ? 1 : 0);
      }
    }
    // The next-hop only separates members when one of their sends carries
    // the member's own address.
    const Ipv4Address next_hop =
        own_next_hop ? s.config.local_address : Ipv4Address();
    auto cls = std::find_if(d.classes.begin(), d.classes.begin() + count,
                            [&](const EncodeClass& c) {
                              return c.next_hop == next_hop && c.keep == keep;
                            });
    if (cls != d.classes.begin() + count) {
      cls->members.push_back(member);
      continue;
    }
    candidate.members.assign(1, member);
    candidate.own_origin = own_origin;
    candidate.next_hop = next_hop;
    candidate.reason = kSplitWindow;
    if (count > 0) {
      const EncodeClass& first = d.classes.front();
      candidate.reason = (own_origin || first.own_origin) ? kSplitHorizon
                         : candidate.keep != first.keep   ? kSplitFilter
                                                          : kSplitNextHop;
      if (count == 1) d.classes.front().reason = candidate.reason;
    }
    ++count;
  }
  return count;
}

void BgpSpeaker::encode_member(const Session& s, OutWriter& out,
                               const std::vector<std::uint8_t>& keep,
                               bool stream_open,
                               const std::vector<Ipv4Prefix>& prefixes,
                               const std::vector<Ipv4Prefix>& group_order,
                               const GroupEval& eval, EncodeResult& r) {
  DrainScratch& d = *drain_;
  r.updates = r.cache_hits = r.splices = 0;
  // Every message of the class goes into one image. The slot's image from
  // an earlier drain is reused once every receiver has read it.
  if (r.wire.use_count() == 1) {
    r.wire->clear();
  } else {
    r.wire = std::make_shared<Bytes>();
  }
  // Read through `table` until the first write, which goes through the
  // copy-on-write handle.
  OutTable* table = out.table;
  bool writable = false;
  std::size_t next_keep = 0;
  std::vector<NlriEntry>& withdrawals = d.withdrawals;
  std::vector<const GroupAdvert*>& chosen = d.chosen;
  std::vector<std::pair<std::uint32_t, const GroupAdvert*>>& desired =
      d.desired;
  std::vector<NlriEntry>& nlri = d.nlri;
  withdrawals.clear();
  // Merge-walk: the window is a sorted subset of the group's sorted prefix
  // list, so each prefix's advert span is found by advancing a single
  // index — no per-prefix hashing.
  std::size_t gi = 0;
  for (const Ipv4Prefix& prefix : prefixes) {
    const GroupAdvert* abegin = nullptr;
    const GroupAdvert* aend = nullptr;
    while (gi < group_order.size() && group_order[gi] < prefix) ++gi;
    if (gi < group_order.size() && group_order[gi] == prefix) {
      auto [off, count] = eval.spans[gi];
      abegin = eval.adverts.data() + off;
      aend = abegin + count;
    }

    // Member-level selection over the group templates: the class's split
    // horizon and export filter decisions, then local path-id allocation.
    chosen.clear();
    for (const GroupAdvert* ap = abegin; ap != aend; ++ap)
      if (keep[next_keep++] != 0) chosen.push_back(ap);
    auto poit = table->prefixes.find(prefix);
    if (chosen.empty() && poit == table->prefixes.end()) continue;
    if (!writable) {
      table = &out.write();
      // A full-table sync lands here with one prefix per Loc-RIB entry;
      // reserving up front avoids incremental rehashes of a large table. A
      // window smaller than the table mostly rewrites what is there, and
      // reserving for it would rehash the table for nothing.
      auto& map = table->prefixes;
      if (prefixes.size() > map.size() &&
          map.size() + prefixes.size() > map.bucket_count())
        map.reserve(map.size() + prefixes.size());
      poit = map.find(prefix);
      writable = true;
    }

    desired.clear();
    for (const GroupAdvert* ap : chosen) {
      const GroupAdvert& advert = *ap;
      std::uint32_t local_id = 0;
      if (s.addpath_tx) {
        if (poit == table->prefixes.end())
          poit = table->prefixes.emplace(prefix, OutTable::PrefixOut{}).first;
        auto& paths = poit->second.paths;
        auto idit =
            std::find_if(paths.begin(), paths.end(), [&](const auto& p) {
              return p.origin == advert.origin &&
                     p.origin_path_id == advert.origin_path_id;
            });
        if (idit == paths.end()) {
          paths.push_back({advert.origin, advert.origin_path_id,
                           table->next_out_id++, false, OutRoute{}});
          ++table->path_entries;
          idit = std::prev(paths.end());
        }
        local_id = idit->local_id;
      }
      desired.emplace_back(local_id, &advert);
    }
    if (!s.addpath_tx && desired.size() > 1) desired.resize(1);
    if (poit == table->prefixes.end()) {
      if (desired.empty()) continue;
      poit = table->prefixes.emplace(prefix, OutTable::PrefixOut{}).first;
    }

    auto& paths = poit->second.paths;

    // Withdraw adverts that are no longer desired. `paths` is sorted by
    // ascending local id (ids are allocated monotonically), matching the
    // withdrawal emission order of the old ordered-map representation.
    // Withdrawn entries stay (inactive) so a re-advertisement of the same
    // origin path reuses its local id while the prefix remains advertised.
    for (auto& p : paths) {
      if (!p.active) continue;
      bool still = false;
      for (const auto& [id, advert] : desired) {
        if (id == p.local_id) {
          still = true;
          break;
        }
      }
      if (!still) {
        withdrawals.push_back({p.local_id, prefix});
        p.active = false;
        p.route = OutRoute{};
        --table->active_paths;
      }
    }

    // Advertise new/changed paths (one UPDATE per path; production
    // implementations batch by shared attributes). Unchanged adverts are
    // detected by pointer identity on the shared template — interned sets
    // compare in O(1) — plus the spliced next-hop.
    for (const auto& [id, advert] : desired) {
      const Ipv4Address final_nh =
          advert->splice ? (advert->splice_nh ? *advert->splice_nh
                                              : s.config.local_address)
                         : advert->attrs->next_hop;
      auto it = std::lower_bound(
          paths.begin(), paths.end(), id,
          [](const auto& p, std::uint32_t v) { return p.local_id < v; });
      if (it == paths.end() || it->local_id != id) {
        it = paths.insert(
            it, {advert->origin, advert->origin_path_id, id, false, OutRoute{}});
        ++table->path_entries;
      }
      if (it->active && it->route.attrs == advert->attrs &&
          it->route.next_hop == final_nh)
        continue;
      if (!it->active) ++table->active_paths;
      it->active = true;
      it->origin = advert->origin;
      it->origin_path_id = advert->origin_path_id;
      it->route = OutRoute{advert->origin, advert->origin_path_id,
                           advert->attrs, final_nh};
      if (stream_open) {
        nlri.assign(1, {id, prefix});
        // Resolved when the group evaluated the advert: this member's send
        // is a cache hit by construction.
        ++r.cache_hits;
        encode_update_spliced_into(
            *r.wire, *advert->wire,
            advert->splice ? advert->nh_offset : kNoNextHopOffset, final_nh,
            nlri, s.tx_options);
        if (advert->splice) ++r.splices;
      }
      ++r.updates;
    }
    // No desired paths means everything was withdrawn: drop the entry (and
    // with it the id mapping — matching the previous representation, which
    // erased once no route remained).
    if (desired.empty()) {
      table->path_entries -= paths.size();
      table->prefixes.erase(poit);
    }
  }

  if (!withdrawals.empty()) {
    if (stream_open)
      encode_withdrawals_into(*r.wire, withdrawals, s.tx_options);
    ++r.updates;
  }
}

void BgpSpeaker::send_initial_table(PeerId to) {
  Session& s = session(to);
  s.needs_full = true;
  schedule_flush(to, /*immediate=*/true);
}

void BgpSpeaker::send_message(PeerId peer, const BgpMessage& message) {
  Session& s = session(peer);
  if (!s.stream || !s.stream->open()) return;
  s.stream->send(encode_message(message, s.tx_options));
}

void BgpSpeaker::send_notification(PeerId peer, NotificationCode code,
                                   std::uint8_t subcode,
                                   const std::string& reason) {
  Session& s = session(peer);
  NotificationMessage msg;
  msg.code = code;
  msg.subcode = subcode;
  msg.data.assign(reason.begin(), reason.end());
  send_message(peer, msg);
  ++s.stats.notifications_sent;
}

void BgpSpeaker::arm_hold_timer(PeerId peer) {
  Session& s = session(peer);
  if (s.negotiated_hold == 0) {  // hold timer disabled
    ++s.hold_gen;
    s.hold_scheduled = false;
    return;
  }
  s.hold_deadline = loop_->now() + Duration::seconds(s.negotiated_hold);
  // A pending check that fires at or after the deadline honors the refresh
  // by chasing. A check queued for *later* than the new deadline cannot —
  // that happens when OPEN negotiation shrinks the hold time below the
  // pre-negotiation default — so supersede it with an earlier one.
  if (s.hold_scheduled && s.hold_check_at <= s.hold_deadline) return;
  s.hold_scheduled = true;
  schedule_hold_check(peer, ++s.hold_gen);
}

void BgpSpeaker::schedule_hold_check(PeerId peer, std::uint64_t gen) {
  Session& s = session(peer);
  s.hold_check_at = s.hold_deadline;
  loop_->schedule_at(s.hold_deadline, [this, peer, gen]() {
    Session& s = session(peer);
    if (s.hold_gen != gen || s.state == SessionState::kIdle) return;
    if (loop_->now() < s.hold_deadline) {
      // Traffic arrived since this check was queued: chase the new deadline.
      schedule_hold_check(peer, gen);
      return;
    }
    s.hold_scheduled = false;
    send_notification(peer, NotificationCode::kHoldTimerExpired, 0,
                      "hold timer expired");
    session_down(peer, "hold timer expired");
  });
}

void BgpSpeaker::arm_keepalive_timer(PeerId peer) {
  Session& s = session(peer);
  std::uint64_t gen = ++s.keepalive_gen;
  // RFC 4271 §4.4: a hold time of zero means no periodic KEEPALIVEs.
  if (s.negotiated_hold == 0) return;
  Duration interval = Duration::seconds(std::max<int>(1, s.negotiated_hold / 3));
  loop_->schedule_after(interval, [this, peer, gen]() {
    const Session& s = session(peer);
    if (s.keepalive_gen != gen || s.state != SessionState::kEstablished)
      return;
    send_message(peer, KeepaliveMessage{});
    arm_keepalive_timer(peer);
  });
}

void BgpSpeaker::session_down(PeerId peer, const std::string& reason) {
  Session& s = session(peer);
  if (s.state == SessionState::kIdle) return;
  LOG_INFO("bgp", name_ << ": session with " << s.config.name << " down: "
                        << reason);
  s.state = SessionState::kIdle;
  ++s.hold_gen;
  ++s.keepalive_gen;
  s.hold_scheduled = false;
  if (s.stream) {
    s.stream->close();
    s.stream.reset();
  }
  // Drop this session's reference only: the rest of its subgroup keeps the
  // shared table.
  s.out = std::make_shared<OutTable>();
  s.flush_scheduled = false;
  leave_group(peer);

  // Withdraw everything learned from this peer, in (prefix, path id)
  // order. One fan-out per prefix: a second delta-log entry for the same
  // prefix would grow the log without changing what the drain sends.
  std::vector<RibRoute> removed;
  if (s.rib_routes > 0) removed = loc_rib_.withdraw_peer(peer);
  s.rib_routes = 0;
  for (std::size_t i = 0; i < removed.size(); ++i) {
    const bool first_of_prefix =
        i == 0 || removed[i - 1].prefix != removed[i].prefix;
    apply_change(removed[i], /*withdrawn=*/true, first_of_prefix);
  }
  // The churned-out table may have been the last reference to many pooled
  // attribute sets (and their cached encodings); release them now so a
  // flapping session does not leave the pool inflated. `removed` still
  // pins them, and so do group memos keyed on routes this peer sourced —
  // drop both first or the sweep frees nothing.
  clear_group_memos();
  removed.clear();
  attr_pool_.sweep();
  metrics_->trace().emit(
      loop_->now(), "bgp", "session_down",
      {{"speaker", name_}, {"peer", s.config.name}, {"reason", reason}});
  note_transition(peer, SessionState::kIdle);
}

std::size_t BgpSpeaker::memory_bytes() const {
  std::size_t bytes = attr_pool_.memory_bytes() + loc_rib_.memory_bytes();
  bytes += originated_.size() * (sizeof(Ipv4Prefix) + sizeof(AttrsPtr) +
                                 4 * sizeof(void*));
  return bytes;
}

void BgpSpeaker::publish_metrics(obs::Registry& registry) const {
  auto i64 = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  obs::Labels labels{{"speaker", name_}};
  const AttrPool::Stats& pool = attr_pool_.stats();
  registry.gauge("bgp_attr_pool_sets", labels)->set(i64(attr_pool_.size()));
  registry.gauge("bgp_attr_pool_bytes", labels)
      ->set(i64(attr_pool_.memory_bytes()));
  registry.gauge("bgp_attr_encode_cache_bytes", labels)
      ->set(i64(attr_pool_.encode_cache_bytes()));
  registry.gauge("bgp_attr_intern_hits", labels)->set(i64(pool.intern_hits));
  registry.gauge("bgp_attr_intern_misses", labels)
      ->set(i64(pool.intern_misses));
  registry.gauge("bgp_attr_encode_hits", labels)->set(i64(pool.encode_hits));
  registry.gauge("bgp_attr_encode_misses", labels)
      ->set(i64(pool.encode_misses));
  registry.gauge("bgp_locrib_prefixes", labels)
      ->set(i64(loc_rib_.prefix_count()));
  registry.gauge("bgp_locrib_paths", labels)->set(i64(loc_rib_.route_count()));
  registry.gauge("bgp_memory_bytes", labels)->set(i64(memory_bytes()));
  registry.gauge("bgp_export_group_count", labels)
      ->set(static_cast<std::int64_t>(groups_.size()));
  // Adj-RIB-Out size and sharing: a subgroup's table counts once, however
  // many members reference it. Kept out of memory_bytes(), which is the
  // Figure-6a quantity.
  std::vector<const OutTable*> tables;
  for (PeerId id = 1; id < sessions_.size(); ++id)
    if (sessions_[id]->group != 0) tables.push_back(sessions_[id]->out.get());
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  std::size_t out_paths = 0;
  std::size_t out_bytes = 0;
  for (const OutTable* table : tables) {
    out_paths += table->active_paths;
    out_bytes += table->memory_bytes();
  }
  registry.gauge("bgp_export_subgroups", labels)->set(i64(tables.size()));
  registry.gauge("bgp_adj_out_paths", labels)->set(i64(out_paths));
  registry.gauge("bgp_adj_out_bytes", labels)->set(i64(out_bytes));

  for (PeerId id = 1; id < sessions_.size(); ++id) {
    const Session& s = *sessions_[id];
    obs::Labels peer_labels = labels;
    peer_labels.emplace_back("peer", s.config.name);
    registry.gauge("bgp_peer_session_up", peer_labels)
        ->set(s.state == SessionState::kEstablished ? 1 : 0);
    registry.gauge("bgp_peer_routes_rejected_import", peer_labels)
        ->set(i64(s.stats.routes_rejected_import));
    registry.gauge("bgp_peer_keepalives_in", peer_labels)
        ->set(i64(s.stats.keepalives_received));
    registry.gauge("bgp_peer_notifications_in", peer_labels)
        ->set(i64(s.stats.notifications_received));
    registry.gauge("bgp_peer_notifications_out", peer_labels)
        ->set(i64(s.stats.notifications_sent));
    registry.gauge("bgp_peer_encode_cache_hits", peer_labels)
        ->set(i64(s.stats.attr_encode_cache_hits));
    registry.gauge("bgp_peer_adj_rib_in_routes", peer_labels)
        ->set(i64(s.rib_routes));
  }
}

}  // namespace peering::bgp

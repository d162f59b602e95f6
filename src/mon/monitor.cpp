#include "mon/monitor.h"

#include <algorithm>
#include <utility>

#include "mon/propagation.h"
#include "netbase/bytes.h"

namespace peering::mon {

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control bytes) —
/// record fields are short ASCII identifiers and reasons.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += "\\u00";
      const char* hex = "0123456789abcdef";
      out.push_back(hex[(c >> 4) & 0xf]);
      out.push_back(hex[c & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

const char* record_type_name(RecordType type) {
  switch (type) {
    case RecordType::kRouteMonitoring:
      return "route_monitoring";
    case RecordType::kStatsReport:
      return "stats_report";
    case RecordType::kPeerDown:
      return "peer_down";
    case RecordType::kPeerUp:
      return "peer_up";
  }
  return "?";
}

std::string render_record_json(const MonitorRecord& record,
                               const std::string& speaker,
                               const std::string& peer_name) {
  std::string out = "{\"seq\":" + std::to_string(record.seq) +
                    ",\"at_ns\":" + std::to_string(record.at.ns()) +
                    ",\"type\":\"" + record_type_name(record.type) + "\"";
  if (!speaker.empty()) out += ",\"speaker\":\"" + json_escape(speaker) + "\"";
  out += ",\"peer\":\"" + json_escape(peer_name) + "\"";
  if (record.type == RecordType::kRouteMonitoring) {
    out += std::string(",\"post_policy\":") +
           (record.post_policy ? "true" : "false");
    out += std::string(",\"withdrawn\":") +
           (record.withdrawn ? "true" : "false");
    out += ",\"prefix\":\"" + record.prefix.str() + "\"";
    out += ",\"path_id\":" + std::to_string(record.path_id);
    if (record.attrs) {
      const bgp::PathAttributes& a = *record.attrs;
      out += ",\"next_hop\":\"" + a.next_hop.str() + "\"";
      out += ",\"as_path\":\"" + json_escape(a.as_path.str()) + "\"";
      out += ",\"origin\":" +
             std::to_string(static_cast<unsigned>(a.origin));
      if (a.local_pref)
        out += ",\"local_pref\":" + std::to_string(*a.local_pref);
      if (a.med) out += ",\"med\":" + std::to_string(*a.med);
      if (!a.communities.empty())
        out += ",\"communities\":" + std::to_string(a.communities.size());
    }
  }
  if (!record.info.empty())
    out += ",\"info\":\"" + json_escape(record.info) + "\"";
  out += "}";
  return out;
}

MonitorSession::MonitorSession(sim::EventLoop* loop, bgp::BgpSpeaker* speaker,
                               Options options)
    : loop_(loop),
      speaker_(speaker),
      options_(options),
      name_(speaker->name()),
      stats_gen_(std::make_shared<std::uint64_t>(0)) {
  obs::Labels labels{{"speaker", name_}};
  obs::Registry* registry = obs::Registry::global();
  obs_records_ = registry->counter("mon_records_total", labels);
  obs_dropped_ = registry->counter("mon_records_dropped_total", labels);
  // Reserve the record buffer up front (80 B records, at most 1<<17 of
  // them; the default 65,536 reserves 5.2 MB): records carry
  // attribute-handle/string members, so letting the vector grow geometrically
  // would move every buffered record several times over and the churn
  // shows up in the fig6b telemetry-overhead measurement.
  records_.reserve(std::min(options_.capacity, std::size_t{1} << 17));
  speaker_->set_monitor(this);
}

MonitorSession::MonitorSession(sim::EventLoop* loop, bgp::BgpSpeaker* speaker)
    : MonitorSession(loop, speaker, Options{}) {}

MonitorSession::~MonitorSession() { detach(); }

void MonitorSession::detach() {
  ++*stats_gen_;  // stops the recurring stats chain
  if (speaker_ != nullptr && speaker_->monitor() == this)
    speaker_->set_monitor(nullptr);
  speaker_ = nullptr;
}

std::string MonitorSession::peer_name(bgp::PeerId peer) const {
  if (peer == bgp::kLocalRoutes) return "local";
  if (speaker_ == nullptr) return std::to_string(peer);
  return speaker_->peer_config(peer).name;
}

MonitorRecord* MonitorSession::append() {
  if (records_.size() >= options_.capacity) {
    ++dropped_;
    obs_dropped_->inc();
    return nullptr;
  }
  records_.emplace_back();
  MonitorRecord& record = records_.back();
  record.seq = next_seq_++;
  record.at = loop_->now();
  obs_records_->inc();
  if (station_ != nullptr) station_->deliver(*this, records_.size() - 1);
  return &record;
}

void MonitorSession::push(MonitorRecord record) {
  MonitorRecord* slot = append();
  if (slot == nullptr) return;
  std::uint64_t seq = slot->seq;
  SimTime at = slot->at;
  *slot = std::move(record);
  slot->seq = seq;
  slot->at = at;
}

void MonitorSession::on_peer_state(bgp::PeerId peer,
                                   bgp::SessionState state) {
  // BMP reports only the established/down edges; intermediate FSM states
  // are not peer-visible events.
  if (state == bgp::SessionState::kEstablished) {
    MonitorRecord r;
    r.type = RecordType::kPeerUp;
    r.peer = peer;
    push(std::move(r));
  } else if (state == bgp::SessionState::kIdle) {
    MonitorRecord r;
    r.type = RecordType::kPeerDown;
    r.peer = peer;
    push(std::move(r));
  }
}

void MonitorSession::on_route_pre_policy(bgp::PeerId from,
                                         const bgp::NlriEntry& entry,
                                         const bgp::AttrsPtr& attrs) {
  // Built in place (no temporary): this runs once per staged route, so the
  // record cost is part of the speaker's measured per-update budget.
  MonitorRecord* r = append();
  if (r == nullptr) return;
  r->type = RecordType::kRouteMonitoring;
  r->post_policy = false;
  r->withdrawn = attrs == nullptr;
  r->peer = from;
  r->path_id = entry.path_id;
  r->prefix = entry.prefix;
  r->attrs = attrs;
}

void MonitorSession::on_route_post_policy(const bgp::RibRoute& route,
                                          bool withdrawn) {
  if (tracer_ != nullptr && !withdrawn)
    tracer_->note_locrib(name_, route.prefix, loop_->now());
  MonitorRecord* r = append();
  if (r == nullptr) return;
  r->type = RecordType::kRouteMonitoring;
  r->post_policy = true;
  r->withdrawn = withdrawn;
  r->peer = route.peer;
  r->path_id = route.path_id;
  r->prefix = route.prefix;
  if (!withdrawn) r->attrs = route.attrs;
}

void MonitorSession::enable_stats_reports(Duration interval) {
  ++*stats_gen_;  // supersede any previous chain
  stats_interval_ = interval;
  if (interval.ns() <= 0) return;
  schedule_stats();
}

void MonitorSession::schedule_stats() {
  std::weak_ptr<std::uint64_t> weak = stats_gen_;
  std::uint64_t gen = *stats_gen_;
  loop_->schedule_after(stats_interval_, [this, weak, gen]() {
    auto alive = weak.lock();
    if (!alive || *alive != gen) return;
    emit_stats_reports();
    schedule_stats();
  });
}

void MonitorSession::emit_stats_reports() {
  if (speaker_ == nullptr) return;
  // Rendered from the Snapshot API: publish the speaker's derived state
  // into a scratch registry and read the per-peer gauges back out — the
  // same values a platform-wide snapshot would carry for this speaker.
  obs::Registry scratch(true);
  speaker_->publish_metrics(scratch);
  obs::Snapshot snap = scratch.snapshot(loop_->now());
  for (bgp::PeerId peer : speaker_->peer_ids()) {
    if (speaker_->session_state(peer) != bgp::SessionState::kEstablished)
      continue;
    // Canonical label order (key-sorted): "peer" < "speaker".
    obs::Labels labels{{"peer", speaker_->peer_config(peer).name},
                       {"speaker", name_}};
    auto v = [&](std::string_view metric) {
      return std::to_string(snap.value(metric, labels));
    };
    MonitorRecord r;
    r.type = RecordType::kStatsReport;
    r.peer = peer;
    r.info = "adj_in=" + v("bgp_peer_adj_rib_in_routes") +
             " rejected=" + v("bgp_peer_routes_rejected_import") +
             " keepalives=" + v("bgp_peer_keepalives_in") +
             " notif_in=" + v("bgp_peer_notifications_in") +
             " notif_out=" + v("bgp_peer_notifications_out") +
             " encode_hits=" + v("bgp_peer_encode_cache_hits");
    push(std::move(r));
  }
}

std::string MonitorSession::to_jsonl() const {
  std::string out;
  for (const MonitorRecord& r : records_) {
    out += render_record_json(r, /*speaker=*/"", peer_name(r.peer));
    out += "\n";
  }
  return out;
}

Bytes MonitorSession::encode() const {
  ByteWriter w;
  // The canonical codec (4-byte ASN) regardless of what any session
  // negotiated: the stream's encoding must not depend on peer topology.
  const bgp::AttrCodecOptions canonical{};
  for (const MonitorRecord& r : records_) {
    ByteWriter body;
    switch (r.type) {
      case RecordType::kRouteMonitoring: {
        body.u8(r.withdrawn ? 1 : 0);
        body.u32(r.path_id);
        body.u32(r.prefix.address().value());
        body.u8(r.prefix.length());
        if (r.attrs) {
          Bytes attr_bytes = bgp::encode_attributes(*r.attrs, canonical);
          body.u16(static_cast<std::uint16_t>(attr_bytes.size()));
          body.raw(attr_bytes);
        } else {
          body.u16(0);
        }
        break;
      }
      case RecordType::kStatsReport:
      case RecordType::kPeerDown:
      case RecordType::kPeerUp: {
        body.u16(static_cast<std::uint16_t>(r.info.size()));
        body.raw(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(r.info.data()),
            r.info.size()));
        break;
      }
    }
    // Common header (version, length, type) + per-peer header.
    const std::size_t kCommon = 1 + 4 + 1;
    const std::size_t kPerPeer = 4 + 1 + 8;
    w.u8(3);  // BMP version
    w.u32(static_cast<std::uint32_t>(kCommon + kPerPeer + body.size()));
    w.u8(static_cast<std::uint8_t>(r.type));
    w.u32(r.peer);
    w.u8(r.post_policy ? 1 : 0);
    w.u64(static_cast<std::uint64_t>(r.at.ns()));
    w.raw(body.bytes());
  }
  return w.take();
}

std::string MonitoringStation::to_jsonl() const {
  std::string out;
  for (const Ref& ref : feed_) {
    // Peer ids are speaker-scoped; the merged feed tags the speaker and
    // renders the numeric id (names live in each session's own stream).
    const MonitorRecord& record = ref.session->records()[ref.index];
    out += render_record_json(record, ref.session->speaker_name(),
                              std::to_string(record.peer));
    out += "\n";
  }
  return out;
}

}  // namespace peering::mon

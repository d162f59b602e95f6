#include "inet/soak.h"

#include <algorithm>
#include <map>

#include "bgp/attributes.h"
#include "bgp/message.h"

namespace peering::soak {
namespace {

/// Streaming FNV-1a: fingerprints never materialize the full table text.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;

  void mix(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void mix_u64(std::uint64_t v) { mix(&v, sizeof v); }
};

/// Deterministic per-circuit latency: the footprint's PoPs are different
/// distances apart, and spread latencies keep MRAI flushes from phase-
/// locking across the whole mesh.
Duration circuit_latency(std::size_t i, std::size_t j) {
  return Duration::millis(5 + static_cast<std::int64_t>((i * 7 + j * 13) % 46));
}

/// Merges every series of one histogram family into a single SeriesData so
/// mesh-wide quantiles come from the combined distribution.
obs::SeriesData merge_histograms(const obs::Snapshot& snap,
                                 std::string_view name) {
  obs::SeriesData merged;
  merged.name = std::string(name);
  merged.kind = obs::SeriesData::Kind::kHistogram;
  std::map<std::uint64_t, std::uint64_t> buckets;
  for (const auto& series : snap.series) {
    if (series.name != name ||
        series.kind != obs::SeriesData::Kind::kHistogram)
      continue;
    merged.count += series.count;
    merged.sum += series.sum;
    for (const auto& [bound, count] : series.buckets) buckets[bound] += count;
  }
  merged.buckets.assign(buckets.begin(), buckets.end());
  return merged;
}

}  // namespace

SoakHarness::SoakHarness(SoakConfig config,
                         const std::vector<inet::FeedRoute>* feed,
                         const inet::ChurnSchedule* schedule)
    : config_(std::move(config)), feed_(feed), schedule_(schedule) {
  if (schedule_ == nullptr) {
    owned_schedule_ =
        inet::generate_churn_schedule(feed_->size(), config_.churn);
    schedule_ = &owned_schedule_;
  }
  build();
}

SoakHarness::~SoakHarness() = default;

void SoakHarness::build() {
  const std::size_t pop_count = config_.pops.size();
  routers_.reserve(pop_count);
  for (std::size_t i = 0; i < pop_count; ++i) {
    vbgp::VRouterConfig rc;
    rc.name = config_.pops[i];
    rc.pop_id = config_.pops[i];
    rc.router_id = Ipv4Address(10, 255, static_cast<std::uint8_t>(i + 1), 1);
    rc.router_seed = static_cast<std::uint32_t>(i + 1);
    routers_.push_back(std::make_unique<vbgp::VRouter>(&loop_, rc));
  }

  fabric_ = std::make_unique<backbone::BackboneFabric>(&loop_);
  injector_ = std::make_unique<faults::FaultInjector>(&loop_, config_.fault_seed);
  for (std::size_t i = 0; i < pop_count; ++i)
    injector_->register_router(config_.pops[i], routers_[i].get());

  // iBGP full mesh: iBGP-learned routes are never re-exported, so every PoP
  // must hear the feed PoP directly. MRAI is armed on both ends before the
  // injector wires the transport — it is part of the export-group
  // fingerprint, so it must be set pre-establishment.
  for (std::size_t i = 0; i < pop_count; ++i) {
    for (std::size_t j = i + 1; j < pop_count; ++j) {
      backbone::Circuit& c = fabric_->provision(
          *routers_[i], *routers_[j], 1'000'000'000, circuit_latency(i, j),
          /*wire_bgp=*/false);
      routers_[i]->speaker().set_peer_mrai(c.peer_at_a, config_.backbone_mrai);
      routers_[j]->speaker().set_peer_mrai(c.peer_at_b, config_.backbone_mrai);
      std::string name = config_.pops[i] + "~" + config_.pops[j];
      injector_->connect_session(name, &routers_[i]->speaker(), c.peer_at_a,
                                 &routers_[j]->speaker(), c.peer_at_b,
                                 c.latency);
    }
  }

  // The feed neighbor: one eBGP session carrying the whole table into
  // pops[0]. global_id != 0 puts it in the platform-global next-hop pool,
  // so remote PoPs materialize it as a remote virtual neighbor and program
  // per-neighbor FIBs (time-to-FIB fires at every PoP).
  vbgp::NeighborSpec nb;
  nb.name = "feed";
  nb.asn = config_.table.neighbor_asn;
  nb.local_address = Ipv4Address(10, 0, 0, 2);
  nb.remote_address = config_.table.next_hop;
  nb.interface = -1;  // control-plane-only neighbor
  nb.global_id = 1;
  feed_peer_ = routers_[0]->add_neighbor(nb);

  feeder_ = std::make_unique<bgp::BgpSpeaker>(&loop_, "feed",
                                              config_.table.neighbor_asn,
                                              config_.table.next_hop);
  bgp::PeerConfig pc;
  pc.name = config_.pops[0];
  pc.peer_asn = routers_[0]->config().asn;
  pc.local_address = config_.table.next_hop;
  pc.peer_address = nb.local_address;
  feeder_peer_ = feeder_->add_peer(pc);
  injector_->connect_session("feed", feeder_.get(), feeder_peer_,
                             &routers_[0]->speaker(), feed_peer_,
                             Duration::millis(1));

  // Monitoring plane: one BMP-style session per PoP, all feeding the
  // station and the propagation tracer. Attached before the loop runs so
  // peer-up records and the initial table transfer are captured. Observer
  // bits (and the metric series) are interned in PoP order up front so the
  // tracer's layout is independent of route arrival order.
  monitors_.reserve(pop_count);
  for (std::size_t i = 0; i < pop_count; ++i) {
    auto session =
        std::make_unique<mon::MonitorSession>(&loop_, &routers_[i]->speaker());
    session->set_station(&station_);
    session->set_tracer(&tracer_);
    monitors_.push_back(std::move(session));
    tracer_.time_to_locrib(config_.pops[i]);
    tracer_.time_to_fib(config_.pops[i]);
    routers_[i]->set_fib_observer(
        [this, name = config_.pops[i]](const Ipv4Prefix& prefix,
                                       bool withdrawn) {
          if (!withdrawn) tracer_.note_fib(name, prefix, loop_.now());
        });
  }
  tracer_.locrib_aggregate();
  tracer_.fib_aggregate();
}

std::vector<bgp::BgpSpeaker*> SoakHarness::all_speakers() {
  std::vector<bgp::BgpSpeaker*> speakers;
  speakers.reserve(routers_.size() + 1);
  for (auto& router : routers_) speakers.push_back(&router->speaker());
  speakers.push_back(feeder_.get());
  return speakers;
}

void SoakHarness::establish() { loop_.run_for(config_.establish); }

std::size_t SoakHarness::established_sessions() const {
  std::size_t endpoints = 0;
  auto count = [&endpoints](const bgp::BgpSpeaker& speaker) {
    for (bgp::PeerId peer : speaker.peer_ids())
      if (speaker.session_state(peer) == bgp::SessionState::kEstablished)
        ++endpoints;
  };
  for (const auto& router : routers_)
    count(const_cast<vbgp::VRouter&>(*router).speaker());
  count(*feeder_);
  // Each live session contributes one endpoint per side.
  return endpoints / 2;
}

void SoakHarness::inject_table() {
  bgp::BgpSpeaker& speaker = routers_[0]->speaker();
  std::size_t injected = 0;
  for (const inet::FeedRoute& route : *feed_) {
    tracer_.stamp_origin(route.prefix, loop_.now());
    bgp::UpdateMessage update;
    update.attributes = route.attrs;
    update.nlri.push_back({0, route.prefix});
    speaker.inject_update(feed_peer_, update);
    if (++injected == config_.inject_batch) {
      // Let MRAI flushes and backbone deliveries interleave with the load,
      // as they would with a paced wire transfer.
      loop_.run_for(Duration::millis(20));
      injected = 0;
    }
  }
  loop_.run_for(Duration::millis(20));
}

bool SoakHarness::settle() {
  return faults::FaultInjector::await_quiescence(
      &loop_, all_speakers(), config_.settle_window,
      config_.settle_max_windows);
}

void SoakHarness::inject_event(const inet::ChurnEvent& event) {
  inet::FeedRoute route = inet::churn_event_route(*feed_, event);
  bgp::UpdateMessage update;
  if (route.withdraw) {
    update.withdrawn.push_back({0, route.prefix});
  } else {
    // Each (re-)announce starts a fresh propagation wave for its prefix.
    tracer_.stamp_origin(route.prefix, loop_.now());
    update.attributes = route.attrs;
    update.nlri.push_back({0, route.prefix});
  }
  routers_[0]->speaker().inject_update(feed_peer_, update);
}

void SoakHarness::replay_churn() {
  if (!config_.churn_enabled) return;
  const inet::ChurnSchedule& schedule = *schedule_;
  const SimTime start = loop_.now();

  // Compose backbone session flaps with the churn window: evenly spaced
  // over the schedule, alternating graceful CEASE and abrupt TCP reset,
  // targets walked in a fixed stride over the registered mesh sessions.
  const auto& sessions = injector_->session_names();
  std::vector<std::string> backbone_sessions;
  for (const auto& name : sessions)
    if (name != "feed") backbone_sessions.push_back(name);
  for (int k = 0; k < config_.session_flaps && !backbone_sessions.empty();
       ++k) {
    const std::string& target =
        backbone_sessions[(static_cast<std::size_t>(k) * 5 + 3) %
                          backbone_sessions.size()];
    SimTime at = start + Duration::nanos(schedule.end.ns() * (k + 1) /
                                         (config_.session_flaps + 1));
    injector_->inject_session_flap(target, at, config_.session_flap_down,
                                   k % 2 == 0 ? faults::FlapKind::kGraceful
                                              : faults::FlapKind::kTcpReset);
  }

  // Replay on the sim clock. Events sharing an instant (beacon waves,
  // storm fronts) are injected back to back without running the loop, so
  // they reach the MRAI batcher as one burst — exactly what the coalescing
  // gate measures.
  for (const inet::ChurnEvent& event : schedule.events) {
    const SimTime at = start + event.at;
    if (at > loop_.now()) loop_.run_until(at);
    inject_event(event);
  }
}

void SoakHarness::run() {
  establish();
  inject_table();
  converged_initial_ = settle();
  if (config_.churn_enabled) {
    replay_churn();
    converged_post_churn_ = settle();
  }
}

std::uint64_t SoakHarness::locrib_fingerprint(std::size_t pop) const {
  Fnv f;
  const bgp::LocRib& rib = speaker(pop).loc_rib();
  const bgp::AttrCodecOptions options;
  auto mix_route = [&f, &options](const bgp::RibRoute& route) {
    f.mix_u64(
        (static_cast<std::uint64_t>(route.prefix.address().value()) << 8) |
        route.prefix.length());
    f.mix_u64((static_cast<std::uint64_t>(route.peer) << 32) | route.path_id);
    Bytes wire = bgp::encode_attributes(*route.attrs, options);
    f.mix(wire.data(), wire.size());
  };
  rib.visit_all(mix_route);
  f.mix_u64(0xbe57);  // domain separator: candidates vs best paths
  rib.visit_best(mix_route);
  return f.h;
}

std::uint64_t SoakHarness::locrib_fingerprint() const {
  Fnv f;
  for (std::size_t pop = 0; pop < routers_.size(); ++pop)
    f.mix_u64(locrib_fingerprint(pop));
  return f.h;
}

std::uint64_t SoakHarness::monitor_fingerprint() const {
  Fnv f;
  for (const auto& session : monitors_) {
    Bytes stream = session->encode();
    f.mix(stream.data(), stream.size());
    f.mix_u64(session->dropped());
  }
  f.mix_u64(station_.record_count());
  return f.h;
}

SoakReport SoakHarness::report() const {
  SoakReport r;
  r.routes = feed_->size();
  r.pops = routers_.size();
  r.converged_initial = converged_initial_;
  r.converged_post_churn = converged_post_churn_;
  if (config_.churn_enabled) {
    r.churn_events = schedule_->events.size();
    r.churn_announces = schedule_->announces;
    r.churn_withdraws = schedule_->withdraws;
  }
  r.faults_scheduled = injector_->faults_scheduled();

  auto& tracer = const_cast<mon::PropagationTracer&>(tracer_);
  r.locrib_samples = tracer.locrib_samples();
  r.fib_samples = tracer.fib_samples();
  r.ttl_p50_ns = tracer.locrib_aggregate()->quantile(0.5);
  r.ttl_p99_ns = tracer.locrib_aggregate()->quantile(0.99);
  r.ttf_p99_ns = tracer.fib_aggregate()->quantile(0.99);

  obs::Snapshot snap =
      const_cast<obs::Registry&>(registry_).snapshot(SimTime(loop_.now().ns()));
  const obs::SeriesData flush = merge_histograms(snap, "bgp_mrai_flush_batch");
  r.mrai_flushes = flush.count;
  r.mrai_peer_flushes = flush.sum;
  r.mrai_batch_mean =
      flush.count == 0
          ? 0.0
          : static_cast<double>(flush.sum) / static_cast<double>(flush.count);
  r.export_log_depth_p99 =
      merge_histograms(snap, "bgp_export_group_log_depth").quantile(0.99);
  r.updates_out =
      static_cast<std::uint64_t>(snap.total("bgp_updates_out_total"));
  r.full_resyncs =
      static_cast<std::uint64_t>(snap.total("bgp_export_full_resyncs_total"));

  for (const auto& session : monitors_) {
    r.monitor_records += session->records().size();
    r.monitor_dropped += session->dropped();
  }
  for (const auto& router : routers_) {
    auto& rt = const_cast<vbgp::VRouter&>(*router);
    r.rib_memory_bytes += rt.speaker().memory_bytes();
    r.fib_memory_bytes += router->fib_memory_bytes();
  }
  r.rib_memory_bytes += feeder_->memory_bytes();
  return r;
}

}  // namespace peering::soak

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "vbgp/vrouter.h"

#include "netbase/log.h"

namespace peering::vbgp {

namespace {
// Experiment-marker constant and predicate live in communities.h so the
// fault harness's invariant checker shares the exact definitions.

void strip_control(bgp::PathAttributes& attrs, bgp::Asn asn) {
  auto& cs = attrs.communities;
  cs.erase(std::remove_if(cs.begin(), cs.end(), is_control_community),
           cs.end());
  auto& lcs = attrs.large_communities;
  lcs.erase(std::remove_if(lcs.begin(), lcs.end(),
                           [asn](const bgp::LargeCommunity& lc) {
                             return lc.global == asn &&
                                    lc.local1 == kExperimentMarker;
                           }),
            lcs.end());
}

/// True when strip_control would change anything — checked before cloning
/// so clean routes keep their interned pointer.
bool has_control(const bgp::PathAttributes& attrs, bgp::Asn asn) {
  for (auto c : attrs.communities)
    if (is_control_community(c)) return true;
  for (const auto& lc : attrs.large_communities)
    if (lc.global == asn && lc.local1 == kExperimentMarker) return true;
  return false;
}
}  // namespace

VRouter::VRouter(sim::EventLoop* loop, const VRouterConfig& config)
    : ip::Host(loop, config.name),
      config_(config),
      speaker_(loop, config.name, config.asn, config.router_id,
               config.pipeline),
      registry_(config.router_seed),
      mux_(registry_.fib_set().make_view()),
      default_table_(registry_.fib_set().make_view()),
      metrics_(obs::Registry::global()) {
  obs::Labels labels{{"pop", config_.pop_id}, {"router", config_.name}};
  obs_frames_demuxed_ =
      metrics_->counter("vbgp_frames_demuxed_total", labels);
  obs_frames_to_exp_ =
      metrics_->counter("vbgp_frames_to_experiments_total", labels);
  obs_enforcement_drops_ =
      metrics_->counter("vbgp_enforcement_drops_total", labels);
  obs_no_route_ = metrics_->counter("vbgp_no_fib_route_total", labels);
  auto drop_counter = [&](const char* reason) {
    obs::Labels with_reason = labels;
    with_reason.emplace_back("reason", reason);
    return metrics_->counter("vbgp_frames_dropped_total", with_reason);
  };
  obs_drop_no_transit_ = drop_counter("no_transit");
  obs_arp_replies_ =
      metrics_->counter("vbgp_arp_virtual_replies_total", labels);
  obs_demux_mac_hits_ =
      metrics_->counter("vbgp_demux_mac_hits_total", labels);
  obs_demux_mac_misses_ =
      metrics_->counter("vbgp_demux_mac_misses_total", labels);
  obs_fanout_exports_ =
      metrics_->counter("vbgp_addpath_fanout_exports_total", labels);
  obs_nh_rewrites_ = metrics_->counter("vbgp_nh_rewrites_total", labels);
  obs_nh_memo_hits_ = metrics_->counter("vbgp_nh_memo_hits_total", labels);
  collector_token_ = metrics_->add_collector(
      [this](obs::Registry& registry) { publish_metrics(registry); });
  install_hooks();
}

VRouter::~VRouter() { metrics_->remove_collector(collector_token_); }

void VRouter::install_hooks() {
  speaker_.set_import_hook([this](bgp::PeerId from,
                                  const bgp::NlriEntry& entry,
                                  const bgp::AttrsPtr& attrs) {
    switch (peer_kind(from)) {
      case PeerKind::kNeighbor:
        return import_from_neighbor(from, entry, attrs);
      case PeerKind::kBackbone:
        return import_from_backbone(from, entry, attrs);
      case PeerKind::kExperiment:
        return import_from_experiment(from, entry, attrs);
    }
    return std::optional<bgp::AttrsPtr>(attrs);
  });
  // Every peer's export class is its kind (export_class_of), and both
  // export hooks meet the speaker's export contract: each is a pure
  // function of (source attrs, origin, kind) given the neighbor registry,
  // and every registry mutation calls invalidate_export_memos(). The
  // speaker runs them once per update group; member-dependent decisions
  // live in the export filter. Neighbors and backbone peers take the
  // general hook.
  speaker_.set_export_hook([this](bgp::PeerId to, const bgp::RibRoute& route,
                                  const bgp::AttrsPtr& attrs) {
    return export_route(to, route, attrs);
  });
  // The experiment fan-out is the textbook source-driven export: every
  // experiment sees the route's original attributes with only the next-hop
  // re-mapped to the local virtual identity of the advertising neighbor.
  // As a source hook the speaker exports the interned source set verbatim
  // (no clone, no second pool entry per route) and splices the virtual
  // next-hop into the cached wire template at send time.
  speaker_.set_source_export_hook(
      export_class_of(PeerKind::kExperiment),
      [this](const bgp::RibRoute& route) -> std::optional<Ipv4Address> {
        // Experiments never see each other's routes (isolation).
        const bool experiment_route =
            has_experiment_marker(*route.attrs, config_.asn) ||
            (route.peer != bgp::kLocalRoutes &&
             peer_kind(route.peer) == PeerKind::kExperiment);
        if (experiment_route) return std::nullopt;
        Ipv4Address nh = route.attrs->next_hop;
        if (VirtualNeighbor* nb = registry_.local_by_global_ip(nh)) {
          nh = nb->virtual_ip;
        } else if (VirtualNeighbor* rnb = registry_.remote_by_global_ip(nh)) {
          nh = rnb->virtual_ip;
        }
        // else: already a virtual IP (off-backbone PoP) or locally
        // originated.
        return nh;
      });
  speaker_.set_export_filter(
      [this](bgp::PeerId to, const bgp::PathAttributes& source_attrs) {
        switch (peer_kind(to)) {
          case PeerKind::kExperiment:
            // Figure-6b quantity: one counted export per experiment session
            // actually receiving the advert.
            obs_fanout_exports_->inc();
            return true;
          case PeerKind::kNeighbor: {
            // Per-neighbor announcement controls (§5): the experiment's
            // control communities select which neighbors hear the route.
            VirtualNeighbor* nb = registry_.by_peer(to);
            if (!nb) return false;
            return export_allowed_by_communities(source_attrs.communities,
                                                 nb->local_id);
          }
          case PeerKind::kBackbone:
            return true;
        }
        return true;
      });
  speaker_.on_route_event([this](const bgp::RibRoute& route, bool withdrawn) {
    sync_fib(route, withdrawn);
  });
}

VRouter::PeerKind VRouter::peer_kind(bgp::PeerId peer) const {
  return peer < peer_kinds_.size() ? peer_kinds_[peer] : PeerKind::kNeighbor;
}

void VRouter::set_peer_kind(bgp::PeerId peer, PeerKind kind) {
  if (peer >= peer_kinds_.size())
    peer_kinds_.resize(peer + 1, PeerKind::kNeighbor);
  peer_kinds_[peer] = kind;
}

bgp::PeerId VRouter::add_neighbor(const NeighborSpec& spec) {
  bgp::PeerConfig config;
  config.name = spec.name;
  config.peer_asn = spec.asn;
  config.local_address = spec.local_address;
  config.peer_address = spec.remote_address;
  config.hold_time = spec.hold_time;
  config.export_class = export_class_of(PeerKind::kNeighbor);
  bgp::PeerId peer = speaker_.add_peer(config);
  set_peer_kind(peer, PeerKind::kNeighbor);
  registry_.add_local(spec.name, peer, spec.remote_address, spec.interface,
                      spec.global_id);
  // The export hook's next-hop mapping reads the registry; memoized
  // results predating this neighbor are stale.
  speaker_.invalidate_export_memos();
  return peer;
}

bgp::PeerId VRouter::add_experiment(const ExperimentSpec& spec) {
  bgp::PeerConfig config;
  config.name = spec.experiment_id;
  config.peer_asn = spec.asn;
  config.local_address = spec.local_address;
  config.peer_address = spec.remote_address;
  config.hold_time = spec.hold_time;
  config.addpath = bgp::AddPathMode::kBoth;
  config.export_all_paths = true;
  // Experiments see routes with full fidelity: their class is
  // source-driven, so each export is the Loc-RIB attribute set itself with
  // only the next-hop spliced (install_hooks). No local-AS prepend, as on
  // an RFC 7947 transparent session.
  config.transparent = true;
  config.export_class = export_class_of(PeerKind::kExperiment);
  bgp::PeerId peer = speaker_.add_peer(config);
  set_peer_kind(peer, PeerKind::kExperiment);
  experiments_by_peer_[peer] = spec.experiment_id;
  // The account exists from attachment on, so the data plane never looks
  // an experiment up by name.
  auto account = accounting_.try_emplace(spec.experiment_id).first;
  Port& port = mutable_port(spec.interface);
  port.experiment = &account->first;
  port.account = &account->second;
  return peer;
}

bgp::PeerId VRouter::add_backbone_peer(const BackboneSpec& spec) {
  bgp::PeerConfig config;
  config.name = spec.name;
  config.peer_asn = config_.asn;  // iBGP
  config.local_address = spec.local_address;
  config.peer_address = spec.remote_address;
  config.hold_time = spec.hold_time;
  config.addpath = bgp::AddPathMode::kBoth;
  config.export_all_paths = true;
  config.export_class = export_class_of(PeerKind::kBackbone);
  bgp::PeerId peer = speaker_.add_peer(config);
  set_peer_kind(peer, PeerKind::kBackbone);
  backbone_interfaces_[peer] = spec.interface;
  mutable_port(spec.interface).backbone = true;
  return peer;
}

void VRouter::add_experiment_route(const Ipv4Prefix& prefix,
                                   const std::string& /*experiment_id*/,
                                   int tunnel_interface,
                                   Ipv4Address tunnel_address) {
  mux_.insert(ip::Route{prefix, tunnel_address, tunnel_interface, 0});
  // Locally generated packets (ICMP errors, pings) reach the experiment via
  // the main table too.
  routes().insert(ip::Route{prefix, tunnel_address, tunnel_interface, 0});
}

void VRouter::add_remote_experiment_route(const Ipv4Prefix& prefix,
                                          int backbone_interface,
                                          Ipv4Address gateway) {
  mux_.insert(ip::Route{prefix, gateway, backbone_interface, 0});
  routes().insert(ip::Route{prefix, gateway, backbone_interface, 0});
}

const VRouter::Port& VRouter::port(int if_index) const {
  static const Port kNone;
  return if_index >= 0 && static_cast<std::size_t>(if_index) < ports_.size()
             ? ports_[static_cast<std::size_t>(if_index)]
             : kNone;
}

VRouter::Port& VRouter::mutable_port(int if_index) {
  const auto index = static_cast<std::size_t>(if_index);
  if (index >= ports_.size()) ports_.resize(index + 1);
  return ports_[index];
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

std::optional<bgp::AttrsPtr> VRouter::import_from_neighbor(
    bgp::PeerId from, const bgp::NlriEntry& entry,
    const bgp::AttrsPtr& attrs) {
  VirtualNeighbor* nb = registry_.by_peer(from);
  if (!nb) return std::nullopt;
  // Remember the route's real gateway for the per-neighbor FIB. A direct
  // neighbor announces itself as next-hop; a route server announces the
  // advertising member's fabric address (the RS is control-plane only).
  Ipv4Address real_nh =
      attrs->next_hop.is_zero() ? nb->gateway : attrs->next_hop;
  auto [real, inserted] =
      real_next_hops_.try_emplace({from, entry.prefix, entry.path_id}, real_nh);
  if (!inserted && real->second != real_nh) {
    real->second = real_nh;
    // A change of next-hop alone remaps to the stored attribute set, so the
    // Loc-RIB sees no change and fires no route event: move the view's
    // gateway here. Any other change rewrites it again in sync_fib.
    if (nb->fib.exact(entry.prefix)) {
      nb->fib.insert(ip::Route{entry.prefix, real_nh, nb->interface, 0});
      if (fib_observer_) fib_observer_(entry.prefix, /*withdrawn=*/false);
    }
  }
  // Store the route with the platform-global neighbor IP as next-hop: iBGP
  // exports keep it verbatim (so remote routers can re-map it, §4.4);
  // exports to experiments re-map it to the local virtual IP.
  Ipv4Address stored = nb->global_id != 0 ? global_pool_ip(nb->global_id)
                                          : nb->virtual_ip;
  return remap_next_hop(attrs, stored);
}

std::optional<bgp::AttrsPtr> VRouter::import_from_backbone(
    bgp::PeerId from, const bgp::NlriEntry&, const bgp::AttrsPtr& attrs) {
  // Experiment routes relayed across the backbone carry the marker; they
  // need no neighbor registration (traffic flows via the mux). Either way
  // the attributes pass through untouched — same pointer in, same out.
  if (has_experiment_marker(*attrs, config_.asn)) return attrs;
  // A route from a remote PoP's neighbor: its next-hop is that neighbor's
  // global pool IP. Lazily materialize a local virtual identity for it so
  // experiments here can address it.
  auto it = backbone_interfaces_.find(from);
  if (it != backbone_interfaces_.end() &&
      Ipv4Prefix(kGlobalPoolBase, 16).contains(attrs->next_hop)) {
    std::uint32_t global_id = attrs->next_hop.value() - kGlobalPoolBase.value();
    // Invalidate export memos only on a genuinely new registration: the
    // steady state re-observes known neighbors on every route.
    const bool known = registry_.remote_by_global_ip(attrs->next_hop) != nullptr;
    registry_.add_remote(global_id, from, it->second);
    if (!known) speaker_.invalidate_export_memos();
  }
  return attrs;
}

std::optional<bgp::AttrsPtr> VRouter::import_from_experiment(
    bgp::PeerId from, const bgp::NlriEntry& entry,
    const bgp::AttrsPtr& attrs) {
  const Ipv4Prefix& prefix = entry.prefix;
  auto exp_it = experiments_by_peer_.find(from);
  if (exp_it == experiments_by_peer_.end()) return std::nullopt;

  bgp::AttrsPtr working = attrs;
  if (control_enforcer_) {
    enforce::AnnouncementContext ctx;
    ctx.experiment_id = exp_it->second;
    ctx.pop_id = config_.pop_id;
    ctx.prefix = prefix;
    ctx.attrs = attrs;
    ctx.now = loop_->now();
    enforce::Verdict verdict = control_enforcer_->check(ctx);
    switch (verdict.action) {
      case enforce::Verdict::Action::kReject:
        return std::nullopt;
      case enforce::Verdict::Action::kTransform:
        working = verdict.transformed;
        break;
      case enforce::Verdict::Action::kAccept:
        break;
    }
  }
  bgp::AttrBuilder b(std::move(working));
  b.mutate().large_communities.push_back(experiment_marker(config_.asn));
  return b.commit(speaker_.attr_pool());
}

bgp::AttrsPtr VRouter::remap_next_hop(const bgp::AttrsPtr& attrs,
                                      Ipv4Address nh) {
  if (attrs->next_hop == nh) return attrs;
  auto it = nh_memo_.find(attrs);
  if (it != nh_memo_.end() && it->second->next_hop == nh) {
    obs_nh_memo_hits_->inc();
    return it->second;
  }
  obs_nh_rewrites_->inc();
  bgp::AttrBuilder b(attrs);
  b.mutate().next_hop = nh;
  auto result = b.commit(speaker_.attr_pool());
  if (it == nh_memo_.end()) {
    // A non-pooled source (e.g. a route transformed by a custom import
    // policy) gets a fresh pointer per update, so its memo entry is dead
    // weight; the cap bounds that pathology and pool pinning alike.
    if (nh_memo_.size() > 65536) nh_memo_.clear();
    it = nh_memo_.emplace(attrs, std::move(result)).first;
  } else {
    it->second = std::move(result);
  }
  return it->second;
}

std::optional<bgp::AttrsPtr> VRouter::export_route(bgp::PeerId to,
                                                   const bgp::RibRoute& route,
                                                   const bgp::AttrsPtr& attrs) {
  const PeerKind from_kind =
      route.peer == bgp::kLocalRoutes ? PeerKind::kNeighbor  // local routes
                                      : peer_kind(route.peer);
  const bool experiment_route =
      has_experiment_marker(*route.attrs, config_.asn) ||
      from_kind == PeerKind::kExperiment;

  switch (peer_kind(to)) {
    case PeerKind::kNeighbor: {
      // Only experiment-originated (or platform-originated) announcements
      // reach the Internet; PEERING never transits third-party routes. The
      // per-neighbor community gate runs in the export filter.
      if (!experiment_route && route.peer != bgp::kLocalRoutes)
        return std::nullopt;
      // Keep the standard eBGP transform; strip control communities only
      // when there is something to strip.
      if (!has_control(*attrs, config_.asn)) return attrs;
      bgp::AttrBuilder b(attrs);
      strip_control(b.mutate(), config_.asn);
      return b.commit(speaker_.attr_pool());
    }
    case PeerKind::kBackbone:
      // Everything (neighbor routes with global next-hops, experiment
      // routes with markers) crosses the backbone; the speaker's iBGP rules
      // already prevent iBGP-learned routes from echoing back. Pure
      // pass-through: the interned pointer flows to the wire unchanged.
      return attrs;
    case PeerKind::kExperiment:
      // Source-driven class: the source hook exports to experiments.
      break;
  }
  return std::nullopt;
}

void VRouter::sync_fib(const bgp::RibRoute& route, bool withdrawn) {
  VirtualNeighbor* nb = nullptr;
  switch (peer_kind(route.peer)) {
    case PeerKind::kNeighbor:
      nb = registry_.by_peer(route.peer);
      break;
    case PeerKind::kBackbone:
      // Only routes pointing at a remote neighbor's global IP get a FIB;
      // experiment routes relayed over the backbone are mux-routed.
      nb = registry_.remote_by_global_ip(route.attrs->next_hop);
      break;
    case PeerKind::kExperiment:
      nb = nullptr;
      break;
  }
  if (nb) {
    if (withdrawn) {
      nb->fib.remove(route.prefix);
      real_next_hops_.erase({route.peer, route.prefix, route.path_id});
    } else {
      Ipv4Address gateway = nb->gateway;
      auto real = real_next_hops_.find({route.peer, route.prefix, route.path_id});
      if (real != real_next_hops_.end()) gateway = real->second;
      nb->fib.insert(ip::Route{route.prefix, gateway, nb->interface, 0});
    }
    if (fib_observer_) fib_observer_(route.prefix, withdrawn);
  }

  if (default_table_enabled_) {
    auto best = speaker_.loc_rib().best(route.prefix);
    if (!best) {
      default_table_.remove(route.prefix);
    } else {
      VirtualNeighbor* bnb = registry_.by_peer(best->peer);
      if (!bnb) bnb = registry_.remote_by_global_ip(best->attrs->next_hop);
      if (bnb) {
        default_table_.insert(
            ip::Route{route.prefix, bnb->gateway, bnb->interface, 0});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Operational surface
// ---------------------------------------------------------------------------

std::string VRouter::show_neighbors() const {
  std::ostringstream out;
  out << "neighbor            virtual-ip     virtual-mac         fib-routes\n";
  for (const VirtualNeighbor* nb : registry_.all()) {
    out << std::left << std::setw(20) << nb->name << std::setw(15)
        << nb->virtual_ip.str() << std::setw(20) << nb->virtual_mac.str()
        << nb->fib.size() << (nb->remote ? "  (remote)" : "") << "\n";
  }
  return out.str();
}

std::string VRouter::show_route(const Ipv4Prefix& prefix) const {
  std::ostringstream out;
  for (const auto& route : speaker_.loc_rib().candidates(prefix)) {
    out << prefix.str() << " via " << route.attrs->next_hop.str() << " ["
        << route.attrs->as_path.str() << "]";
    if (route.attrs->local_pref)
      out << " lp=" << *route.attrs->local_pref;
    if (route.attrs->med) out << " med=" << *route.attrs->med;
    for (auto c : route.attrs->communities) out << " " << c.str();
    auto best = speaker_.loc_rib().best(prefix);
    if (best && best->peer == route.peer && best->path_id == route.path_id)
      out << " *";
    out << "\n";
  }
  return out.str();
}

void VRouter::publish_metrics(obs::Registry& registry) const {
  auto i64 = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  obs::Labels labels{{"pop", config_.pop_id}, {"router", config_.name}};
  const FibAccounting fa = registry_.fib_accounting();
  registry.gauge("vbgp_fib_shared_bytes", labels)->set(i64(fa.shared_bytes));
  registry.gauge("vbgp_fib_flat_bytes", labels)->set(i64(fa.flat_bytes));
  registry.gauge("vbgp_fib_index_bytes", labels)->set(i64(fa.index_bytes));
  registry.gauge("vbgp_fib_routes", labels)->set(i64(fa.routes));
  registry.gauge("vbgp_fib_unique_prefixes", labels)
      ->set(i64(fa.unique_prefixes));
  registry.gauge("vbgp_fib_views", labels)->set(i64(fa.views));
  registry.gauge("vbgp_neighbors", labels)->set(i64(registry_.size()));
  registry.gauge("vbgp_mux_entries", labels)->set(i64(mux_.size()));
  // Mirror the authoritative data-plane struct counters as gauges: the
  // one-off snapshot path (telemetry off, show_summary) still sees them.
  registry.gauge("vbgp_frames_demuxed", labels)
      ->set(i64(stats_.frames_demuxed));
  registry.gauge("vbgp_frames_to_experiments", labels)
      ->set(i64(stats_.frames_to_experiments));
  registry.gauge("vbgp_enforcement_drops", labels)
      ->set(i64(stats_.packets_enforcement_drop));
  registry.gauge("vbgp_no_fib_route", labels)
      ->set(i64(stats_.packets_no_fib_route));
  registry.gauge("vbgp_arp_virtual_replies", labels)
      ->set(i64(stats_.arp_virtual_replies));
  for (const auto& [experiment, account] : accounting_) {
    // An attached experiment publishes once it has carried traffic.
    if (account.egress_bytes == 0 && account.ingress_bytes == 0) continue;
    obs::Labels exp_labels = labels;
    exp_labels.emplace_back("experiment", experiment);
    registry.gauge("vbgp_experiment_egress_bytes", exp_labels)
        ->set(i64(account.egress_bytes));
    registry.gauge("vbgp_experiment_ingress_bytes", exp_labels)
        ->set(i64(account.ingress_bytes));
  }
}

obs::Snapshot VRouter::metrics_snapshot() const {
  // Telemetry on: the installed registry already holds the live counters
  // and this router's (and its speaker's) collectors. Telemetry off: build
  // the same document from the collectors alone against a local registry.
  if (metrics_->enabled()) return metrics_->snapshot(loop_->now());
  obs::Registry local;
  speaker_.publish_metrics(local);
  publish_metrics(local);
  return local.snapshot(loop_->now());
}

std::string VRouter::show_summary() const {
  // Rendered from the one snapshot API rather than by poking each
  // subsystem: what the looking glass prints is exactly what a telemetry
  // consumer would scrape.
  const obs::Snapshot snap = metrics_snapshot();
  const obs::Labels bgp{{"speaker", config_.name}};
  const obs::Labels vr{{"pop", config_.pop_id}, {"router", config_.name}};
  auto pct = [](std::int64_t hits, std::int64_t misses) {
    std::int64_t total = hits + misses;
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(total);
  };

  std::ostringstream out;
  out << config_.name << " (AS" << config_.asn << ", " << config_.pop_id
      << ")\n";
  out << "  loc-rib: " << snap.value("bgp_locrib_paths", bgp) << " paths, "
      << snap.value("bgp_locrib_prefixes", bgp) << " prefixes\n";
  out << "  attr pool: " << snap.value("bgp_attr_pool_sets", bgp) << " sets, "
      << snap.value("bgp_attr_pool_bytes", bgp) / 1024 << " KiB, "
      << std::fixed << std::setprecision(1)
      << pct(snap.value("bgp_attr_intern_hits", bgp),
             snap.value("bgp_attr_intern_misses", bgp))
      << "% hit\n";
  out << "  encode cache: "
      << snap.value("bgp_attr_encode_cache_bytes", bgp) / 1024 << " KiB, "
      << std::fixed << std::setprecision(1)
      << pct(snap.value("bgp_attr_encode_hits", bgp),
             snap.value("bgp_attr_encode_misses", bgp))
      << "% hit\n";
  // Adj-RIB-Out sharing: a subgroup's table counts once; a shared member
  // encode is one served by another member's encode (counters are zero
  // when telemetry is off).
  obs::Labels mode = bgp;
  mode.emplace_back("mode", "shared");
  const std::int64_t shared_encodes =
      snap.value("bgp_export_member_encodes_total", mode);
  mode.back().second = "own";
  const std::int64_t own_encodes =
      snap.value("bgp_export_member_encodes_total", mode);
  out << "  adj-rib-out: " << snap.value("bgp_adj_out_paths", bgp)
      << " paths, " << snap.value("bgp_adj_out_bytes", bgp) / 1024
      << " KiB in " << snap.value("bgp_export_subgroups", bgp)
      << " subgroups; member encodes " << shared_encodes << " shared, "
      << own_encodes << " own\n";
  const std::int64_t shared = snap.value("vbgp_fib_shared_bytes", vr);
  const std::int64_t flat = snap.value("vbgp_fib_flat_bytes", vr);
  out << "  neighbors: " << snap.value("vbgp_neighbors", vr) << " ("
      << snap.value("vbgp_fib_routes", vr) << " FIB routes, "
      << snap.value("vbgp_fib_unique_prefixes", vr)
      << " unique prefixes)\n";
  out << "  fib store: " << shared / 1024 << " KiB shared, " << flat / 1024
      << " KiB flat-equivalent, " << std::fixed << std::setprecision(1)
      << (shared == 0 ? 1.0
                      : static_cast<double>(flat) /
                            static_cast<double>(shared))
      << "x dedup\n";
  // The fallback counter is platform-wide (all FibSets share it) and zero
  // when telemetry is off.
  out << "  fib index: " << snap.value("vbgp_fib_index_bytes", vr) / 1024
      << " KiB, " << snap.value("fib_lpm_fallback_total")
      << " LPM fallbacks to the binary walk\n";
  out << "  data plane: " << snap.value("vbgp_frames_demuxed", vr)
      << " demuxed, " << snap.value("vbgp_frames_to_experiments", vr)
      << " to experiments, " << snap.value("vbgp_enforcement_drops", vr)
      << " enforcement drops\n";
  const obs::SeriesData* flush = snap.find("bgp_mrai_flush_batch", bgp);
  out << "  mrai flush batch: ";
  if (flush != nullptr && flush->count > 0) {
    out << "p50=" << flush->quantile(0.50) << " p90=" << flush->quantile(0.90)
        << " p99=" << flush->quantile(0.99) << " (n=" << flush->count << ")\n";
  } else {
    out << "(no flushes)\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void VRouter::handle_arp(int if_index, const ether::ArpMessage& msg) {
  // Attribute real neighbor MACs for ingress rewriting.
  if (!msg.sender_ip.is_zero()) {
    for (VirtualNeighbor* nb : registry_.all()) {
      if (!nb->remote && nb->gateway == msg.sender_ip) {
        registry_.learn_real_mac(msg.sender_mac, nb->local_id);
        break;
      }
    }
  }

  // Standard processing first (learns the sender, answers for real
  // interface addresses).
  ip::Host::handle_arp(if_index, msg);

  if (msg.op != ether::ArpOp::kRequest) return;

  // vBGP's ARP responder: local-pool virtual IPs (asked by experiments) and
  // global-pool IPs of local neighbors (asked by backbone peers, §4.4).
  VirtualNeighbor* nb = registry_.by_virtual_ip(msg.target_ip);
  if (!nb) nb = registry_.local_by_global_ip(msg.target_ip);
  if (!nb) return;

  ether::ArpMessage reply;
  reply.op = ether::ArpOp::kReply;
  reply.sender_mac = nb->virtual_mac;
  reply.sender_ip = msg.target_ip;
  reply.target_mac = msg.sender_mac;
  reply.target_ip = msg.sender_ip;
  send_frame(if_index,
             ether::make_frame(msg.sender_mac, nb->virtual_mac,
                               ether::EtherType::kArp, reply.encode()));
  ++stats_.arp_virtual_replies;
  obs_arp_replies_->inc();
}

void VRouter::handle_frame(int if_index, Bytes& wire,
                           const ether::FrameView& frame) {
  if (frame.is(ether::EtherType::kArp)) {
    auto msg = ether::ArpMessage::decode(frame.payload());
    if (msg) handle_arp(if_index, *msg);
    return;
  }
  if (!frame.is(ether::EtherType::kIpv4)) return;
  auto header = parse_ipv4(frame);
  if (!header) return;

  // Per-packet route delegation: the destination MAC selects the neighbor
  // whose routing table forwards this packet (§3.2.2).
  if (VirtualNeighbor* nb = registry_.by_mac(frame.dst())) {
    obs_demux_mac_hits_->inc();
    egress_from_experiment(if_index, *nb, wire, frame, *header);
    return;
  }

  if (owns_address(header->dst())) {
    deliver_local(if_index, wire);
    return;
  }

  obs_demux_mac_misses_->inc();
  deliver_toward_experiment(if_index, wire, frame, *header);
}

void VRouter::egress_from_experiment(int in_if, VirtualNeighbor& neighbor,
                                     Bytes& wire,
                                     const ether::FrameView& frame,
                                     const ip::Ipv4Header& header) {
  static const std::string kUnknown = "<unknown>";
  const Port& in = port(in_if);
  // Data-plane enforcement: source-address verification and rate limiting,
  // once, at the experiment's own PoP, over the datagram in place. A frame
  // arriving over the backbone (an experiment at a far PoP egressing
  // through a neighbor here, §4.4) was checked and accounted where it
  // entered the platform.
  const bool from_backbone = !in.experiment && in.backbone;
  if (data_enforcer_ && !from_backbone) {
    enforce::FilterAction action = data_enforcer_->check(
        in.experiment ? *in.experiment : kUnknown, header.datagram(),
        loop_->now());
    if (action == enforce::FilterAction::kDrop) {
      ++stats_.packets_enforcement_drop;
      obs_enforcement_drops_->inc();
      return;
    }
  }
  if (in.account) in.account->egress_bytes += header.total_length();

  if (header.ttl() <= 1) {
    send_icmp_error(in_if, header.src(),
                    ip::make_time_exceeded(header.datagram()));
    return;
  }
  const Ipv4Address src = header.src();
  const Ipv4Address dst = header.dst();
  auto datagram = forward_in_place(wire, frame, header);

  auto route = neighbor.fib.lookup(dst);
  if (!route) {
    ++stats_.packets_no_fib_route;
    obs_no_route_->inc();
    send_icmp_error(in_if, src, ip::make_unreachable(datagram, 0));
    return;
  }
  ++stats_.frames_demuxed;
  obs_frames_demuxed_->inc();
  if (trace_) {
    trace_->emit(loop_->now(), "vbgp", "demux",
                 {{"experiment", in.experiment ? *in.experiment : "?"},
                  {"neighbor", neighbor.name},
                  {"dst", dst.str()}});
  }
  transmit_frame(route->interface, route->next_hop, std::move(wire));
}

void VRouter::deliver_toward_experiment(int in_if, Bytes& wire,
                                        const ether::FrameView& frame,
                                        const ip::Ipv4Header& header) {
  const Ipv4Address dst = header.dst();
  auto route = mux_.lookup(dst);
  if (!route) {  // not for any experiment: drop (no transit)
    obs_drop_no_transit_->inc();
    return;
  }
  const Port& out = port(route->interface);

  if (header.ttl() <= 1) {
    send_icmp_error(in_if, header.src(),
                    ip::make_time_exceeded(header.datagram()));
    return;
  }
  const MacAddress from_mac = frame.src();
  auto datagram = forward_in_place(wire, frame, header);

  if (!out.experiment) {
    // Hand off across the backbone toward the PoP hosting the experiment.
    transmit_frame(route->interface, route->next_hop, std::move(wire));
    return;
  }
  out.account->ingress_bytes += datagram.size();

  // Final hop: rewrite the source MAC to the delivering neighbor's virtual
  // MAC so the experiment can attribute ingress traffic (§3.2.2).
  MacAddress src_mac = interface(route->interface).mac();
  if (VirtualNeighbor* nb = registry_.by_real_mac(from_mac)) {
    src_mac = nb->virtual_mac;
  }
  auto exp_mac =
      arp_cache(route->interface).lookup(route->next_hop, loop_->now());
  if (!exp_mac) {
    // MAC not resolved yet: fall back to standard transmission (resolves
    // via ARP; this first packet is delivered without attribution).
    transmit_frame(route->interface, route->next_hop, std::move(wire));
    return;
  }
  ++stats_.frames_to_experiments;
  obs_frames_to_exp_->inc();
  if (trace_) {
    trace_->emit(loop_->now(), "vbgp", "deliver",
                 {{"experiment", *out.experiment},
                  {"src_mac", src_mac.str()},
                  {"dst", dst.str()}});
  }
  ether::rewrite_macs(wire, *exp_mac, src_mac);
  interface(route->interface).send(std::move(wire));
}

}  // namespace peering::vbgp

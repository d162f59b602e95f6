// VRouter: the vBGP edge router (§3). It virtualizes the data and control
// planes of one BGP router and delegates them to experiments:
//
//  control plane (§3.2.1)
//   * routes received from neighbors are stored with their next-hop
//     rewritten to the neighbor's platform-global pool IP;
//   * experiments peer over ADD-PATH sessions and receive *every* path,
//     with the next-hop rewritten again to the per-router local virtual IP
//     of the (local or remote) neighbor;
//   * experiment announcements pass the control-plane enforcement engine,
//     then propagate to neighbors under whitelist/blacklist community
//     control; control communities are stripped on egress.
//
//  data plane (§3.2.2)
//   * the router answers ARP for local-pool virtual IPs (from experiments)
//     and for global-pool IPs of its local neighbors (from backbone peers);
//   * a frame whose destination MAC is a virtual neighbor MAC is forwarded
//     using that neighbor's routing table, after data-plane enforcement;
//   * traffic arriving from neighbors for an experiment's prefix is handed
//     to the experiment with the source MAC rewritten to the delivering
//     neighbor's virtual MAC (ingress attribution).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <optional>
#include <string>
#include <vector>

#include "bgp/speaker.h"
#include "enforce/control_policy.h"
#include "enforce/data_enforcer.h"
#include "ip/host.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vbgp/communities.h"
#include "vbgp/neighbor_registry.h"

namespace peering::vbgp {

struct VRouterConfig {
  std::string name;
  std::string pop_id;
  bgp::Asn asn = 47065;
  Ipv4Address router_id;
  /// Seed for virtual-MAC derivation; must differ between routers.
  std::uint32_t router_seed = 1;
  /// Export-path shape of the embedded speaker (export grouping, delta-log
  /// bound).
  bgp::PipelineConfig pipeline;
};

/// Parameters for a real BGP neighbor at this PoP.
struct NeighborSpec {
  std::string name;
  bgp::Asn asn = 0;
  /// Our address on the shared interface / point-to-point link.
  Ipv4Address local_address;
  /// The neighbor router's address (data-plane gateway).
  Ipv4Address remote_address;
  int interface = -1;
  /// Platform-wide neighbor id (0 if this PoP is off-backbone).
  std::uint32_t global_id = 0;
  std::uint16_t hold_time = 90;
};

/// Parameters for an experiment session at this PoP.
struct ExperimentSpec {
  std::string experiment_id;
  bgp::Asn asn = 0;
  Ipv4Address local_address;   // our end of the tunnel
  Ipv4Address remote_address;  // experiment's tunnel address
  int interface = -1;          // dedicated tunnel interface
  std::uint16_t hold_time = 90;
};

/// Parameters for a backbone iBGP session to another vBGP router.
struct BackboneSpec {
  std::string name;
  Ipv4Address local_address;
  Ipv4Address remote_address;  // remote router's backbone address
  int interface = -1;
  std::uint16_t hold_time = 180;
};

struct VRouterStats {
  std::uint64_t frames_demuxed = 0;          // experiment -> neighbor
  std::uint64_t frames_to_experiments = 0;   // neighbor -> experiment
  std::uint64_t packets_enforcement_drop = 0;
  std::uint64_t packets_no_fib_route = 0;
  std::uint64_t arp_virtual_replies = 0;
};

/// Per-experiment byte counters: the accountability record the platform
/// keeps for attribution (§3.3, after PlanetFlow).
struct TrafficAccount {
  std::uint64_t egress_bytes = 0;   // experiment -> Internet
  std::uint64_t ingress_bytes = 0;  // Internet -> experiment
};

class VRouter : public ip::Host {
 public:
  VRouter(sim::EventLoop* loop, const VRouterConfig& config);
  ~VRouter() override;

  const VRouterConfig& config() const { return config_; }
  bgp::BgpSpeaker& speaker() { return speaker_; }
  NeighborRegistry& registry() { return registry_; }
  const NeighborRegistry& registry() const { return registry_; }
  const VRouterStats& stats() const { return stats_; }

  /// Enforcement engines are owned by the platform (shared state across
  /// PoPs is the platform's concern); unset engines disable enforcement —
  /// used only by unit tests.
  void set_control_enforcer(enforce::ControlPlaneEnforcer* enforcer) {
    control_enforcer_ = enforcer;
  }
  void set_data_enforcer(enforce::DataPlaneEnforcer* enforcer) {
    data_enforcer_ = enforcer;
  }

  /// Registers a real neighbor; returns the BGP peer id. The caller then
  /// wires the transport via speaker().connect_peer.
  bgp::PeerId add_neighbor(const NeighborSpec& spec);

  /// Registers an experiment session (ADD-PATH send, all paths exported).
  bgp::PeerId add_experiment(const ExperimentSpec& spec);

  /// Registers a backbone iBGP session to another vBGP router.
  bgp::PeerId add_backbone_peer(const BackboneSpec& spec);

  /// Routes traffic destined to `prefix` toward a locally attached
  /// experiment (the platform calls this when approving an experiment).
  /// `tunnel_interface` is the one add_experiment attached `experiment_id`
  /// to: its Port names the experiment at delivery.
  void add_experiment_route(const Ipv4Prefix& prefix,
                            const std::string& experiment_id,
                            int tunnel_interface, Ipv4Address tunnel_address);

  /// Routes traffic destined to `prefix` across the backbone toward the PoP
  /// hosting the experiment.
  void add_remote_experiment_route(const Ipv4Prefix& prefix,
                                   int backbone_interface,
                                   Ipv4Address gateway);

  /// Peer id -> experiment id for every registered experiment session. The
  /// invariant checker uses this to separate experiment sessions (which see
  /// full ADD-PATH fan-out) from neighbor/backbone sessions.
  const std::map<bgp::PeerId, std::string>& experiment_peers() const {
    return experiments_by_peer_;
  }

  /// True if `prefix` already has a local (tunnel) mux route; used by the
  /// platform to avoid shadowing a local attachment with a backbone route.
  bool has_local_experiment_route(const Ipv4Prefix& prefix) const {
    auto route = mux_.exact(prefix);
    return route && port(route->interface).experiment != nullptr;
  }

  /// Actual bytes of this router's data plane: the deduplicated FibSet
  /// behind every per-neighbor table, the mux, and the optional default
  /// table (Figure 6a under shared leaves).
  std::size_t fib_memory_bytes() const { return registry_.fib_memory_bytes(); }

  /// Shared vs per-view-equivalent data-plane accounting.
  FibAccounting fib_accounting() const { return registry_.fib_accounting(); }

  /// Per-experiment traffic attribution record. Every attached experiment
  /// has an entry; one that has carried no traffic reads zero.
  const std::map<std::string, TrafficAccount>& traffic_accounting() const {
    return accounting_;
  }

  /// Optional data-plane trace: each demux decision and each attributed
  /// delivery emits a `vbgp` event (`demux`, `deliver`) into `trace`.
  /// Null (the default) disables it, so forwarding pays one pointer check
  /// and never touches the registry's ring.
  void set_trace(obs::EventTrace* trace) { trace_ = trace; }

  /// Called after every per-neighbor FIB insert/remove with the affected
  /// prefix. Generic hook (vbgp stays independent of the monitoring
  /// plane): mon::PropagationTracer wires `note_fib` through it to measure
  /// time-to-FIB.
  using FibObserver = std::function<void(const Ipv4Prefix&, bool withdrawn)>;
  void set_fib_observer(FibObserver observer) {
    fib_observer_ = std::move(observer);
  }

  /// Enables maintenance of a best-path "default" routing table synced from
  /// the Loc-RIB (the per-interconnection-with-default configuration of
  /// Figure 6a; unnecessary for pure vBGP operation).
  void enable_default_table(bool on) { default_table_enabled_ = on; }
  const ip::FibView& default_table() const { return default_table_; }

  /// Operational surface ("show" commands): virtual-neighbor table with
  /// FIB sizes and a summary. Text output, BIRD-CLI flavored. Read-only:
  /// the whole surface is const. Per-prefix route dumps are the looking
  /// glass's job (mon::LookingGlass, over speaker()).
  std::string show_neighbors() const;
  std::string show_summary() const;

  /// Publishes this router's derived state (FIB accounting, per-experiment
  /// traffic attribution, mux size) into `registry` as gauges. Registered
  /// as a snapshot-time collector on the router's own registry; callable
  /// against any registry for one-off renders (show_summary uses it).
  void publish_metrics(obs::Registry& registry) const;

  /// One deterministic snapshot covering this router and its speaker:
  /// per-neighbor update counters, enforcement totals, FIB shared/flat
  /// bytes — the §6 operational-load surface in a single document.
  obs::Snapshot metrics_snapshot() const;

 protected:
  void handle_frame(int if_index, Bytes& wire,
                    const ether::FrameView& frame) override;
  void handle_arp(int if_index, const ether::ArpMessage& msg) override;

 private:
  /// Installs speaker hooks (import rewrite, export control).
  void install_hooks();

  std::optional<bgp::AttrsPtr> import_from_neighbor(
      bgp::PeerId from, const bgp::NlriEntry& entry,
      const bgp::AttrsPtr& attrs);
  std::optional<bgp::AttrsPtr> import_from_backbone(
      bgp::PeerId from, const bgp::NlriEntry& entry,
      const bgp::AttrsPtr& attrs);
  std::optional<bgp::AttrsPtr> import_from_experiment(
      bgp::PeerId from, const bgp::NlriEntry& entry,
      const bgp::AttrsPtr& attrs);

  std::optional<bgp::AttrsPtr> export_route(bgp::PeerId to,
                                            const bgp::RibRoute& route,
                                            const bgp::AttrsPtr& attrs);

  /// `attrs` with its next-hop replaced by `nh`, interned. Memoized by
  /// source pointer: next-hop rewriting is the hot per-update transform
  /// (every neighbor import), and for a pool-owned source
  /// the result is a pure function of the pointer, so the steady state is
  /// one hash-map probe instead of clone + content-hash + intern.
  bgp::AttrsPtr remap_next_hop(const bgp::AttrsPtr& attrs, Ipv4Address nh);

  void sync_fib(const bgp::RibRoute& route, bool withdrawn);

  /// What the data plane needs to know about an interface, resolved when
  /// the experiment or backbone session is attached (never per packet).
  struct Port {
    const std::string* experiment = nullptr;  // tunnel interfaces only
    TrafficAccount* account = nullptr;        // the experiment's account
    bool backbone = false;                    // carries a backbone circuit
  };
  const Port& port(int if_index) const;
  Port& mutable_port(int if_index);

  /// Data-plane paths: in place on the received buffer, which moves on to
  /// the egress link.
  void egress_from_experiment(int in_if, VirtualNeighbor& neighbor,
                              Bytes& wire, const ether::FrameView& frame,
                              const ip::Ipv4Header& header);
  void deliver_toward_experiment(int in_if, Bytes& wire,
                                 const ether::FrameView& frame,
                                 const ip::Ipv4Header& header);

  enum class PeerKind { kNeighbor, kExperiment, kBackbone };
  /// A peer's export class (bgp::PeerConfig::export_class) is its kind,
  /// offset past the speaker's default class 0.
  static std::uint64_t export_class_of(PeerKind kind) {
    return static_cast<std::uint64_t>(kind) + 1;
  }
  /// Export filters ask once per (member, advert), so this is a vector
  /// index: PeerIds are dense, starting at 1. Unknown peers are neighbors.
  PeerKind peer_kind(bgp::PeerId peer) const;
  void set_peer_kind(bgp::PeerId peer, PeerKind kind);

  VRouterConfig config_;
  bgp::BgpSpeaker speaker_;
  NeighborRegistry registry_;
  enforce::ControlPlaneEnforcer* control_enforcer_ = nullptr;
  enforce::DataPlaneEnforcer* data_enforcer_ = nullptr;

  // Keys hold a reference so a memoized source can never be swept and
  // reallocated at the same address. Cleared wholesale past a size cap.
  std::unordered_map<bgp::AttrsPtr, bgp::AttrsPtr> nh_memo_;

  std::vector<PeerKind> peer_kinds_;  // indexed by PeerId
  std::map<bgp::PeerId, int> backbone_interfaces_;
  std::map<bgp::PeerId, std::string> experiments_by_peer_;
  std::vector<Port> ports_;  // indexed by interface

  /// Destination-prefix multiplexer: which experiment (or which backbone
  /// path) receives traffic for an experiment prefix. A view of the
  /// registry's shared FibSet, like the per-neighbor tables. A route whose
  /// interface's Port carries an experiment delivers locally (the Port
  /// names the experiment and its account); any other crosses the
  /// backbone toward the experiment's PoP.
  ip::FibView mux_;

  ip::FibView default_table_;
  bool default_table_enabled_ = false;
  FibObserver fib_observer_;
  std::map<std::string, TrafficAccount> accounting_;
  obs::EventTrace* trace_ = nullptr;

  /// Original (pre-rewrite) next-hop per imported route: the gateway the
  /// per-neighbor FIB forwards to. For a direct neighbor this equals the
  /// neighbor's address; for a route-server session it is the advertising
  /// member's address on the IXP fabric. Hashed: one insert per import and
  /// one lookup per FIB sync, never walked in order.
  struct RouteKeyHash {
    std::size_t operator()(const std::tuple<bgp::PeerId, Ipv4Prefix,
                                            std::uint32_t>& k) const noexcept {
      std::size_t h = std::hash<Ipv4Prefix>{}(std::get<1>(k));
      h = h * 0x9e3779b97f4a7c15ull +
          static_cast<std::size_t>(std::get<0>(k));
      return h * 0x9e3779b97f4a7c15ull + std::get<2>(k);
    }
  };
  std::unordered_map<std::tuple<bgp::PeerId, Ipv4Prefix, std::uint32_t>,
                     Ipv4Address, RouteKeyHash>
      real_next_hops_;

  VRouterStats stats_;

  /// Telemetry handles, resolved once at construction (no-ops when off).
  obs::Registry* metrics_;
  obs::Counter* obs_frames_demuxed_;
  obs::Counter* obs_frames_to_exp_;
  /// `vbgp_frames_dropped_total{reason}`: frames toward no experiment,
  /// frames the data-plane enforcer dropped, and experiment egress with no
  /// route in the chosen neighbor's FIB.
  obs::Counter* obs_drop_no_transit_;
  obs::Counter* obs_drop_enforcement_;
  obs::Counter* obs_drop_no_fib_route_;
  obs::Counter* obs_arp_replies_;
  obs::Counter* obs_demux_mac_hits_;
  obs::Counter* obs_demux_mac_misses_;
  obs::Counter* obs_fanout_exports_;
  obs::Counter* obs_nh_rewrites_;
  obs::Counter* obs_nh_memo_hits_;
  std::uint64_t collector_token_ = 0;
};

}  // namespace peering::vbgp

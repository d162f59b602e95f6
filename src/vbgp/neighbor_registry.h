// The virtual-neighbor registry: the address trick at the heart of vBGP
// (§3.2.2). Every BGP neighbor — local to this PoP or reachable across the
// backbone — is assigned:
//   * a per-router virtual IP from the local pool (127.65.0.0/16) used as
//     the next-hop in routes exported to experiments,
//   * a per-router virtual MAC that the ARP responder hands out for that
//     virtual IP; the destination MAC of an experiment's frame selects the
//     neighbor's routing table,
//   * (local neighbors only) a platform-wide global IP from the shared pool
//     (127.127.0.0/16) used as the next-hop on backbone iBGP sessions, so a
//     remote vBGP router can recognize and re-map it (§4.4).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/rib.h"
#include "ip/fib_set.h"
#include "netbase/ip.h"
#include "netbase/mac.h"

namespace peering::vbgp {

/// Base of the per-router local virtual next-hop pool.
constexpr Ipv4Address kLocalPoolBase(127, 65, 0, 0);
/// Base of the platform-wide global neighbor pool.
constexpr Ipv4Address kGlobalPoolBase(127, 127, 0, 0);

/// Computes the global-pool IP for a platform-wide neighbor id.
inline Ipv4Address global_pool_ip(std::uint32_t global_id) {
  return Ipv4Address(kGlobalPoolBase.value() + global_id);
}

/// One neighbor as seen by one vBGP router.
struct VirtualNeighbor {
  /// Per-router id; doubles as the community value for announcement
  /// control and seeds the virtual IP/MAC.
  std::uint16_t local_id = 0;
  /// Platform-wide id (0 = unassigned; required for backbone reachability).
  std::uint32_t global_id = 0;
  std::string name;
  /// BGP session carrying this neighbor's routes: the neighbor's own
  /// session for local neighbors, the backbone session for remote ones.
  bgp::PeerId peer = 0;
  bool remote = false;
  /// Data-plane egress: interface index and gateway. For a local neighbor
  /// the gateway is the neighbor's real interface address; for a remote
  /// neighbor it is the neighbor's global-pool IP (resolved over the
  /// backbone by the remote vBGP router's ARP responder).
  int interface = -1;
  Ipv4Address gateway;
  /// Local virtual addressing exposed to experiments.
  Ipv4Address virtual_ip;
  MacAddress virtual_mac;
  /// Per-neighbor FIB: every route this neighbor (or the backbone, for its
  /// routes) advertised, installed so experiments can select it per packet.
  /// A view onto the registry's shared-leaf FibSet — prefixes known to
  /// several neighbors share one trie leaf instead of one trie each.
  ip::FibView fib;
};

/// Data-plane memory accounting, reported two ways: `shared_bytes` is what
/// the deduplicated FibSet actually costs; `flat_bytes` is what the same
/// contents would cost as one private RoutingTable per view (the
/// pre-sharing design, and the paper's literal per-interconnection cost).
struct FibAccounting {
  std::size_t shared_bytes = 0;
  std::size_t flat_bytes = 0;
  std::size_t index_bytes = 0;  // the LPM index, part of shared_bytes
  std::size_t routes = 0;
  std::size_t unique_prefixes = 0;
  std::size_t views = 0;

  double dedup_factor() const {
    return shared_bytes == 0
               ? 1.0
               : static_cast<double>(flat_bytes) /
                     static_cast<double>(shared_bytes);
  }
  FibAccounting& operator+=(const FibAccounting& other) {
    shared_bytes += other.shared_bytes;
    flat_bytes += other.flat_bytes;
    index_bytes += other.index_bytes;
    routes += other.routes;
    unique_prefixes += other.unique_prefixes;
    views += other.views;
    return *this;
  }
};

class NeighborRegistry {
 public:
  /// `router_seed` differentiates MAC assignment between routers.
  explicit NeighborRegistry(std::uint32_t router_seed)
      : router_seed_(router_seed) {}

  /// Registers a local neighbor. `global_id` may be 0 if the PoP is not on
  /// the backbone.
  VirtualNeighbor& add_local(const std::string& name, bgp::PeerId peer,
                             Ipv4Address real_address, int interface,
                             std::uint32_t global_id);

  /// Registers (or returns) a remote neighbor discovered via a backbone
  /// route whose next-hop is a global-pool IP.
  VirtualNeighbor& add_remote(std::uint32_t global_id, bgp::PeerId backbone_peer,
                              int backbone_interface);

  VirtualNeighbor* by_local_id(std::uint16_t local_id);
  VirtualNeighbor* by_mac(const MacAddress& mac);
  VirtualNeighbor* by_virtual_ip(Ipv4Address ip);
  /// Only local neighbors are returned (they own the global IP here).
  VirtualNeighbor* local_by_global_ip(Ipv4Address ip);
  VirtualNeighbor* by_peer(bgp::PeerId peer);
  /// Remote neighbors keyed by their global IP.
  VirtualNeighbor* remote_by_global_ip(Ipv4Address ip);

  /// Maps a (real) source MAC observed on the wire to a local neighbor for
  /// ingress attribution.
  void learn_real_mac(const MacAddress& mac, std::uint16_t local_id);
  VirtualNeighbor* by_real_mac(const MacAddress& mac);

  std::vector<VirtualNeighbor*> all();
  std::vector<const VirtualNeighbor*> all() const;
  std::size_t size() const { return neighbors_.size(); }

  /// The shared-leaf store behind every neighbor FIB. The owning router
  /// also hangs its mux and optional default tables off this set, so its
  /// accounting covers the router's whole data plane.
  ip::FibSet& fib_set() { return fib_set_; }
  const ip::FibSet& fib_set() const { return fib_set_; }

  /// Actual (deduplicated) FIB memory for the router's data plane —
  /// Figure 6a's per-interconnection quantity under shared leaves.
  std::size_t fib_memory_bytes() const { return fib_set_.memory_bytes(); }
  /// Per-view-equivalent cost of the same state as private tables.
  std::size_t fib_flat_bytes() const {
    return fib_set_.flat_equivalent_bytes();
  }
  std::size_t fib_route_count() const { return fib_set_.route_count(); }

  FibAccounting fib_accounting() const;

 private:
  VirtualNeighbor& allocate(const std::string& name);

  std::uint32_t router_seed_;
  std::uint16_t next_local_id_ = 1;
  /// Declared before the neighbor map: views (inside VirtualNeighbor) must
  /// be destroyed before the set they reference.
  ip::FibSet fib_set_;
  std::map<std::uint16_t, VirtualNeighbor> neighbors_;
  std::unordered_map<MacAddress, std::uint16_t> by_mac_;
  std::unordered_map<Ipv4Address, std::uint16_t> by_virtual_ip_;
  std::unordered_map<Ipv4Address, std::uint16_t> local_by_global_ip_;
  std::unordered_map<Ipv4Address, std::uint16_t> remote_by_global_ip_;
  std::unordered_map<std::uint32_t, std::uint16_t> by_peer_;
  std::unordered_map<MacAddress, std::uint16_t> by_real_mac_;
};

}  // namespace peering::vbgp

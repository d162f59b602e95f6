#include "vbgp/neighbor_registry.h"

namespace peering::vbgp {

VirtualNeighbor& NeighborRegistry::allocate(const std::string& name) {
  std::uint16_t id = next_local_id_++;
  VirtualNeighbor& nb = neighbors_[id];
  nb.local_id = id;
  nb.name = name;
  nb.virtual_ip = Ipv4Address(kLocalPoolBase.value() + id);
  // 0x40 prefix namespaces virtual-neighbor MACs away from interface MACs
  // (which are also derived via MacAddress::from_id by the platform).
  nb.virtual_mac = MacAddress::from_id(0x40000000u | (router_seed_ << 16) | id);
  nb.fib = fib_set_.make_view();
  by_mac_[nb.virtual_mac] = id;
  by_virtual_ip_[nb.virtual_ip] = id;
  return nb;
}

VirtualNeighbor& NeighborRegistry::add_local(const std::string& name,
                                             bgp::PeerId peer,
                                             Ipv4Address real_address,
                                             int interface,
                                             std::uint32_t global_id) {
  VirtualNeighbor& nb = allocate(name);
  nb.peer = peer;
  nb.remote = false;
  nb.interface = interface;
  nb.gateway = real_address;
  nb.global_id = global_id;
  by_peer_[peer] = nb.local_id;
  if (global_id != 0)
    local_by_global_ip_[global_pool_ip(global_id)] = nb.local_id;
  return nb;
}

VirtualNeighbor& NeighborRegistry::add_remote(std::uint32_t global_id,
                                              bgp::PeerId backbone_peer,
                                              int backbone_interface) {
  Ipv4Address gip = global_pool_ip(global_id);
  if (auto* existing = remote_by_global_ip(gip)) return *existing;
  VirtualNeighbor& nb = allocate("remote-" + std::to_string(global_id));
  nb.peer = backbone_peer;
  nb.remote = true;
  nb.global_id = global_id;
  nb.interface = backbone_interface;
  nb.gateway = gip;  // resolved over the backbone via ARP (§4.4)
  remote_by_global_ip_[gip] = nb.local_id;
  return nb;
}

VirtualNeighbor* NeighborRegistry::by_local_id(std::uint16_t local_id) {
  auto it = neighbors_.find(local_id);
  return it == neighbors_.end() ? nullptr : &it->second;
}

VirtualNeighbor* NeighborRegistry::by_mac(const MacAddress& mac) {
  auto it = by_mac_.find(mac);
  return it == by_mac_.end() ? nullptr : by_local_id(it->second);
}

VirtualNeighbor* NeighborRegistry::by_virtual_ip(Ipv4Address ip) {
  auto it = by_virtual_ip_.find(ip);
  return it == by_virtual_ip_.end() ? nullptr : by_local_id(it->second);
}

VirtualNeighbor* NeighborRegistry::local_by_global_ip(Ipv4Address ip) {
  auto it = local_by_global_ip_.find(ip);
  return it == local_by_global_ip_.end() ? nullptr : by_local_id(it->second);
}

VirtualNeighbor* NeighborRegistry::remote_by_global_ip(Ipv4Address ip) {
  auto it = remote_by_global_ip_.find(ip);
  return it == remote_by_global_ip_.end() ? nullptr : by_local_id(it->second);
}

VirtualNeighbor* NeighborRegistry::by_peer(bgp::PeerId peer) {
  auto it = by_peer_.find(peer);
  return it == by_peer_.end() ? nullptr : by_local_id(it->second);
}

void NeighborRegistry::learn_real_mac(const MacAddress& mac,
                                      std::uint16_t local_id) {
  by_real_mac_[mac] = local_id;
}

VirtualNeighbor* NeighborRegistry::by_real_mac(const MacAddress& mac) {
  auto it = by_real_mac_.find(mac);
  return it == by_real_mac_.end() ? nullptr : by_local_id(it->second);
}

std::vector<VirtualNeighbor*> NeighborRegistry::all() {
  std::vector<VirtualNeighbor*> out;
  out.reserve(neighbors_.size());
  for (auto& [id, nb] : neighbors_) out.push_back(&nb);
  return out;
}

std::vector<const VirtualNeighbor*> NeighborRegistry::all() const {
  std::vector<const VirtualNeighbor*> out;
  out.reserve(neighbors_.size());
  for (const auto& [id, nb] : neighbors_) out.push_back(&nb);
  return out;
}

FibAccounting NeighborRegistry::fib_accounting() const {
  FibAccounting acct;
  acct.shared_bytes = fib_set_.memory_bytes();
  acct.flat_bytes = fib_set_.flat_equivalent_bytes();
  acct.index_bytes = fib_set_.index_bytes();
  acct.routes = fib_set_.route_count();
  acct.unique_prefixes = fib_set_.unique_prefix_count();
  acct.views = fib_set_.view_count();
  return acct;
}

}  // namespace peering::vbgp

#include "backbone/fabric.h"

#include <set>

#include "sim/stream.h"

namespace peering::backbone {

BackboneFabric::BackboneFabric(sim::EventLoop* loop)
    : loop_(loop), metrics_(obs::Registry::global()) {
  collector_token_ = metrics_->add_collector(
      [this](obs::Registry& registry) { publish_metrics(registry); });
}

BackboneFabric::~BackboneFabric() {
  metrics_->remove_collector(collector_token_);
}

Circuit& BackboneFabric::provision(vbgp::VRouter& a, vbgp::VRouter& b,
                                   std::uint64_t capacity_bps,
                                   Duration latency, bool wire_bgp) {
  auto circuit = std::make_unique<Circuit>();
  circuit->pop_a = a.config().name;
  circuit->pop_b = b.config().name;
  circuit->router_a = &a;
  circuit->router_b = &b;
  circuit->vlan_id = next_vlan_++;
  circuit->capacity_bps = capacity_bps;
  circuit->latency = latency;

  sim::LinkConfig link_config;
  link_config.latency = latency;
  link_config.bandwidth_bps = capacity_bps;
  link_config.name = circuit->pop_a + "<->" + circuit->pop_b;
  circuit->link = std::make_unique<sim::Link>(loop_, link_config);

  circuit->addr_a = Ipv4Address(10, 100, next_subnet_, 1);
  circuit->addr_b = Ipv4Address(10, 100, next_subnet_, 2);
  ++next_subnet_;

  // Attach promiscuous interfaces: backbone frames may carry virtual
  // next-hop MACs (§4.4).
  MacAddress mac_a = MacAddress::from_id(0xBB000000u | (circuit->vlan_id << 1));
  MacAddress mac_b =
      MacAddress::from_id(0xBB000000u | (circuit->vlan_id << 1) | 1u);
  circuit->if_a = a.add_attached_interface(
      "bb-" + circuit->pop_b, mac_a, {circuit->addr_a, 30}, *circuit->link,
      /*side_a=*/true, /*promiscuous=*/true);
  circuit->if_b = b.add_attached_interface(
      "bb-" + circuit->pop_a, mac_b, {circuit->addr_b, 30}, *circuit->link,
      /*side_a=*/false, /*promiscuous=*/true);

  // iBGP mesh session over the circuit.
  circuit->peer_at_a = a.add_backbone_peer({.name = "bb-" + circuit->pop_b,
                                            .local_address = circuit->addr_a,
                                            .remote_address = circuit->addr_b,
                                            .interface = circuit->if_a});
  circuit->peer_at_b = b.add_backbone_peer({.name = "bb-" + circuit->pop_a,
                                            .local_address = circuit->addr_b,
                                            .remote_address = circuit->addr_a,
                                            .interface = circuit->if_b});
  if (wire_bgp) {
    auto streams = sim::StreamChannel::make(loop_, latency);
    a.speaker().connect_peer(circuit->peer_at_a, streams.a);
    b.speaker().connect_peer(circuit->peer_at_b, streams.b);
  }

  circuits_.push_back(std::move(circuit));
  return *circuits_.back();
}

const Circuit* BackboneFabric::circuit_between(const std::string& pop_a,
                                               const std::string& pop_b) const {
  for (const auto& c : circuits_) {
    if ((c->pop_a == pop_a && c->pop_b == pop_b) ||
        (c->pop_a == pop_b && c->pop_b == pop_a))
      return c.get();
  }
  return nullptr;
}

vbgp::FibAccounting BackboneFabric::fib_accounting() const {
  vbgp::FibAccounting total;
  std::set<const vbgp::VRouter*> seen;
  for (const auto& c : circuits_) {
    for (const vbgp::VRouter* r : {c->router_a, c->router_b}) {
      if (r && seen.insert(r).second) total += r->fib_accounting();
    }
  }
  return total;
}

void BackboneFabric::publish_metrics(obs::Registry& registry) const {
  auto i64 = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  for (const auto& c : circuits_) {
    const std::string name = c->pop_a + "<->" + c->pop_b;
    struct End {
      const char* dir;
      sim::LinkDirection& link;
    } ends[] = {{"ab", c->link->a_to_b()}, {"ba", c->link->b_to_a()}};
    for (const End& end : ends) {
      obs::Labels labels{{"circuit", name}, {"dir", end.dir}};
      registry.gauge("backbone_link_frames_sent", labels)
          ->set(i64(end.link.frames_sent()));
      registry.gauge("backbone_link_frames_dropped", labels)
          ->set(i64(end.link.frames_dropped()));
      registry.gauge("backbone_link_bytes_sent", labels)
          ->set(i64(end.link.bytes_sent()));
    }
    registry.gauge("backbone_circuit_capacity_bps",
                   {{"circuit", name}})
        ->set(i64(c->capacity_bps));
  }
  const vbgp::FibAccounting fa = fib_accounting();
  registry.gauge("backbone_fib_shared_bytes")->set(i64(fa.shared_bytes));
  registry.gauge("backbone_fib_flat_bytes")->set(i64(fa.flat_bytes));
  registry.gauge("backbone_fib_routes")->set(i64(fa.routes));
  registry.gauge("backbone_circuits")
      ->set(static_cast<std::int64_t>(circuits_.size()));
}

}  // namespace peering::backbone

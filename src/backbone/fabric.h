// The PEERING backbone (§4.3): provisioned layer-2 circuits (AL2S / RNP
// style VLANs) between PoP routers, an iBGP full mesh over them, and
// path-property bookkeeping for throughput evaluation. The fabric owns the
// links; routers attach via their vBGP data interfaces.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netbase/result.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "vbgp/vrouter.h"

namespace peering::backbone {

/// One provisioned circuit between two PoP routers.
struct Circuit {
  std::string pop_a;
  std::string pop_b;
  const vbgp::VRouter* router_a = nullptr;
  const vbgp::VRouter* router_b = nullptr;
  std::uint16_t vlan_id = 0;
  std::uint64_t capacity_bps = 1'000'000'000;
  Duration latency = Duration::millis(20);
  std::unique_ptr<sim::Link> link;
  /// Addresses assigned to each end (a /30-style point-to-point subnet).
  Ipv4Address addr_a;
  Ipv4Address addr_b;
  int if_a = -1;  // interface index on router a
  int if_b = -1;
  bgp::PeerId peer_at_a = 0;  // iBGP session ids
  bgp::PeerId peer_at_b = 0;
};

class BackboneFabric {
 public:
  explicit BackboneFabric(sim::EventLoop* loop);
  ~BackboneFabric();

  /// Provisions a VLAN circuit between two routers: creates the link,
  /// attaches promiscuous interfaces with point-to-point addressing from
  /// 10.100.<circuit>.0/30, establishes the iBGP session over a stream, and
  /// records path properties. Routers are keyed by their config name.
  /// With `wire_bgp` false the iBGP peers are registered but no transport
  /// is connected — the caller owns the session wiring (the fault harness
  /// does this so it can sever and rebuild backbone sessions).
  Circuit& provision(vbgp::VRouter& a, vbgp::VRouter& b,
                     std::uint64_t capacity_bps, Duration latency,
                     bool wire_bgp = true);

  const std::vector<std::unique_ptr<Circuit>>& circuits() const {
    return circuits_;
  }

  /// Direct circuit between two PoPs, if one exists.
  const Circuit* circuit_between(const std::string& pop_a,
                                 const std::string& pop_b) const;

  /// Aggregate data-plane accounting over every distinct router on the
  /// mesh: shared (deduplicated) vs flat (per-view-equivalent) FIB bytes.
  vbgp::FibAccounting fib_accounting() const;

  /// Publishes per-circuit link load (frames/bytes sent, drops, per
  /// direction) and mesh-wide FIB accounting into `registry` as gauges.
  /// Registered as a snapshot-time collector on the fabric's registry.
  void publish_metrics(obs::Registry& registry) const;

 private:
  sim::EventLoop* loop_;
  std::vector<std::unique_ptr<Circuit>> circuits_;
  std::uint16_t next_vlan_ = 100;
  std::uint8_t next_subnet_ = 1;
  obs::Registry* metrics_;
  std::uint64_t collector_token_ = 0;
};

}  // namespace peering::backbone

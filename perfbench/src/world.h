// One benchmark world: the PEERING routers, their enforcement engines,
// backbone and monitoring plane, built through the platform's public APIs
// exactly as the platform deploys them, plus the benchmark's endpoints on
// the other end of every session and link.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backbone/fabric.h"
#include "endpoints.h"
#include "enforce/control_policy.h"
#include "enforce/data_enforcer.h"
#include "inet/route_feed.h"
#include "mon/monitor.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "vbgp/vrouter.h"

namespace perfbench {

constexpr bgp::Asn kPeeringAsn = 47065;

// Addressing plan, a pure function of the index so inputs can be encoded
// before a world exists.
inline bgp::Asn neighbor_asn(int n) { return 64600u + static_cast<bgp::Asn>(n); }
inline Ipv4Address neighbor_address(int n) {
  return Ipv4Address(10, 1, static_cast<std::uint8_t>(n), 2);
}
inline bgp::Asn experiment_asn(int e) {
  return 61000u + static_cast<bgp::Asn>(e);
}
/// A /22 per experiment inside 184.164.0.0/16.
inline Ipv4Prefix experiment_block(int e) {
  return Ipv4Prefix(Ipv4Address(184, 164, static_cast<std::uint8_t>(e * 4), 0),
                    22);
}
inline Ipv4Address experiment_tunnel_address(int e) {
  return Ipv4Address(100, 64, static_cast<std::uint8_t>(e), 2);
}

/// Shape of a world. Neighbors always attach at PoP 0.
struct WorldSpec {
  int pops = 1;
  int neighbors = 8;
  /// Experiments at every PoP.
  int experiments_per_pop = 32;
  /// BMP-style monitor session per PoP, all feeding one station.
  bool monitors = false;
  /// MRAI on every backbone iBGP session (both ends).
  Duration backbone_mrai = Duration::millis(100);
  Duration backbone_latency = Duration::millis(1);
};

struct Neighbor {
  int index = 0;
  bgp::Asn asn = 0;
  Ipv4Address router_address;  // the router's end of the link
  Ipv4Address address;         // the neighbor's end (next hop of its routes)
  MacAddress router_mac;       // the router's interface MAC on this link
  MacAddress mac;              // the neighbor's real MAC
  int interface = -1;
  bgp::PeerId peer = 0;
  std::uint16_t local_id = 0;  // community value selecting this neighbor
  std::unique_ptr<sim::Link> link;
  std::unique_ptr<FrameEndpoint> frames;
  std::unique_ptr<WireSession> session;
};

struct Experiment {
  int index = 0;  // global across PoPs
  int pop = 0;
  std::string id;
  bgp::Asn asn = 0;
  Ipv4Prefix block;            // allocation
  Ipv4Address host;            // block's first host: tunnel gateway, source
  Ipv4Address router_address;  // the router's end of the tunnel
  MacAddress router_mac;
  MacAddress mac;
  int interface = -1;
  bgp::PeerId peer = 0;
  std::unique_ptr<sim::Link> link;
  std::unique_ptr<FrameEndpoint> frames;
  std::unique_ptr<WireSession> session;
};

class World {
 public:
  /// `registry` non-null installs it as the global obs registry for the
  /// world's lifetime (traced runs); null leaves the default, disabled one.
  World(const WorldSpec& spec, obs::Registry* registry);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  const WorldSpec& spec() const { return spec_; }
  sim::EventLoop& loop() { return loop_; }
  vbgp::VRouter& router(int pop) { return *routers_[pop]; }
  int pops() const { return static_cast<int>(routers_.size()); }
  enforce::ControlPlaneEnforcer& control(int pop) { return *control_[pop]; }
  enforce::DataPlaneEnforcer& data(int pop) { return *data_[pop]; }
  std::vector<Neighbor>& neighbors() { return neighbors_; }
  std::vector<Experiment>& experiments() { return experiments_; }
  const std::vector<std::unique_ptr<mon::MonitorSession>>& monitors() const {
    return monitors_;
  }
  const mon::MonitoringStation& station() const { return station_; }

  /// Runs the loop until sessions are up. Returns false if any session is
  /// not established.
  bool establish();
  bool all_established() const;
  /// False if a data-plane filter failed to compile for some grant.
  bool grants_ok() const { return grants_ok_; }

  /// Processes everything one injected update or frame causes: with zero
  /// latency links this is the current instant; across the backbone it
  /// covers the MRAI interval and both circuit hops. Returns the number of
  /// events run.
  std::size_t drain();
  std::size_t drain_frames();

  /// Sum over every router of Loc-RIB paths, speaker memory, FIB memory
  /// and FIB routes.
  std::size_t locrib_paths();
  std::size_t rib_bytes();
  std::size_t fib_bytes();
  std::size_t fib_routes();

 private:
  WorldSpec spec_;
  bool grants_ok_ = true;
  std::optional<obs::Scope> scope_;
  sim::EventLoop loop_;
  std::vector<std::unique_ptr<vbgp::VRouter>> routers_;
  std::vector<std::unique_ptr<enforce::ControlPlaneEnforcer>> control_;
  std::vector<std::unique_ptr<enforce::DataPlaneEnforcer>> data_;
  std::unique_ptr<backbone::BackboneFabric> fabric_;
  std::vector<Neighbor> neighbors_;
  std::vector<Experiment> experiments_;
  mon::MonitoringStation station_;
  // Declared last: monitors detach before the routers they observe die.
  std::vector<std::unique_ptr<mon::MonitorSession>> monitors_;
};

}  // namespace perfbench

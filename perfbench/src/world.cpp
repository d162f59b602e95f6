#include "world.h"

#include "vbgp/communities.h"

namespace perfbench {

namespace {
MacAddress router_mac(int pop, int k) {
  return MacAddress::from_id(static_cast<std::uint32_t>(((pop + 1) << 16) | k));
}
}  // namespace

World::World(const WorldSpec& spec, obs::Registry* registry) : spec_(spec) {
  if (registry) scope_.emplace(registry);

  // Routers and enforcement engines, one set per PoP (Peering::build_pop).
  for (int p = 0; p < spec_.pops; ++p) {
    vbgp::VRouterConfig rc;
    rc.name = "pop" + std::to_string(p);
    rc.pop_id = rc.name;
    rc.asn = kPeeringAsn;
    rc.router_id = Ipv4Address(10, 255, static_cast<std::uint8_t>(p + 1), 1);
    rc.router_seed = static_cast<std::uint32_t>(p + 1);
    routers_.push_back(std::make_unique<vbgp::VRouter>(&loop_, rc));
    control_.push_back(std::make_unique<enforce::ControlPlaneEnforcer>());
    control_.back()->install_default_rules(
        {vbgp::kWhitelistAsn, vbgp::kBlacklistAsn});
    data_.push_back(std::make_unique<enforce::DataPlaneEnforcer>());
    routers_.back()->set_control_enforcer(control_.back().get());
    routers_.back()->set_data_enforcer(data_.back().get());
  }

  // Backbone: iBGP full mesh with MRAI armed before establishment (it is
  // part of the export-group fingerprint).
  if (spec_.pops > 1) {
    fabric_ = std::make_unique<backbone::BackboneFabric>(&loop_);
    for (int i = 0; i < spec_.pops; ++i) {
      for (int j = i + 1; j < spec_.pops; ++j) {
        backbone::Circuit& c = fabric_->provision(
            *routers_[i], *routers_[j], 10'000'000'000ull,
            spec_.backbone_latency);
        routers_[i]->speaker().set_peer_mrai(c.peer_at_a, spec_.backbone_mrai);
        routers_[j]->speaker().set_peer_mrai(c.peer_at_b, spec_.backbone_mrai);
      }
    }
  }

  // Neighbors at PoP 0: a link, an eBGP session, a global-pool id.
  vbgp::VRouter& edge = *routers_[0];
  neighbors_.resize(static_cast<std::size_t>(spec_.neighbors));
  for (int n = 0; n < spec_.neighbors; ++n) {
    Neighbor& nb = neighbors_[static_cast<std::size_t>(n)];
    nb.index = n;
    nb.asn = neighbor_asn(n);
    nb.router_address = Ipv4Address(10, 1, static_cast<std::uint8_t>(n), 1);
    nb.address = neighbor_address(n);
    nb.router_mac = router_mac(0, n + 1);
    nb.mac = MacAddress::from_id(0xCC000000u | static_cast<std::uint32_t>(n));
    nb.link = std::make_unique<sim::Link>(
        &loop_, sim::LinkConfig{.latency = Duration::nanos(0)});
    nb.interface = edge.add_attached_interface(
        "nb" + std::to_string(n), nb.router_mac, {nb.router_address, 24},
        *nb.link, /*side_a=*/true, /*promiscuous=*/true);
    nb.frames = std::make_unique<FrameEndpoint>(
        *nb.link, nb.mac, std::vector<Ipv4Address>{nb.address});
    nb.peer = edge.add_neighbor({.name = "nb" + std::to_string(n),
                                 .asn = nb.asn,
                                 .local_address = nb.router_address,
                                 .remote_address = nb.address,
                                 .interface = nb.interface,
                                 .global_id = static_cast<std::uint32_t>(n + 1)});
    nb.local_id = edge.registry().by_peer(nb.peer)->local_id;
    auto streams = sim::StreamChannel::make(&loop_, Duration::nanos(0));
    edge.speaker().connect_peer(nb.peer, streams.a);
    nb.session = std::make_unique<WireSession>(streams.b, nb.asn, nb.address,
                                               /*addpath=*/false);
  }

  // Experiments: a tunnel link and an ADD-PATH session each, an allocation
  // with grants in both engines, and mux entries at every PoP.
  const int total = spec_.pops * spec_.experiments_per_pop;
  experiments_.resize(static_cast<std::size_t>(total));
  for (int e = 0; e < total; ++e) {
    Experiment& x = experiments_[static_cast<std::size_t>(e)];
    x.index = e;
    x.pop = e / spec_.experiments_per_pop;
    x.id = "x" + std::to_string(e);
    x.asn = experiment_asn(e);
    x.block = experiment_block(e);
    x.host = Ipv4Address(x.block.address().value() + 1);
    x.router_address = Ipv4Address(100, 64, static_cast<std::uint8_t>(e), 1);
    const Ipv4Address tunnel_remote = experiment_tunnel_address(e);
    vbgp::VRouter& r = *routers_[static_cast<std::size_t>(x.pop)];
    x.router_mac = router_mac(x.pop, 0x100 + e);
    x.mac = MacAddress::from_id(0xDD000000u | static_cast<std::uint32_t>(e));
    x.link = std::make_unique<sim::Link>(
        &loop_, sim::LinkConfig{.latency = Duration::nanos(0)});
    x.interface = r.add_attached_interface(
        "tun" + std::to_string(e), x.router_mac, {x.router_address, 24},
        *x.link, /*side_a=*/true, /*promiscuous=*/true);
    x.frames = std::make_unique<FrameEndpoint>(
        *x.link, x.mac, std::vector<Ipv4Address>{x.host, tunnel_remote});
    x.peer = r.add_experiment({.experiment_id = x.id,
                               .asn = x.asn,
                               .local_address = x.router_address,
                               .remote_address = tunnel_remote,
                               .interface = x.interface});
    auto streams = sim::StreamChannel::make(&loop_, Duration::nanos(0));
    r.speaker().connect_peer(x.peer, streams.a);
    x.session = std::make_unique<WireSession>(streams.b, x.asn, tunnel_remote,
                                              /*addpath=*/true);

    enforce::ExperimentGrant grant;
    grant.experiment_id = x.id;
    grant.allocated_prefixes = {x.block};
    grant.allowed_origin_asns = {x.asn};
    // A churn experiment is granted an update budget above its churn rate;
    // every other rule keeps the platform default.
    grant.max_updates_per_day = 1 << 30;
    for (int p = 0; p < spec_.pops; ++p) {
      control_[static_cast<std::size_t>(p)]->set_grant(grant);
      grants_ok_ = data_[static_cast<std::size_t>(p)]->install(grant).ok() && grants_ok_;
    }
    r.add_experiment_route(x.block, x.id, x.interface, x.host);
  }
  // Remote mux entries: traffic for an experiment hosted elsewhere crosses
  // the direct circuit toward its PoP.
  if (fabric_) {
    for (const Experiment& x : experiments_) {
      for (int p = 0; p < spec_.pops; ++p) {
        if (p == x.pop) continue;
        const std::string& here = routers_[static_cast<std::size_t>(p)]->config().pop_id;
        const std::string& there =
            routers_[static_cast<std::size_t>(x.pop)]->config().pop_id;
        const backbone::Circuit* c = fabric_->circuit_between(here, there);
        if (!c) continue;
        const bool here_is_a = c->pop_a == here;
        routers_[static_cast<std::size_t>(p)]->add_remote_experiment_route(
            x.block, here_is_a ? c->if_a : c->if_b,
            here_is_a ? c->addr_b : c->addr_a);
      }
    }
  }

  if (spec_.monitors) {
    for (auto& r : routers_) {
      auto session = std::make_unique<mon::MonitorSession>(&loop_, &r->speaker());
      session->set_station(&station_);
      monitors_.push_back(std::move(session));
    }
  }
}

World::~World() = default;

bool World::establish() {
  loop_.run_for(Duration::seconds(1));
  // Neighbors introduce themselves on the data plane so the router can
  // attribute their frames (ingress source-MAC rewrite); experiments
  // resolve their tunnel gateway the same way.
  for (auto& nb : neighbors_) nb.frames->announce(nb.router_address);
  for (auto& x : experiments_) x.frames->announce(x.router_address);
  loop_.run_for(Duration::seconds(1));
  return all_established();
}

bool World::all_established() const {
  for (const auto& nb : neighbors_)
    if (!nb.session->established()) return false;
  for (const auto& x : experiments_)
    if (!x.session->established()) return false;
  for (const auto& r : routers_) {
    auto& speaker = const_cast<vbgp::VRouter&>(*r).speaker();
    for (bgp::PeerId peer : speaker.peer_ids())
      if (speaker.session_state(peer) != bgp::SessionState::kEstablished)
        return false;
  }
  return true;
}

std::size_t World::drain() {
  if (!fabric_) return loop_.run_until(loop_.now());
  return loop_.run_for(spec_.backbone_mrai + spec_.backbone_latency * 2 +
                       Duration::millis(1));
}

std::size_t World::drain_frames() {
  if (!fabric_) return loop_.run_until(loop_.now());
  // Two circuit hops, plus an ARP round trip when an entry has expired.
  return loop_.run_for(spec_.backbone_latency * 4);
}

std::size_t World::locrib_paths() {
  std::size_t n = 0;
  for (auto& r : routers_) n += r->speaker().loc_rib().route_count();
  return n;
}

std::size_t World::rib_bytes() {
  std::size_t n = 0;
  for (auto& r : routers_) n += r->speaker().memory_bytes();
  return n;
}

std::size_t World::fib_bytes() {
  std::size_t n = 0;
  for (auto& r : routers_) n += r->fib_memory_bytes();
  return n;
}

std::size_t World::fib_routes() {
  std::size_t n = 0;
  for (auto& r : routers_) n += r->fib_accounting().routes;
  return n;
}

}  // namespace perfbench

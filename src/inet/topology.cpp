#include "inet/topology.h"

#include <algorithm>
#include <deque>

namespace peering::inet {

const std::vector<bgp::Asn> AsGraph::kEmpty;

void AsGraph::add_provider(bgp::Asn customer, bgp::Asn provider) {
  add_as(customer);
  add_as(provider);
  providers_[customer].push_back(provider);
  customers_[provider].push_back(customer);
}

void AsGraph::add_peering(bgp::Asn a, bgp::Asn b) {
  add_as(a);
  add_as(b);
  peers_[a].push_back(b);
  peers_[b].push_back(a);
}

const std::vector<bgp::Asn>& AsGraph::providers(bgp::Asn asn) const {
  auto it = providers_.find(asn);
  return it == providers_.end() ? kEmpty : it->second;
}
const std::vector<bgp::Asn>& AsGraph::customers(bgp::Asn asn) const {
  auto it = customers_.find(asn);
  return it == customers_.end() ? kEmpty : it->second;
}
const std::vector<bgp::Asn>& AsGraph::peers(bgp::Asn asn) const {
  auto it = peers_.find(asn);
  return it == peers_.end() ? kEmpty : it->second;
}

std::set<bgp::Asn> AsGraph::customer_cone(bgp::Asn asn) const {
  std::set<bgp::Asn> cone{asn};
  std::deque<bgp::Asn> frontier{asn};
  while (!frontier.empty()) {
    bgp::Asn cur = frontier.front();
    frontier.pop_front();
    for (bgp::Asn c : customers(cur)) {
      if (cone.insert(c).second) frontier.push_back(c);
    }
  }
  return cone;
}

namespace {

bool better(const AsRoute& cand, const AsRoute& cur) {
  if (!cur.valid()) return true;
  if (static_cast<int>(cand.type) != static_cast<int>(cur.type))
    return static_cast<int>(cand.type) > static_cast<int>(cur.type);
  return cand.path.size() < cur.path.size();
}

/// `base` as learned by the AS that `via` passes it to.
AsRoute extend(const AsRoute& base, bgp::Asn via, RouteType type) {
  AsRoute out;
  out.type = type;
  out.path.push_back(via);
  out.path.insert(out.path.end(), base.path.begin(), base.path.end());
  return out;
}

}  // namespace

std::map<bgp::Asn, AsRoute> AsGraph::routes_to(
    bgp::Asn origin, const std::set<FilteredEdge>& blocked) const {
  auto is_blocked = [&blocked](bgp::Asn exporter, bgp::Asn importer) {
    return blocked.count({exporter, importer}) > 0;
  };
  std::map<bgp::Asn, AsRoute> routes;
  routes[origin] = AsRoute{RouteType::kCustomer, {}};

  // Phase 1: customer routes ripple up provider edges (BFS by path length
  // guarantees shortest-first assignment).
  std::deque<bgp::Asn> frontier{origin};
  while (!frontier.empty()) {
    bgp::Asn cur = frontier.front();
    frontier.pop_front();
    const AsRoute& cur_route = routes[cur];
    for (bgp::Asn p : providers(cur)) {
      if (is_blocked(cur, p)) continue;
      AsRoute cand = extend(cur_route, cur, RouteType::kCustomer);
      if (better(cand, routes[p])) {
        routes[p] = std::move(cand);
        frontier.push_back(p);
      }
    }
  }

  // Phase 2: ASes holding a customer route export it to their peers.
  // (One hop only: peer routes are not re-exported to peers/providers.)
  std::map<bgp::Asn, AsRoute> peer_updates;
  for (const auto& [asn, route] : routes) {
    if (route.type != RouteType::kCustomer) continue;
    for (bgp::Asn peer : peers(asn)) {
      if (is_blocked(asn, peer)) continue;
      AsRoute cand = extend(route, asn, RouteType::kPeer);
      auto it = peer_updates.find(peer);
      if (better(cand, routes[peer]) &&
          (it == peer_updates.end() || better(cand, it->second)))
        peer_updates[peer] = std::move(cand);
    }
  }
  for (auto& [asn, route] : peer_updates) {
    if (better(route, routes[asn])) routes[asn] = std::move(route);
  }

  // Phase 3: any route propagates down customer edges (provider routes),
  // BFS shortest-first among provider routes. Processing starts in
  // increasing path length for stable shortest-path results.
  std::vector<bgp::Asn> order;
  for (const auto& [asn, route] : routes)
    if (route.valid()) order.push_back(asn);
  std::sort(order.begin(), order.end(), [&](bgp::Asn a, bgp::Asn b) {
    return routes[a].path.size() < routes[b].path.size();
  });
  frontier.assign(order.begin(), order.end());
  while (!frontier.empty()) {
    bgp::Asn cur = frontier.front();
    frontier.pop_front();
    const AsRoute& cur_route = routes[cur];
    if (!cur_route.valid()) continue;
    for (bgp::Asn c : customers(cur)) {
      if (is_blocked(cur, c)) continue;
      AsRoute cand = extend(cur_route, cur, RouteType::kProvider);
      if (better(cand, routes[c])) {
        routes[c] = std::move(cand);
        frontier.push_back(c);
      }
    }
  }

  // Lookups above inserted empty entries for ASes that never got a route.
  std::erase_if(routes,
                [](const auto& entry) { return !entry.second.valid(); });
  return routes;
}

bool AsGraph::path_is_valley_free(const AsGraph& graph,
                                  const std::vector<bgp::Asn>& path,
                                  bgp::Asn origin) {
  // The path is [next_as, ..., origin]; hop i means full[i] learned the
  // route from full[i+1]. Walking from the origin end toward the holder,
  // relationships must be a sequence of customer->provider hops, then at
  // most one peer hop, then provider->customer hops (no valleys).
  if (!path.empty() && path.back() != origin) return false;
  const std::vector<bgp::Asn>& full = path;
  int state = 0;  // 0 = climbing, 1 = after peer, 2 = descending
  for (std::size_t i = full.size(); i-- > 1;) {
    bgp::Asn from = full[i];      // closer to origin
    bgp::Asn to = full[i - 1];    // next AS toward holder
    auto is_provider_of = [&](bgp::Asn provider, bgp::Asn customer) {
      const auto& provs = graph.providers(customer);
      return std::find(provs.begin(), provs.end(), provider) != provs.end();
    };
    auto is_peer_of = [&](bgp::Asn a, bgp::Asn b) {
      const auto& ps = graph.peers(a);
      return std::find(ps.begin(), ps.end(), b) != ps.end();
    };
    if (is_provider_of(to, from)) {
      // climbing: only allowed before any peer/descent
      if (state != 0) return false;
    } else if (is_peer_of(to, from)) {
      if (state != 0) return false;
      state = 1;
    } else if (is_provider_of(from, to)) {
      state = 2;
    } else {
      return false;  // no relationship
    }
  }
  return true;
}

Internet generate_internet(const InternetConfig& config) {
  Internet net;
  Rng rng(config.seed);
  bgp::Asn next = config.first_asn;

  for (int i = 0; i < config.tier1_count; ++i) net.tier1.push_back(next++);
  for (int i = 0; i < config.tier2_count; ++i) net.tier2.push_back(next++);
  for (int i = 0; i < config.stub_count; ++i) net.stubs.push_back(next++);

  // Tier-1 clique.
  for (std::size_t i = 0; i < net.tier1.size(); ++i)
    for (std::size_t j = i + 1; j < net.tier1.size(); ++j)
      net.graph.add_peering(net.tier1[i], net.tier1[j]);

  // Tier-2: customers of 2-3 tier-1s, some lateral peering.
  for (bgp::Asn t2 : net.tier2) {
    std::size_t nprov = 2 + rng.below(2);
    std::set<std::size_t> chosen;
    while (chosen.size() < nprov)
      chosen.insert(rng.below(net.tier1.size()));
    for (std::size_t idx : chosen) net.graph.add_provider(t2, net.tier1[idx]);
  }
  for (std::size_t i = 0; i < net.tier2.size(); ++i)
    for (std::size_t j = i + 1; j < net.tier2.size(); ++j)
      if (rng.chance(config.tier2_peering_prob))
        net.graph.add_peering(net.tier2[i], net.tier2[j]);

  // Stubs: customers of 1-3 tier-2s; a /24 each.
  std::uint32_t prefix_index = 0;
  for (bgp::Asn stub : net.stubs) {
    std::size_t nprov = 1 + rng.below(3);
    std::set<std::size_t> chosen;
    while (chosen.size() < std::min(nprov, net.tier2.size()))
      chosen.insert(rng.below(net.tier2.size()));
    for (std::size_t idx : chosen) net.graph.add_provider(stub, net.tier2[idx]);
    // 192.x.y.0/24 space, deterministic.
    net.prefixes[stub] =
        Ipv4Prefix(Ipv4Address(192, static_cast<std::uint8_t>(prefix_index >> 8),
                               static_cast<std::uint8_t>(prefix_index), 0),
                   24);
    ++prefix_index;
  }
  return net;
}

}  // namespace peering::inet

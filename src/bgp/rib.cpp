#include "bgp/rib.h"

#include <algorithm>

namespace peering::bgp {

bool AdjRibIn::update(const RibRoute& route) {
  auto& paths = routes_[route.prefix];
  auto it = std::lower_bound(paths.begin(), paths.end(), route.path_id,
                             [](const RibRoute& r, std::uint32_t id) {
                               return r.path_id < id;
                             });
  if (it == paths.end() || it->path_id != route.path_id) {
    paths.insert(it, route);
    ++size_;
    return true;
  }
  if (it->attrs == route.attrs) return false;
  *it = route;
  return true;
}

std::optional<RibRoute> AdjRibIn::withdraw(const Ipv4Prefix& prefix,
                                           std::uint32_t path_id) {
  auto pit = routes_.find(prefix);
  if (pit == routes_.end()) return std::nullopt;
  auto& paths = pit->second;
  auto it = std::lower_bound(paths.begin(), paths.end(), path_id,
                             [](const RibRoute& r, std::uint32_t id) {
                               return r.path_id < id;
                             });
  if (it == paths.end() || it->path_id != path_id) return std::nullopt;
  RibRoute removed = std::move(*it);
  paths.erase(it);
  if (paths.empty()) routes_.erase(pit);
  --size_;
  return removed;
}

PathVerdict compare_paths(const PathAttributes& c, const PeerDecisionInfo& ci,
                          const PathAttributes& b, const PeerDecisionInfo& bi) {
  const std::uint32_t clp = c.local_pref.value_or(100);  // default 100
  const std::uint32_t blp = b.local_pref.value_or(100);
  if (clp != blp) return {1, clp > blp};
  const std::size_t cal = c.as_path.decision_length();
  const std::size_t bal = b.as_path.decision_length();
  if (cal != bal) return {2, cal < bal};
  // IGP < EGP < INCOMPLETE.
  if (c.origin != b.origin) return {3, c.origin < b.origin};
  // MED only compares routes from the same neighboring AS (a missing MED
  // counts as 0, per common practice).
  const std::uint32_t cmed = c.med.value_or(0);
  const std::uint32_t bmed = b.med.value_or(0);
  if (c.as_path.first() == b.as_path.first() && cmed != bmed)
    return {4, cmed < bmed};
  if (ci.ibgp != bi.ibgp) return {5, !ci.ibgp};
  if (ci.router_id != bi.router_id) return {6, ci.router_id < bi.router_id};
  return {7, ci.peer_address < bi.peer_address};
}

int select_best_path(
    const std::vector<RibRoute>& candidates,
    const std::function<PeerDecisionInfo(PeerId)>& peer_info) {
  int best = -1;
  PeerDecisionInfo best_info;
  for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
    const RibRoute& cand = candidates[static_cast<std::size_t>(i)];
    if (!cand.valid()) continue;
    PeerDecisionInfo cand_info = peer_info(cand.peer);
    if (best < 0 ||
        compare_paths(*cand.attrs, cand_info,
                      *candidates[static_cast<std::size_t>(best)].attrs,
                      best_info)
            .wins) {
      best = i;
      best_info = cand_info;
    }
  }
  return best;
}

LocRib::LocRib(std::function<PeerDecisionInfo(PeerId)> peer_info)
    : peer_info_(std::move(peer_info)) {}

LocRib::UpdateResult LocRib::update(const RibRoute& route) {
  auto& state = prefixes_[route.prefix];
  auto it = std::find_if(state.candidates.begin(), state.candidates.end(),
                         [&](const RibRoute& r) {
                           return r.peer == route.peer &&
                                  r.path_id == route.path_id;
                         });
  if (it != state.candidates.end() && it->attrs == route.attrs)
    return {};  // unchanged re-announcement
  const BestKey old = best_key(state);
  UpdateResult result;
  result.changed = true;
  if (it == state.candidates.end()) {
    state.candidates.push_back(route);
    ++route_count_;
    result.added = true;
  } else {
    *it = route;
  }
  result.best_changed = reselect(state, old);
  return result;
}

LocRib::WithdrawResult LocRib::withdraw(const Ipv4Prefix& prefix, PeerId peer,
                                        std::uint32_t path_id) {
  WithdrawResult result;
  auto pit = prefixes_.find(prefix);
  if (pit == prefixes_.end()) return result;
  PrefixState& state = pit->second;
  auto it = std::find_if(state.candidates.begin(), state.candidates.end(),
                         [&](const RibRoute& r) {
                           return r.peer == peer && r.path_id == path_id;
                         });
  if (it == state.candidates.end()) return result;
  const BestKey old = best_key(state);
  result.removed = std::move(*it);
  state.candidates.erase(it);
  --route_count_;
  if (state.candidates.empty()) {
    prefixes_.erase(pit);
    result.best_changed = true;  // best existed, now gone
  } else {
    result.best_changed = reselect(state, old);
  }
  return result;
}

std::vector<RibRoute> LocRib::withdraw_peer(PeerId peer) {
  std::vector<RibRoute> routes = peer_routes(peer);
  for (const RibRoute& route : routes)
    withdraw(route.prefix, peer, route.path_id);
  return routes;
}

std::vector<RibRoute> LocRib::peer_routes(PeerId peer) const {
  std::vector<RibRoute> routes;
  for (const auto& [prefix, state] : prefixes_) {
    const std::size_t first = routes.size();
    for (const auto& cand : state.candidates)
      if (cand.peer == peer) routes.push_back(cand);
    std::sort(routes.begin() + static_cast<std::ptrdiff_t>(first), routes.end(),
              [](const RibRoute& a, const RibRoute& b) {
                return a.path_id < b.path_id;
              });
  }
  return routes;
}

LocRib::BestKey LocRib::best_key(const PrefixState& state) {
  if (state.best < 0) return {0, 0, nullptr};
  const RibRoute& best = state.candidates[static_cast<std::size_t>(state.best)];
  return {best.peer, best.path_id, best.attrs.get()};
}

bool LocRib::reselect(PrefixState& state, const BestKey& old) {
  state.best = select_best_path(state.candidates, peer_info_);
  return best_key(state) != old;
}

std::optional<RibRoute> LocRib::best(const Ipv4Prefix& prefix) const {
  auto it = prefixes_.find(prefix);
  if (it == prefixes_.end() || it->second.best < 0) return std::nullopt;
  return it->second.candidates[static_cast<std::size_t>(it->second.best)];
}

std::vector<RibRoute> LocRib::candidates(const Ipv4Prefix& prefix) const {
  auto it = prefixes_.find(prefix);
  if (it == prefixes_.end()) return {};
  return it->second.candidates;
}

const std::vector<RibRoute>* LocRib::candidates_ref(
    const Ipv4Prefix& prefix) const {
  auto it = prefixes_.find(prefix);
  if (it == prefixes_.end()) return nullptr;
  return &it->second.candidates;
}

void LocRib::visit_best(const std::function<void(const RibRoute&)>& fn) const {
  for (const auto& [prefix, state] : prefixes_) {
    if (state.best >= 0)
      fn(state.candidates[static_cast<std::size_t>(state.best)]);
  }
}

void LocRib::visit_all(const std::function<void(const RibRoute&)>& fn) const {
  for (const auto& [prefix, state] : prefixes_)
    for (const auto& cand : state.candidates) fn(cand);
}

std::size_t LocRib::memory_bytes() const {
  constexpr std::size_t kNodeOverhead = 4 * sizeof(void*);
  std::size_t bytes = sizeof(LocRib);
  for (const auto& [prefix, state] : prefixes_) {
    bytes += kNodeOverhead + sizeof(Ipv4Prefix) + sizeof(PrefixState);
    bytes += state.candidates.capacity() * sizeof(RibRoute);
  }
  return bytes;
}

}  // namespace peering::bgp

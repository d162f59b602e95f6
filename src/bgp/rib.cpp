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

std::vector<RibRoute> AdjRibIn::paths(const Ipv4Prefix& prefix) const {
  auto it = routes_.find(prefix);
  if (it == routes_.end()) return {};
  return it->second;
}

void AdjRibIn::visit(const std::function<void(const RibRoute&)>& fn) const {
  for (const auto& [prefix, paths] : routes_)
    for (const auto& route : paths) fn(route);
}

std::vector<RibRoute> AdjRibIn::clear() {
  std::vector<RibRoute> removed;
  removed.reserve(size_);
  // Map order, and paths ordered by path id within a prefix.
  for (auto& [prefix, paths] : routes_)
    for (auto& route : paths) removed.push_back(std::move(route));
  routes_.clear();
  size_ = 0;
  return removed;
}

std::size_t AdjRibIn::memory_bytes() const {
  // One rb-tree node per prefix (header approximated at 4 pointers) plus
  // the flat path vector's heap block.
  constexpr std::size_t kNodeOverhead = 4 * sizeof(void*);
  std::size_t bytes = sizeof(AdjRibIn);
  for (const auto& [prefix, paths] : routes_) {
    bytes += kNodeOverhead + sizeof(Ipv4Prefix) + sizeof(paths);
    bytes += paths.capacity() * sizeof(RibRoute);
  }
  return bytes;
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
    if (best < 0) {
      best = i;
      best_info = cand_info;
      continue;
    }
    const PathAttributes& b = *candidates[static_cast<std::size_t>(best)].attrs;
    const PathAttributes& c = *cand.attrs;

    // 1. Highest LOCAL_PREF (default 100).
    std::uint32_t blp = b.local_pref.value_or(100);
    std::uint32_t clp = c.local_pref.value_or(100);
    if (clp != blp) {
      if (clp > blp) { best = i; best_info = cand_info; }
      continue;
    }
    // 2. Shortest AS_PATH.
    std::size_t bal = b.as_path.decision_length();
    std::size_t cal = c.as_path.decision_length();
    if (cal != bal) {
      if (cal < bal) { best = i; best_info = cand_info; }
      continue;
    }
    // 3. Lowest ORIGIN (IGP < EGP < INCOMPLETE).
    if (c.origin != b.origin) {
      if (c.origin < b.origin) { best = i; best_info = cand_info; }
      continue;
    }
    // 4. Lowest MED, only comparable between routes from the same
    //    neighboring AS (missing MED treated as 0 per common practice).
    if (c.as_path.first() == b.as_path.first()) {
      std::uint32_t bmed = b.med.value_or(0);
      std::uint32_t cmed = c.med.value_or(0);
      if (cmed != bmed) {
        if (cmed < bmed) { best = i; best_info = cand_info; }
        continue;
      }
    }
    // 5. Prefer eBGP over iBGP.
    if (cand_info.ibgp != best_info.ibgp) {
      if (!cand_info.ibgp) { best = i; best_info = cand_info; }
      continue;
    }
    // 6. Lowest router id.
    if (cand_info.router_id != best_info.router_id) {
      if (cand_info.router_id < best_info.router_id) {
        best = i;
        best_info = cand_info;
      }
      continue;
    }
    // 7. Lowest peer address.
    if (cand_info.peer_address < best_info.peer_address) {
      best = i;
      best_info = cand_info;
    }
  }
  return best;
}

LocRib::LocRib(std::function<PeerDecisionInfo(PeerId)> peer_info)
    : peer_info_(std::move(peer_info)) {}

bool LocRib::update(const RibRoute& route) {
  auto& state = prefixes_[route.prefix];
  bool found = false;
  for (auto& cand : state.candidates) {
    if (cand.peer == route.peer && cand.path_id == route.path_id) {
      cand = route;
      found = true;
      break;
    }
  }
  if (!found) {
    state.candidates.push_back(route);
    ++route_count_;
  }
  return reselect(route.prefix, state);
}

bool LocRib::withdraw(const Ipv4Prefix& prefix, PeerId peer,
                      std::uint32_t path_id) {
  auto it = prefixes_.find(prefix);
  if (it == prefixes_.end()) return false;
  auto& cands = it->second.candidates;
  auto removed = std::remove_if(cands.begin(), cands.end(),
                                [&](const RibRoute& r) {
                                  return r.peer == peer && r.path_id == path_id;
                                });
  if (removed == cands.end()) return false;
  route_count_ -= static_cast<std::size_t>(cands.end() - removed);
  cands.erase(removed, cands.end());
  if (cands.empty()) {
    prefixes_.erase(it);
    return true;  // best existed, now gone
  }
  return reselect(prefix, it->second);
}

bool LocRib::reselect(const Ipv4Prefix& prefix, PrefixState& state) {
  (void)prefix;
  RibRoute old_best;
  bool had_best = state.best >= 0 &&
                  state.best < static_cast<int>(state.candidates.size());
  if (had_best) old_best = state.candidates[static_cast<std::size_t>(state.best)];
  state.best = select_best_path(state.candidates, peer_info_);
  if (!had_best) return state.best >= 0;
  if (state.best < 0) return true;
  const RibRoute& now = state.candidates[static_cast<std::size_t>(state.best)];
  return now.peer != old_best.peer || now.path_id != old_best.path_id ||
         now.attrs != old_best.attrs;
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

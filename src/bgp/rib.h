// Routing Information Bases: per-peer Adj-RIB-In and the Loc-RIB with the
// RFC 4271 decision process. Attribute sharing lives in bgp/attributes.h
// (AttrPool/AttrsPtr) — RIB entries only hold interned pointers, the reason
// per-route memory stays in the hundreds of bytes (Figure 6a). vBGP keeps
// all received paths (not just best) because ADD-PATH re-exports every one
// of them to experiments.
//
// Each RIB is one prefix-ordered map, so whole-table visits and dumps come
// out in ascending prefix order.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgp/attributes.h"
#include "netbase/prefix.h"

namespace peering::bgp {

/// Identifies a BGP session within a speaker.
using PeerId = std::uint32_t;

/// One path for a prefix as known by the speaker.
struct RibRoute {
  Ipv4Prefix prefix;
  /// ADD-PATH identifier scoped to the (peer, prefix) it was received on.
  std::uint32_t path_id = 0;
  PeerId peer = 0;
  AttrsPtr attrs;

  bool valid() const { return attrs != nullptr; }
};

/// Adj-RIB-In: everything a single peer has advertised, keyed by
/// (prefix, path-id).
class AdjRibIn {
 public:
  /// Inserts/replaces a path. Returns true if the stored route changed.
  bool update(const RibRoute& route);

  /// Removes a path. Returns the removed route if it existed.
  std::optional<RibRoute> withdraw(const Ipv4Prefix& prefix,
                                   std::uint32_t path_id);

  /// All paths for a prefix.
  std::vector<RibRoute> paths(const Ipv4Prefix& prefix) const;

  /// Visits all routes in ascending (prefix, path_id) order.
  void visit(const std::function<void(const RibRoute&)>& fn) const;

  /// Removes everything (session reset). Returns the removed routes in
  /// ascending (prefix, path_id) order.
  std::vector<RibRoute> clear();

  std::size_t size() const { return size_; }

  /// Bytes for route entries (attribute bytes are accounted in AttrPool).
  std::size_t memory_bytes() const;

 private:
  /// Paths per prefix in a flat vector (ordered by path_id): almost every
  /// (peer, prefix) carries a single path, so a per-path rb-tree node costs
  /// ~32 B/route for nothing. The vector keeps Adj-RIB-In at a few dozen
  /// bytes per route, which Figure 6a's B/route directly reports.
  std::map<Ipv4Prefix, std::vector<RibRoute>> routes_;
  std::size_t size_ = 0;
};

/// Context the decision process needs about the peer a route came from.
struct PeerDecisionInfo {
  bool ibgp = false;
  Asn peer_asn = 0;
  Ipv4Address peer_address;
  Ipv4Address router_id;
};

/// RFC 4271 §9.1 best-path selection among candidate routes:
/// 1. highest LOCAL_PREF  2. shortest AS_PATH  3. lowest ORIGIN
/// 4. lowest MED (same neighbor AS)  5. eBGP over iBGP
/// 6. lowest router id   7. lowest peer address.
/// Returns index into `candidates`, or -1 if empty.
int select_best_path(
    const std::vector<RibRoute>& candidates,
    const std::function<PeerDecisionInfo(PeerId)>& peer_info);

/// Loc-RIB: per-prefix candidate set with an incrementally maintained best
/// path. Candidates are the union of all peers' Adj-RIB-In entries after
/// import policy.
class LocRib {
 public:
  explicit LocRib(std::function<PeerDecisionInfo(PeerId)> peer_info);

  struct PrefixState {
    std::vector<RibRoute> candidates;
    int best = -1;
  };

  /// Adds/replaces the candidate identified by (route.peer, route.path_id).
  /// Returns true if the best path for the prefix changed.
  bool update(const RibRoute& route);

  /// Removes the candidate. Returns true if the best path changed.
  bool withdraw(const Ipv4Prefix& prefix, PeerId peer, std::uint32_t path_id);

  /// Current best path, if any.
  std::optional<RibRoute> best(const Ipv4Prefix& prefix) const;

  /// All candidates for a prefix.
  std::vector<RibRoute> candidates(const Ipv4Prefix& prefix) const;

  /// Candidate list for a prefix without copying, or nullptr if absent.
  /// Invalidated by update/withdraw on the same prefix — callers must not
  /// mutate the RIB while holding it.
  const std::vector<RibRoute>* candidates_ref(const Ipv4Prefix& prefix) const;

  /// Visits the best path of every prefix, ascending prefix order.
  void visit_best(const std::function<void(const RibRoute&)>& fn) const;

  /// Visits every candidate of every prefix, ascending prefix order.
  void visit_all(const std::function<void(const RibRoute&)>& fn) const;

  std::size_t prefix_count() const { return prefixes_.size(); }
  std::size_t route_count() const { return route_count_; }
  std::size_t memory_bytes() const;

 private:
  bool reselect(const Ipv4Prefix& prefix, PrefixState& state);

  std::function<PeerDecisionInfo(PeerId)> peer_info_;
  std::map<Ipv4Prefix, PrefixState> prefixes_;
  std::size_t route_count_ = 0;
};

}  // namespace peering::bgp

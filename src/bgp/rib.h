// Routing Information Bases. The speaker has one route store, the Loc-RIB:
// per prefix, every accepted (post-import-policy) path from every peer plus
// the RFC 4271 best. vBGP keeps all paths, not just the best, because
// ADD-PATH re-exports every one of them to experiments. A peer's Adj-RIB-In
// is a view of that store (LocRib::peer_routes), and a session reset removes
// it in one walk (LocRib::withdraw_peer). RIB entries only hold interned
// attribute pointers (bgp/attributes.h), which keeps per-route memory in
// the hundreds of bytes (Figure 6a). The Loc-RIB is one prefix-ordered map,
// so whole-table visits and dumps come out in ascending prefix order.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
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

/// A standalone per-peer path table keyed by (prefix, path-id). The speaker
/// does not use it: its Adj-RIB-In is a view of the Loc-RIB. The only caller
/// left is perfbench's ledger, which replays this table beside the Loc-RIB;
/// delete it once that replay uses LocRib alone.
class AdjRibIn {
 public:
  /// Inserts/replaces a path. Returns true if the stored route changed.
  bool update(const RibRoute& route);

  /// Removes a path. Returns the removed route if it existed.
  std::optional<RibRoute> withdraw(const Ipv4Prefix& prefix,
                                   std::uint32_t path_id);

  std::size_t size() const { return size_; }

 private:
  /// Paths per prefix, ordered by path_id.
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

/// One RFC 4271 §9.1 comparison of candidate `c` against the current best
/// `b`: the rule that decided it and whether `c` wins. Rules, in order:
/// 1. highest LOCAL_PREF  2. shortest AS_PATH  3. lowest ORIGIN
/// 4. lowest MED (same neighbor AS)  5. eBGP over iBGP
/// 6. lowest router id   7. lowest peer address.
struct PathVerdict {
  int rule = 0;
  bool wins = false;
};
PathVerdict compare_paths(const PathAttributes& c, const PeerDecisionInfo& ci,
                          const PathAttributes& b, const PeerDecisionInfo& bi);

/// Best-path selection among candidate routes: a pairwise tournament of
/// compare_paths in candidate order. Returns index into `candidates`, or
/// -1 if empty.
int select_best_path(
    const std::vector<RibRoute>& candidates,
    const std::function<PeerDecisionInfo(PeerId)>& peer_info);

/// Loc-RIB: per-prefix candidate set with an incrementally maintained best
/// path. Candidates are every peer's accepted paths after import policy,
/// identified by (prefix, peer, path id).
class LocRib {
 public:
  explicit LocRib(std::function<PeerDecisionInfo(PeerId)> peer_info);

  struct PrefixState {
    std::vector<RibRoute> candidates;
    int best = -1;
  };

  /// `changed` is false for an unchanged re-announcement (same peer, path
  /// id and interned attrs pointer), which does nothing else. `added`: the
  /// (peer, path id) is new for the prefix. `best_changed`: the prefix's
  /// best path changed.
  struct UpdateResult {
    bool changed = false;
    bool added = false;
    bool best_changed = false;
  };
  /// `removed` is empty when there was no such candidate.
  struct WithdrawResult {
    std::optional<RibRoute> removed;
    bool best_changed = false;
  };

  /// Adds/replaces the candidate identified by (route.peer, route.path_id).
  UpdateResult update(const RibRoute& route);

  /// Removes the candidate.
  WithdrawResult withdraw(const Ipv4Prefix& prefix, PeerId peer,
                          std::uint32_t path_id);

  /// Removes every candidate sourced by `peer` (session reset): one
  /// ascending walk finds them. Returns them in (prefix, path id) order.
  std::vector<RibRoute> withdraw_peer(PeerId peer);

  /// The peer's Adj-RIB-In view: its candidates in (prefix, path id) order.
  std::vector<RibRoute> peer_routes(PeerId peer) const;

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
  /// (peer, path id, attrs) of the prefix's best path; null attrs: none.
  using BestKey = std::tuple<PeerId, std::uint32_t, const PathAttributes*>;
  static BestKey best_key(const PrefixState& state);

  /// Re-runs the decision process. True if the best moved off `old`.
  bool reselect(PrefixState& state, const BestKey& old);

  std::function<PeerDecisionInfo(PeerId)> peer_info_;
  std::map<Ipv4Prefix, PrefixState> prefixes_;
  std::size_t route_count_ = 0;
};

}  // namespace peering::bgp

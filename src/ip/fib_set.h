// Shared-leaf FIB store. The paper's Figure 6a shows that vBGP's dominant
// memory cost is one FIB per BGP neighbor, yet most prefixes appear in
// nearly every neighbor's table with only the next-hop differing. FibSet
// exploits that: ONE path-compressed prefix trie is shared by all of a
// router's per-neighbor tables (plus the mux and optional default tables),
// and each leaf holds a compact per-view slot array of interned route
// payloads. The marginal cost of a prefix already known to another neighbor
// is 4 bytes (a slot) instead of a private trie chain.
//
// Copy-on-write semantics: views never copy shared structure. A write
// through a view touches only that view's 4-byte slot in the leaf (growing
// the leaf's slot array on first divergence); the trie path and the interned
// payloads stay shared. Route payloads (next-hop, interface, metric) are
// interned by content — a neighbor's ten thousand routes through one gateway
// reference a single pooled entry.
//
// Lookups do not walk the binary trie. A Poptrie-style multibit index
// (Asai and Ohara, SIGCOMM '15; 6-bit strides) maps an address in a few
// steps to the longest trie node that any view populates; the view's slot
// there is the answer unless the view lacks one, in which case the binary
// walk runs (a counted fallback). The trie stays the single source of truth;
// the index changes only when a prefix joins or leaves the union of views,
// never on a slot-only write.
//
// FibView preserves the RoutingTable contract (insert / remove / lookup /
// exact / visit / clear / size / memory_bytes), so ip::Host-style forwarding
// code and the looking glass work against either. Two memory numbers are
// exposed: FibSet::memory_bytes() is the deduplicated truth ("shared");
// flat_equivalent_bytes() is what the same contents would cost as private
// per-neighbor RoutingTables ("flat") — the fig6a ablation compares the two.
//
// A FibSet belongs to one router and is read and written from its single
// thread: slot arrays are plain memory, and growing one frees the array it
// replaces at once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ip/prefix_trie.h"
#include "ip/routing_table.h"
#include "netbase/ip.h"
#include "netbase/prefix.h"
#include "obs/metrics.h"

namespace peering::ip {

class FibView;

class FibSet {
 public:
  using ViewId = std::uint16_t;
  static constexpr ViewId kNoView = 0xFFFF;

  FibSet();
  // Views hold a stable pointer to their set: neither copyable nor movable.
  FibSet(const FibSet&) = delete;
  FibSet& operator=(const FibSet&) = delete;

  /// Registers a view (freed ids are reused). Prefer make_view().
  ViewId create_view();

  /// Drops a view: its routes are removed and the id becomes reusable.
  void release_view(ViewId view);

  /// Creates a bound FibView (RAII: releases the view on destruction).
  FibView make_view();

  /// Inserts or replaces `route` in `view`. Returns true if the view
  /// already had a route for that exact prefix (and it was replaced).
  bool insert(ViewId view, const Route& route);

  /// Removes the view's route for exactly `prefix`. Returns true if one
  /// existed. Leaves no longer referenced by any view are pruned.
  bool remove(ViewId view, const Ipv4Prefix& prefix);

  /// Longest-prefix-match lookup within one view.
  std::optional<Route> lookup(ViewId view, Ipv4Address addr) const;

  /// Exact-match lookup within one view.
  std::optional<Route> exact(ViewId view, const Ipv4Prefix& prefix) const;

  /// Visits every route installed in `view` (trie preorder, the same order
  /// RoutingTable::visit produces for the same contents).
  void visit(ViewId view, const std::function<void(const Route&)>& fn) const;

  /// Removes all of one view's routes.
  void clear(ViewId view);

  std::size_t size(ViewId view) const;

  /// Live (registered, unreleased) views.
  std::size_t view_count() const;
  /// Total routes across all views (what fig6a calls FIB entries).
  std::size_t route_count() const;
  /// Distinct prefixes present in at least one view.
  std::size_t unique_prefix_count() const;

  /// Actual bytes of the deduplicated store: trie nodes + leaf slot arrays
  /// + lookup index + interned payload pool (+ intern-map overhead
  /// estimate).
  std::size_t memory_bytes() const;

  /// Bytes of the multibit lookup index (part of memory_bytes()). Changes
  /// only when a prefix joins or leaves the union of views.
  std::size_t index_bytes() const;

  /// What one view's contents would cost as a standalone RoutingTable
  /// (exact node count of the equivalent path-compressed trie).
  std::size_t flat_equivalent_bytes(ViewId view) const;

  /// Sum of flat_equivalent_bytes over all live views: the memory a
  /// per-neighbor-table implementation would need for the same state.
  std::size_t flat_equivalent_bytes() const;

 private:
  /// Interned route payload: everything of a Route except the prefix
  /// (implied by the leaf). Ids are 1-based; 0 means "no route".
  struct Payload {
    Ipv4Address next_hop;
    std::int32_t interface = -1;
    std::uint32_t metric = 0;

    bool operator==(const Payload&) const = default;
  };
  struct PayloadHash {
    std::size_t operator()(const Payload& p) const noexcept {
      std::uint64_t h = p.next_hop.value();
      h = h * 0x9e3779b97f4a7c15ull + static_cast<std::uint32_t>(p.interface);
      h = h * 0x9e3779b97f4a7c15ull + p.metric;
      return static_cast<std::size_t>(h);
    }
  };

  /// Per-leaf slot array: slot `view` is the view's interned payload id
  /// (0 = absent). Starts empty; grows geometrically on the first write by
  /// a view beyond the current capacity — the copy-on-write step, confined
  /// to this leaf.
  ///
  /// The allocation carries a 4-byte header word (`arr[0]`; slots start at
  /// `arr[1]`). The header's low half is the highest view index the array
  /// holds (capacity - 1) and its high half counts the non-zero slots.
  /// Keeping both out of line makes the handle one pointer, which keeps a
  /// trie node at 32 bytes.
  class Slots {
   public:
    bool empty() const { return !ids_ || (ids_[0] >> 16) == 0; }
    std::size_t heap_bytes() const {
      return ids_ ? (capacity() + 1) * sizeof(std::uint32_t) : 0;
    }

    std::uint32_t get(ViewId view) const {
      return view < capacity() ? ids_[1 + view] : 0;
    }

    /// Stores `id` for `view` (growing if needed) and returns the previous
    /// id. Storing 0 into a view beyond capacity is a no-op.
    std::uint32_t set(ViewId view, std::uint32_t id);

    template <typename Fn>
    void for_each(Fn&& fn) const {  // fn(view, payload id), non-zero only
      const std::uint32_t cap = capacity();
      for (std::uint32_t v = 0; v < cap; ++v) {
        if (ids_[1 + v] != 0) fn(static_cast<ViewId>(v), ids_[1 + v]);
      }
    }

    std::uint32_t capacity() const {
      return ids_ ? (ids_[0] & 0xFFFFu) + 1 : 0;
    }

   private:
    std::unique_ptr<std::uint32_t[]> ids_;
  };

  using Trie = detail::PrefixTrie<Slots>;

  /// One node of the multibit lookup index. It covers a block of 6*depth
  /// leading address bits and splits it into 64 cells of 6 more bits (the
  /// last level, depth 5, sees addresses padded with 4 zero bits, so a /31
  /// or /32 spans 32 or 16 of its cells). A cell either descends to a child
  /// node or is a leaf naming the longest non-empty trie node covering the
  /// whole cell (nullptr: no view has a route there). Children are stored
  /// in cell order and ranked by popcount over `child_bits`. Leaves are
  /// run-length compressed: `leaf_bits` marks the leaf cells where a run of
  /// equal leaves starts, ranked by popcount the same way (the leaf array
  /// has spare capacity; see leaf_capacity). Descending reads only the
  /// first two fields; the leaf step only the last two.
  struct IndexNode {
    std::uint64_t child_bits = 0;
    std::unique_ptr<IndexNode[]> children;
    std::uint64_t leaf_bits = 0;
    std::unique_ptr<const Trie::Node*[]> leaves;
  };

  std::uint32_t intern(const Payload& payload);
  void ref(std::uint32_t id) { ++refs_[id - 1]; }
  void deref(std::uint32_t id);
  const Payload& payload(std::uint32_t id) const { return payloads_[id - 1]; }
  Route materialize(const Trie::Node& node, std::uint32_t id) const;
  bool view_live(ViewId view) const {
    return view < view_live_.size() && view_live_[view];
  }
  /// Node count of the standalone path-compressed trie holding exactly the
  /// prefixes `view` has entries for.
  std::size_t flat_node_count(ViewId view) const;

  /// Longest trie node that any view populates and whose prefix contains
  /// `addr`, or nullptr: the index walk.
  const Trie::Node* longest_shared_match(std::uint32_t addr) const;
  /// Index maintenance. An index node covers `block` (its top 6*depth
  /// bits); `cover` is the longest non-empty trie node covering the whole
  /// block and `top` the first trie node at or below it (either may be
  /// null), so no call walks the trie from its root again.
  static const Trie::Node* descend(const Trie::Node* top,
                                   std::uint32_t cell_block, int len,
                                   const Trie::Node*& cover);
  void rebuild_index();
  /// Brings the index up to date after `prefix` joined or left the union
  /// of views. Only cells that intersect `prefix` are rebuilt.
  void index_changed(const Ipv4Prefix& prefix);
  void update_index_node(IndexNode& node, int depth, std::uint32_t block,
                         const Trie::Node* cover, const Trie::Node* top,
                         const Ipv4Prefix& changed);
  /// Builds `node` afresh from the trie.
  void build_index_node(IndexNode& node, int depth, std::uint32_t block,
                        const Trie::Node* cover, const Trie::Node* top);
  /// Per-cell state of one index node while it is rebuilt: each cell's
  /// leaf (a child cell's leaf is the child's cover), the child bits, and
  /// for child cells the first trie node at or below the cell.
  struct IndexCells {
    const Trie::Node* leaf[64];
    const Trie::Node* top[64] = {};
    std::uint64_t child_bits = 0;

    /// Paints `n` and its subtree, all inside this node's block: a node
    /// no longer than a cell sets the leaf of every cell it spans (longer
    /// nodes paint later, over shorter ones); a longer one makes its cell
    /// a child.
    void paint(const Trie::Node* n, int depth);
  };
  /// Lays `cells` out as `node`'s ranked arrays. Children of cells
  /// disjoint from `*changed` move over from the old node unchanged; all
  /// others (every one when `changed` is null) are built afresh.
  void layout_index_node(IndexNode& node, int depth, std::uint32_t block,
                         const IndexCells& cells, const Ipv4Prefix* changed);
  std::size_t index_node_bytes(const IndexNode& node) const;

  Trie trie_;
  IndexNode index_;  // root: depth 0, the whole address space
  // Payload pool: contiguous storage + refcounts + content-intern index.
  std::vector<Payload> payloads_;
  std::vector<std::uint32_t> refs_;
  std::vector<std::uint32_t> free_payloads_;
  std::unordered_map<Payload, std::uint32_t, PayloadHash> payload_ids_;
  // Per-view bookkeeping, indexed by ViewId.
  std::vector<std::size_t> view_sizes_;
  std::vector<std::uint8_t> view_live_;
  std::vector<ViewId> free_views_;

  /// Telemetry handles, resolved once against the process-global registry.
  /// All FibSets share the same platform-wide series (per-router memory
  /// splits come from the owning component's collector).
  obs::Counter* obs_cow_growth_;     // leaf slot-array CoW growths
  obs::Counter* obs_lookup_misses_;  // LPM probes with no route
  obs::Counter* obs_lpm_fallback_;   // LPMs where the view lacks the index
                                     // leaf's route: the binary walk ran
  obs::Histogram* obs_lpm_depth_;    // matched prefix length per LPM hit
};

/// A per-neighbor window onto a FibSet, drop-in compatible with
/// RoutingTable. Default-constructed views are unbound: reads come back
/// empty and writes are ignored (the registry binds a view immediately on
/// neighbor allocation; unbound is only the moved-from/pre-bind state).
class FibView {
 public:
  FibView() = default;
  FibView(FibSet* set, FibSet::ViewId id) : set_(set), id_(id) {}
  ~FibView() { release(); }

  FibView(const FibView&) = delete;
  FibView& operator=(const FibView&) = delete;
  FibView(FibView&& other) noexcept
      : set_(std::exchange(other.set_, nullptr)),
        id_(std::exchange(other.id_, FibSet::kNoView)) {}
  FibView& operator=(FibView&& other) noexcept {
    if (this != &other) {
      release();
      set_ = std::exchange(other.set_, nullptr);
      id_ = std::exchange(other.id_, FibSet::kNoView);
    }
    return *this;
  }

  bool bound() const { return set_ != nullptr; }
  FibSet* set() const { return set_; }
  FibSet::ViewId id() const { return id_; }

  bool insert(const Route& route) {
    return set_ ? set_->insert(id_, route) : false;
  }
  bool remove(const Ipv4Prefix& prefix) {
    return set_ ? set_->remove(id_, prefix) : false;
  }
  std::optional<Route> lookup(Ipv4Address addr) const {
    return set_ ? set_->lookup(id_, addr) : std::nullopt;
  }
  std::optional<Route> exact(const Ipv4Prefix& prefix) const {
    return set_ ? set_->exact(id_, prefix) : std::nullopt;
  }
  void visit(const std::function<void(const Route&)>& fn) const {
    if (set_) set_->visit(id_, fn);
  }
  void clear() {
    if (set_) set_->clear(id_);
  }
  std::size_t size() const { return set_ ? set_->size(id_) : 0; }
  bool empty() const { return size() == 0; }

  /// Per-view-equivalent ("flat") bytes: what this view's contents would
  /// cost as a private RoutingTable. The deduplicated truth lives on the
  /// set (FibSet::memory_bytes) — summing views' memory_bytes reproduces
  /// the pre-sharing accounting, which is exactly what the fig6a ablation
  /// compares against.
  std::size_t memory_bytes() const {
    return set_ ? set_->flat_equivalent_bytes(id_) : sizeof(FibView);
  }

 private:
  void release() {
    if (set_) set_->release_view(id_);
    set_ = nullptr;
    id_ = FibSet::kNoView;
  }

  FibSet* set_ = nullptr;
  FibSet::ViewId id_ = FibSet::kNoView;
};

}  // namespace peering::ip

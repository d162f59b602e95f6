#include "ip/fib_set.h"

#include <algorithm>
#include <bit>

namespace peering::ip {

namespace {

using detail::mask_bits;

/// Index stride: each level consumes 6 address bits, so a cell is one bit
/// of a 64-bit vector.
constexpr int kStride = 6;

/// Prefix length of the cells of an index node at `depth` (36 at depth 5:
/// past the address, which the index pads with zero bits).
constexpr int cell_len(int depth) { return kStride * depth + kStride; }

/// Cell of `addr` within the index node at `depth`.
inline unsigned cell_of(std::uint32_t addr, int depth) {
  return static_cast<unsigned>(((std::uint64_t{addr} << 32)
                                << (kStride * depth)) >> 58);
}

/// Bits 0..cell of a cell vector: popcount(bits & upto(cell)) - 1 ranks the
/// child or leaf run that `cell` maps to.
inline std::uint64_t upto(unsigned cell) {
  return (std::uint64_t{2} << cell) - 1;  // cell 63: shifts out, wraps to ~0
}

/// Entries allocated for a node's leaf runs: the run count rounded up to
/// 1, 2, 3, 4, 6, 8, 12, 16, ... (two size classes per power of two), so
/// most single-prefix changes rewrite the array in place. Reallocating it
/// on every change churns the allocator with small, ever-larger blocks,
/// which fragments the heap around the index.
inline std::size_t leaf_capacity(std::uint64_t leaf_bits) {
  const unsigned runs = static_cast<unsigned>(std::popcount(leaf_bits));
  if (runs <= 2) return runs;
  const unsigned octave = std::bit_floor(runs - 1);  // runs in (octave, 2*octave]
  return runs <= octave + octave / 2 ? octave + octave / 2 : 2 * octave;
}

}  // namespace

// Each index step ranks a cell with a popcount. x86-64 builds that do not
// assume the POPCNT instruction compile std::popcount to a library call,
// which roughly doubles the index walk, so the walk gets a POPCNT clone
// picked at load time on CPUs that have it. The pick runs as an ifunc
// resolver, before a sanitizer runtime is up, so sanitized builds (which
// are not timed) keep the plain walk.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__POPCNT__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define PEERING_POPCNT_CLONES __attribute__((target_clones("popcnt", "default")))
#else
#define PEERING_POPCNT_CLONES
#endif

FibSet::FibSet() {
  obs::Registry* metrics = obs::Registry::global();
  obs_cow_growth_ = metrics->counter("fib_cow_slot_growth_total");
  obs_lookup_misses_ = metrics->counter("fib_lpm_miss_total");
  obs_lpm_fallback_ = metrics->counter("fib_lpm_fallback_total");
  obs_lpm_depth_ = metrics->histogram("fib_lpm_match_len");
  rebuild_index();
  // Key, length, slot-array pointer and two child links: half a cache line
  // on a 64-bit host. The bytes saved here pay for the lookup index.
  static_assert(sizeof(void*) != 8 || sizeof(Trie::Node) == 32);
}

// ---------------------------------------------------------------------------
// Slots
// ---------------------------------------------------------------------------

std::uint32_t FibSet::Slots::set(ViewId view, std::uint32_t id) {
  const std::uint32_t cap = capacity();
  if (view >= cap) {
    if (id == 0) return 0;  // clearing an absent slot: nothing to do
    std::uint32_t new_cap = cap != 0 ? cap : 2;
    while (new_cap <= view) new_cap *= 2;
    // Header word [0], slots at [1..new_cap]; value-init zeroes them.
    auto grown = std::make_unique<std::uint32_t[]>(new_cap + 1);
    grown[0] = (new_cap - 1) | (ids_ ? ids_[0] & 0xFFFF0000u : 0);
    if (ids_) std::copy(&ids_[1], &ids_[1] + cap, &grown[1]);
    ids_ = std::move(grown);
  }
  const std::uint32_t prev = ids_[1 + view];
  ids_[1 + view] = id;
  if (prev == 0 && id != 0)
    ids_[0] += 1u << 16;
  else if (prev != 0 && id == 0)
    ids_[0] -= 1u << 16;
  return prev;
}

// ---------------------------------------------------------------------------
// Payload pool
// ---------------------------------------------------------------------------

std::uint32_t FibSet::intern(const Payload& payload) {
  auto it = payload_ids_.find(payload);
  if (it != payload_ids_.end()) {
    ref(it->second);
    return it->second;
  }
  std::uint32_t id;
  if (!free_payloads_.empty()) {
    id = free_payloads_.back();
    free_payloads_.pop_back();
    payloads_[id - 1] = payload;
    refs_[id - 1] = 1;
  } else {
    payloads_.push_back(payload);
    refs_.push_back(1);
    id = static_cast<std::uint32_t>(payloads_.size());
  }
  payload_ids_.emplace(payload, id);
  return id;
}

void FibSet::deref(std::uint32_t id) {
  if (--refs_[id - 1] == 0) {
    payload_ids_.erase(payloads_[id - 1]);
    free_payloads_.push_back(id);
  }
}

Route FibSet::materialize(const Trie::Node& node, std::uint32_t id) const {
  const Payload& p = payload(id);
  return Route{node.prefix(), p.next_hop, p.interface, p.metric};
}

// ---------------------------------------------------------------------------
// View lifecycle
// ---------------------------------------------------------------------------

FibSet::ViewId FibSet::create_view() {
  if (!free_views_.empty()) {
    ViewId view = free_views_.back();
    free_views_.pop_back();
    view_live_[view] = 1;
    view_sizes_[view] = 0;
    return view;
  }
  ViewId view = static_cast<ViewId>(view_sizes_.size());
  view_sizes_.push_back(0);
  view_live_.push_back(1);
  return view;
}

void FibSet::release_view(ViewId view) {
  if (!view_live(view)) return;
  clear(view);
  view_live_[view] = 0;
  free_views_.push_back(view);
}

FibView FibSet::make_view() { return FibView(this, create_view()); }

// ---------------------------------------------------------------------------
// RoutingTable-contract operations, per view
// ---------------------------------------------------------------------------

bool FibSet::insert(ViewId view, const Route& route) {
  if (!view_live(view)) return false;
  Trie::Node* node = trie_.ensure(route.prefix);
  std::uint32_t id =
      intern(Payload{route.next_hop, route.interface, route.metric});
  const bool joins_union = node->payload.empty();
  std::uint32_t cap_before = node->payload.capacity();
  std::uint32_t prev = node->payload.set(view, id);
  if (node->payload.capacity() != cap_before) obs_cow_growth_->inc();
  if (joins_union) index_changed(route.prefix);
  if (prev != 0) {
    deref(prev);
    return true;
  }
  ++view_sizes_[view];
  return false;
}

bool FibSet::remove(ViewId view, const Ipv4Prefix& prefix) {
  if (!view_live(view)) return false;
  Trie::Node* node = trie_.find(prefix);
  if (!node) return false;
  std::uint32_t prev = node->payload.set(view, 0);
  if (prev == 0) return false;  // node exists but is another view's (or structural)
  deref(prev);
  --view_sizes_[view];
  if (node->payload.empty()) {
    trie_.prune_path(prefix);
    index_changed(prefix);
  }
  return true;
}

std::optional<Route> FibSet::lookup(ViewId view, Ipv4Address addr) const {
  const Trie::Node* best = longest_shared_match(addr.value());
  std::uint32_t best_id = best ? best->payload.get(view) : 0;
  if (best && best_id == 0) {
    // Another view owns the longest match (say, a neighbor's more-specific
    // under a mux prefix): this view's answer is a shorter node, if any.
    obs_lpm_fallback_->inc();
    best = nullptr;
    trie_.walk_containing(addr, [&](const Trie::Node& node) {
      std::uint32_t id = node.payload.get(view);
      if (id != 0) {
        best = &node;
        best_id = id;
      }
    });
  }
  if (!best) {
    obs_lookup_misses_->inc();
    return std::nullopt;
  }
  obs_lpm_depth_->record(best->len);
  return materialize(*best, best_id);
}

std::optional<Route> FibSet::exact(ViewId view, const Ipv4Prefix& prefix) const {
  const Trie::Node* node = trie_.find(prefix);
  if (!node) return std::nullopt;
  std::uint32_t id = node->payload.get(view);
  if (id == 0) return std::nullopt;
  return materialize(*node, id);
}

void FibSet::visit(ViewId view,
                   const std::function<void(const Route&)>& fn) const {
  trie_.visit([&](const Trie::Node& node) {
    std::uint32_t id = node.payload.get(view);
    if (id != 0) fn(materialize(node, id));
  });
}

void FibSet::clear(ViewId view) {
  if (!view_live(view) || view_sizes_[view] == 0) return;
  std::vector<Ipv4Prefix> left_union;
  std::size_t kept = 0;
  trie_.visit_mut([&](Trie::Node& node) {
    std::uint32_t prev = node.payload.set(view, 0);
    if (prev != 0) deref(prev);
    if (!node.payload.empty())
      ++kept;
    else if (prev != 0)
      left_union.push_back(node.prefix());
  });
  view_sizes_[view] = 0;
  trie_.prune_all();
  // Update the index per prefix that left the union, unless that is more
  // work than building it afresh from what is left.
  if (left_union.size() > kept) {
    rebuild_index();
  } else {
    for (const Ipv4Prefix& prefix : left_union) index_changed(prefix);
  }
}

std::size_t FibSet::size(ViewId view) const {
  return view < view_sizes_.size() ? view_sizes_[view] : 0;
}

// ---------------------------------------------------------------------------
// Multibit lookup index
// ---------------------------------------------------------------------------
//
// Every leaf names the longest non-empty trie node whose prefix contains the
// leaf's whole cell. A node is non-empty while any view has a slot in it, so
// the index depends only on the set of prefixes in the union of views: slot
// writes that keep a node non-empty never touch it. Structural junctions are
// empty and never named, and the trie never moves a non-empty node (ensure
// links new nodes around it; pruning frees only empty ones), so a leaf stays
// valid until its prefix leaves the union — exactly when the index is
// rebuilt there.
//
// Cell rules, for an index node at depth d (cells of cell_len(d) bits):
// a trie node inside the node's block with length <= cell_len(d) paints the
// cells it spans (longer nodes paint over shorter ones); a cell holding a
// node longer than cell_len(d) descends to a child built from the subtree
// under that node. The trie prunes empty nodes with fewer than two children,
// so any node there has a non-empty node beneath or at it: the child is
// never empty.

PEERING_POPCNT_CLONES
const FibSet::Trie::Node* FibSet::longest_shared_match(
    std::uint32_t addr) const {
  const IndexNode* node = &index_;
  std::uint64_t bits = std::uint64_t{addr} << 32;
  for (;;) {
    const unsigned cell = static_cast<unsigned>(bits >> 58);
    const std::uint64_t rank_mask = upto(cell);
    if (((node->child_bits >> cell) & 1) == 0)
      return node->leaves[std::popcount(node->leaf_bits & rank_mask) - 1];
    node = &node->children[std::popcount(node->child_bits & rank_mask) - 1];
    bits <<= kStride;
  }
}

/// Steps from `top`, the first trie node at or below some block, down to the
/// `len`-bit block `cell_block` inside it. Returns the first node at or
/// below that block (nullptr if none) and moves `cover` to the longest
/// non-empty node passed on the way.
const FibSet::Trie::Node* FibSet::descend(const Trie::Node* top,
                                          std::uint32_t cell_block, int len,
                                          const Trie::Node*& cover) {
  const Trie::Node* n = top;
  while (n && n->len < len && n->contains(cell_block)) {
    if (!n->payload.empty()) cover = n;
    n = n->child[detail::bit_at(cell_block, n->len)].get();
  }
  if (n && ((n->key ^ cell_block) & mask_bits(len)) != 0) return nullptr;
  return n;
}

void FibSet::rebuild_index() {
  build_index_node(index_, 0, 0, nullptr, trie_.root());
}

void FibSet::index_changed(const Ipv4Prefix& prefix) {
  update_index_node(index_, 0, 0, nullptr, trie_.root(), prefix);
}

void FibSet::IndexCells::paint(const Trie::Node* n, int depth) {
  const int len = cell_len(depth);
  const unsigned first = cell_of(n->key, depth);
  if (n->len > len) {
    child_bits |= std::uint64_t{1} << first;
    if (!top[first]) top[first] = n;
    return;
  }
  if (n->len == len) top[first] = n;
  if (!n->payload.empty())
    std::fill_n(leaf + first, std::size_t{1} << (len - n->len), n);
  for (const auto& child : n->child)
    if (child) paint(child.get(), depth);
}

void FibSet::update_index_node(IndexNode& node, int depth,
                               std::uint32_t block, const Trie::Node* cover,
                               const Trie::Node* top,
                               const Ipv4Prefix& changed) {
  const int len = cell_len(depth);
  const std::uint32_t addr = changed.address().value();
  const unsigned cell = cell_of(addr, depth);
  const Trie::Node* cell_cover = cover;
  const Trie::Node* cell_top = nullptr;
  bool now_child = false;
  if (changed.length() > len) {
    // The change lies inside one cell; only that cell's kind can change.
    // A node longer than the cell, inside it, makes the cell a child.
    const std::uint32_t cell_block = addr & mask_bits(len);
    cell_top = descend(top, cell_block, len, cell_cover);
    now_child = cell_top && (cell_top->len > len || cell_top->child[0] ||
                             cell_top->child[1]);
    if (now_child && ((node.child_bits >> cell) & 1)) {
      const int rank = std::popcount(node.child_bits & upto(cell)) - 1;
      update_index_node(node.children[rank], depth + 1, cell_block,
                        cell_cover, cell_top, changed);
      return;
    }
  }

  // Unpack the leaf runs to one leaf per cell. A run also fills the child
  // cells it passes over; a child cell's leaf matters only when the cell
  // turns into a leaf, and then it is set below.
  IndexCells cells;
  cells.child_bits = node.child_bits;
  std::uint64_t starts = node.leaf_bits;
  for (int run = 0; starts != 0; ++run) {
    const int from = run == 0 ? 0 : std::countr_zero(starts);
    starts &= starts - 1;
    const int to = starts == 0 ? 64 : std::countr_zero(starts);
    std::fill(cells.leaf + from, cells.leaf + to, node.leaves[run]);
  }

  if (changed.length() > len) {
    if (now_child) {
      cells.child_bits |= std::uint64_t{1} << cell;
      cells.top[cell] = cell_top;  // its leaf stays the child's cover
    } else {
      cells.child_bits &= ~(std::uint64_t{1} << cell);
      const bool cell_node_holds = cell_top && cell_top->len == len &&
                                   !cell_top->payload.empty();
      cells.leaf[cell] = cell_node_holds ? cell_top : cell_cover;
    }
  } else {
    // The change spans cells of this node: repaint exactly those, from the
    // longest non-empty node above the changed prefix down.
    const Trie::Node* span_cover = cover;
    const Trie::Node* span_top =
        descend(top, addr, changed.length(), span_cover);
    std::fill_n(cells.leaf + cell, std::size_t{1} << (len - changed.length()),
                span_cover);
    if (span_top) cells.paint(span_top, depth);
  }
  layout_index_node(node, depth, block, cells, &changed);
}

void FibSet::build_index_node(IndexNode& node, int depth, std::uint32_t block,
                              const Trie::Node* cover,
                              const Trie::Node* top) {
  IndexCells cells;
  std::fill(std::begin(cells.leaf), std::end(cells.leaf), cover);
  if (top) cells.paint(top, depth);
  layout_index_node(node, depth, block, cells, nullptr);
}

void FibSet::layout_index_node(IndexNode& node, int depth,
                               std::uint32_t block, const IndexCells& cells,
                               const Ipv4Prefix* changed) {
  const int len = cell_len(depth);
  IndexNode fresh;
  fresh.child_bits = cells.child_bits;
  // A leaf cell starts a run unless it repeats the previous leaf cell.
  const std::uint64_t leaf_cells = ~cells.child_bits;
  if (leaf_cells != 0) {
    const int first = std::countr_zero(leaf_cells);
    fresh.leaf_bits = std::uint64_t{1} << first;
    const Trie::Node* prev = cells.leaf[first];
    for (int c = first + 1; c < 64; ++c) {
      const bool is_leaf = (leaf_cells >> c) & 1;
      fresh.leaf_bits |= std::uint64_t{is_leaf && cells.leaf[c] != prev} << c;
      prev = is_leaf ? cells.leaf[c] : prev;
    }
    const std::size_t capacity = leaf_capacity(fresh.leaf_bits);
    if (capacity == leaf_capacity(node.leaf_bits))
      fresh.leaves = std::move(node.leaves);
    else
      fresh.leaves = std::make_unique<const Trie::Node*[]>(capacity);
    int out = 0;
    for (std::uint64_t b = fresh.leaf_bits; b != 0; b &= b - 1)
      fresh.leaves[out++] = cells.leaf[std::countr_zero(b)];
  }
  if (cells.child_bits != 0) {
    // Same child cells as before: keep the array, rebuild in place.
    const bool same_children =
        changed != nullptr && cells.child_bits == node.child_bits;
    if (same_children)
      fresh.children = std::move(node.children);
    else
      fresh.children =
          std::make_unique<IndexNode[]>(std::popcount(cells.child_bits));
    int child = 0;
    for (std::uint64_t b = cells.child_bits; b != 0; b &= b - 1) {
      const int c = std::countr_zero(b);
      const std::uint32_t cell_block =
          block | static_cast<std::uint32_t>(c) << (32 - len);
      IndexNode& slot = fresh.children[child++];
      const bool untouched =
          changed != nullptr && ((node.child_bits >> c) & 1) &&
          ((changed->address().value() ^ cell_block) &
           mask_bits(std::min<int>(changed->length(), len))) != 0;
      if (!untouched)
        build_index_node(slot, depth + 1, cell_block, cells.leaf[c],
                         cells.top[c]);
      else if (!same_children)
        slot = std::move(node.children[std::popcount(
                                           node.child_bits & upto(c)) - 1]);
    }
  }
  node = std::move(fresh);
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

std::size_t FibSet::view_count() const {
  return view_sizes_.size() - free_views_.size();
}

std::size_t FibSet::route_count() const {
  std::size_t total = 0;
  for (std::size_t n : view_sizes_) total += n;
  return total;
}

std::size_t FibSet::unique_prefix_count() const {
  std::size_t count = 0;
  trie_.visit([&](const Trie::Node& node) {
    if (!node.payload.empty()) ++count;
  });
  return count;
}

std::size_t FibSet::memory_bytes() const {
  std::size_t bytes = sizeof(FibSet) + trie_.memory_bytes() + index_bytes();
  trie_.visit([&](const Trie::Node& node) {
    bytes += node.payload.heap_bytes();
  });
  bytes += payloads_.capacity() * sizeof(Payload);
  bytes += refs_.capacity() * sizeof(std::uint32_t);
  bytes += free_payloads_.capacity() * sizeof(std::uint32_t);
  // Intern index: per-entry node (key, value, chain pointer) plus buckets.
  bytes += payload_ids_.size() *
           (sizeof(Payload) + sizeof(std::uint32_t) + 2 * sizeof(void*));
  bytes += payload_ids_.bucket_count() * sizeof(void*);
  bytes += view_sizes_.capacity() * sizeof(std::size_t);
  bytes += view_live_.capacity() * sizeof(std::uint8_t);
  bytes += free_views_.capacity() * sizeof(ViewId);
  return bytes;
}

std::size_t FibSet::index_bytes() const { return index_node_bytes(index_); }

std::size_t FibSet::index_node_bytes(const IndexNode& node) const {
  const int children = std::popcount(node.child_bits);
  std::size_t bytes =
      children * sizeof(IndexNode) +
      leaf_capacity(node.leaf_bits) * sizeof(const Trie::Node*);
  for (int i = 0; i < children; ++i) bytes += index_node_bytes(node.children[i]);
  return bytes;
}

std::size_t FibSet::flat_node_count(ViewId view) const {
  // A standalone path-compressed trie for this view's prefix set has one
  // node per present prefix plus one junction wherever two populated
  // subtrees diverge (and the junction itself carries no entry) — exactly
  // what this walk counts against the shared structure.
  std::size_t nodes = 0;
  struct Walker {
    ViewId view;
    std::size_t* nodes;
    bool operator()(const Trie::Node* node) const {
      if (!node) return false;
      bool left = (*this)(node->child[0].get());
      bool right = (*this)(node->child[1].get());
      bool present = node->payload.get(view) != 0;
      if (present || (left && right)) ++*nodes;
      return present || left || right;
    }
  };
  Walker{view, &nodes}(trie_.root());
  return nodes;
}

std::size_t FibSet::flat_equivalent_bytes(ViewId view) const {
  return flat_node_count(view) * RoutingTable::node_bytes() +
         sizeof(RoutingTable);
}

std::size_t FibSet::flat_equivalent_bytes() const {
  std::size_t bytes = 0;
  for (ViewId v = 0; v < view_live_.size(); ++v)
    if (view_live_[v]) bytes += flat_equivalent_bytes(v);
  return bytes;
}

}  // namespace peering::ip

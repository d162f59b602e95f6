// BGP path attributes: typed representation, the RFC 4271/6793/1997/8092
// wire codec, and the sharing machinery the whole control plane is built
// on — AttrPool (BIRD-style interning keyed by content hash, with a
// canonical-encoding cache per codec option set) and AttrBuilder (a
// copy-on-write handle that clones lazily on first mutation). One interned
// AttrsPtr travels from decode to wire; policy, hooks, and enforcement all
// operate on it and only pay for a copy when they actually mutate.
// Unknown optional-transitive attributes are preserved verbatim (with the
// Partial bit set when propagated), which is what PEERING's capability
// framework polices (§4.7: "optional BGP transitive attributes").
// Each speaker owns one pool and uses it from its single thread, so nothing
// here locks.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bgp/types.h"
#include "netbase/bytes.h"
#include "netbase/ip.h"
#include "netbase/result.h"

namespace peering::bgp {

/// Attribute type codes used by the codec.
enum class AttrType : std::uint8_t {
  kOrigin = 1,
  kAsPath = 2,
  kNextHop = 3,
  kMed = 4,
  kLocalPref = 5,
  kAtomicAggregate = 6,
  kAggregator = 7,
  kCommunities = 8,
  kAs4Path = 17,
  kAs4Aggregator = 18,
  kLargeCommunities = 32,
};

/// Attribute flag bits.
enum AttrFlags : std::uint8_t {
  kFlagOptional = 0x80,
  kFlagTransitive = 0x40,
  kFlagPartial = 0x20,
  kFlagExtendedLength = 0x10,
};

/// An attribute the codec does not model, carried opaquely.
struct RawAttribute {
  std::uint8_t flags = 0;
  std::uint8_t type = 0;
  Bytes value;

  bool optional() const { return flags & kFlagOptional; }
  bool transitive() const { return flags & kFlagTransitive; }

  bool operator==(const RawAttribute&) const = default;
};

struct Aggregator {
  Asn asn = 0;
  Ipv4Address address;
  bool operator==(const Aggregator&) const = default;
};

/// The parsed attribute set of a route.
struct PathAttributes {
  Origin origin = Origin::kIgp;
  AsPath as_path;
  Ipv4Address next_hop;
  std::optional<std::uint32_t> med;
  std::optional<std::uint32_t> local_pref;
  bool atomic_aggregate = false;
  std::optional<Aggregator> aggregator;
  std::vector<Community> communities;
  std::vector<LargeCommunity> large_communities;
  /// Unrecognized attributes, preserved for propagation if transitive.
  std::vector<RawAttribute> unknown;

  bool has_community(Community c) const {
    for (auto x : communities)
      if (x == c) return true;
    return false;
  }

  bool operator==(const PathAttributes&) const = default;
};

/// Codec options negotiated per session.
struct AttrCodecOptions {
  /// Whether the session negotiated 4-octet-AS (RFC 6793). When false the
  /// AS_PATH carries 2-byte ASNs with AS_TRANS placeholders and a shadow
  /// AS4_PATH attribute carries the real path.
  bool four_byte_asn = true;
};

/// Serializes `attrs` into the path-attributes portion of an UPDATE body.
Bytes encode_attributes(const PathAttributes& attrs,
                        const AttrCodecOptions& options);

/// Sentinel for "this encoded attribute block carries no NEXT_HOP".
inline constexpr std::size_t kNoNextHopOffset = static_cast<std::size_t>(-1);

/// Offset of the 4-byte NEXT_HOP value inside an encoded attribute block
/// (as produced by encode_attributes), or kNoNextHopOffset when absent.
/// The update-group export path uses this to splice a per-neighbor
/// next-hop into a cached wire template instead of re-encoding.
std::size_t next_hop_value_offset(std::span<const std::uint8_t> attr_bytes);

/// Parses the path-attributes portion of an UPDATE body. Reconstructs
/// 4-byte paths from AS4_PATH when the session is 2-byte.
Result<PathAttributes> decode_attributes(std::span<const std::uint8_t> data,
                                         const AttrCodecOptions& options);

/// Content hash over every attribute field; the AttrPool bucket index.
std::size_t hash_value(const PathAttributes& attrs);

class AttrPool;

/// A shared, immutable attribute set: an 8-byte intrusive handle to one
/// node that holds the attributes, a plain reference count, the owning
/// pool and, for pooled sets, the content hash and the per-codec wire
/// images. Identical sets interned through one AttrPool compare equal by
/// pointer. The count is not atomic: a speaker, its pool and every handle
/// into it live on one event loop, and nothing here has a thread. The
/// surface is the part of std::shared_ptr the control plane uses.
class AttrsPtr {
 public:
  constexpr AttrsPtr() noexcept = default;
  constexpr AttrsPtr(std::nullptr_t) noexcept {}
  AttrsPtr(const AttrsPtr& other) noexcept : node_(other.node_) {
    if (node_) ++node_->refs;
  }
  AttrsPtr(AttrsPtr&& other) noexcept
      : node_(std::exchange(other.node_, nullptr)) {}
  AttrsPtr& operator=(const AttrsPtr& other) noexcept {
    AttrsPtr(other).swap(*this);
    return *this;
  }
  AttrsPtr& operator=(AttrsPtr&& other) noexcept {
    AttrsPtr(std::move(other)).swap(*this);
    return *this;
  }
  ~AttrsPtr() { release(); }

  const PathAttributes* get() const noexcept {
    return node_ ? &node_->attrs : nullptr;
  }
  const PathAttributes& operator*() const noexcept { return node_->attrs; }
  const PathAttributes* operator->() const noexcept { return &node_->attrs; }
  explicit operator bool() const noexcept { return node_ != nullptr; }

  /// Handles on this set, the owning pool's own reference included.
  long use_count() const noexcept { return node_ ? node_->refs : 0; }

  void reset() noexcept {
    release();
    node_ = nullptr;
  }
  void swap(AttrsPtr& other) noexcept { std::swap(node_, other.node_); }

  friend bool operator==(const AttrsPtr& a, const AttrsPtr& b) noexcept {
    return a.node_ == b.node_;
  }
  friend bool operator==(const AttrsPtr& a, std::nullptr_t) noexcept {
    return a.node_ == nullptr;
  }

 private:
  friend class AttrPool;
  friend AttrsPtr make_attrs(PathAttributes attrs);

  /// The set and its bookkeeping. `attrs` comes first, so get() is the
  /// node's address.
  struct Node {
    template <typename A>
    explicit Node(A&& a) : attrs(std::forward<A>(a)) {}

    PathAttributes attrs;
    std::uint32_t refs = 0;
    /// The pool that interned the set; null for make_attrs() and
    /// AttrBuilder::release() sets, and once the pool is destroyed.
    AttrPool* pool = nullptr;
    /// hash_value(attrs), cached by the pool that interned the set; 0 for
    /// make_attrs() sets.
    std::size_t hash = 0;
    /// Wire images, indexed by AttrCodecOptions::four_byte_asn (the only
    /// codec option that changes attribute bytes). Filled by the pool.
    std::array<std::optional<Bytes>, 2> wire;
    /// NEXT_HOP value offset within wire[slot]; valid iff wire[slot] is
    /// engaged (computed once at encode time).
    std::array<std::size_t, 2> nh_offset = {kNoNextHopOffset,
                                            kNoNextHopOffset};
  };

  /// Takes a new reference on `node`.
  explicit AttrsPtr(Node* node) noexcept : node_(node) { ++node_->refs; }

  void release() noexcept {
    if (node_ && --node_->refs == 0) delete node_;
  }

  Node* node_ = nullptr;
};

/// Wraps freshly constructed attributes in an AttrsPtr. Not interned: pass
/// the result through AttrPool::adopt/intern before storing it in a RIB if
/// pointer-level deduplication matters.
inline AttrsPtr make_attrs(PathAttributes attrs) {
  return AttrsPtr(new AttrsPtr::Node(std::move(attrs)));
}

/// Copy-on-write handle over an interned attribute set. Interposition
/// points (policy actions, import/export hooks, enforcement transforms)
/// receive a builder, read through view(), and call mutate() only when they
/// actually change something — the underlying PathAttributes is cloned
/// lazily on the first mutate() and re-interned on commit(). A route that
/// flows through every hook untouched never copies its attributes.
class AttrBuilder {
 public:
  AttrBuilder() = default;
  explicit AttrBuilder(AttrsPtr base) : base_(std::move(base)) {}
  explicit AttrBuilder(PathAttributes owned)
      : owned_(std::make_unique<PathAttributes>(std::move(owned))) {}

  /// Read-only access; never copies.
  const PathAttributes& view() const {
    static const PathAttributes kEmpty;
    return owned_ ? *owned_ : (base_ ? *base_ : kEmpty);
  }
  const PathAttributes* operator->() const { return &view(); }

  /// Mutable access; clones the base set on first call.
  PathAttributes& mutate() {
    if (!owned_)
      owned_ = base_ ? std::make_unique<PathAttributes>(*base_)
                     : std::make_unique<PathAttributes>();
    return *owned_;
  }

  /// True once mutate() has been called (a private copy exists).
  bool dirty() const { return owned_ != nullptr; }
  const AttrsPtr& base() const { return base_; }

  /// Finishes the flow: returns the untouched base pointer when clean, or
  /// re-interns the mutated copy. The builder is reusable afterwards (its
  /// base becomes the committed pointer).
  AttrsPtr commit(AttrPool& pool);

  /// Like commit() without a pool: clean -> base, dirty -> fresh AttrsPtr.
  AttrsPtr release();

 private:
  AttrsPtr base_;
  std::unique_ptr<PathAttributes> owned_;
};

/// Interns PathAttributes so identical attribute sets share one node,
/// mirroring BIRD's attribute cache (the reason Figure 6a's per-route
/// memory stays in the hundreds of bytes). Keyed by content hash, which
/// each node carries. Also memoizes the wire encoding per (attribute set,
/// codec options) in the set's node, so an ADD-PATH fan-out to N sessions
/// with identical negotiated options serializes the update body once, not
/// N times. The pool holds one reference on every set it interned; a set
/// still held elsewhere when the pool is destroyed stays readable and is
/// freed by its last handle.
class AttrPool {
 public:
  struct Stats {
    std::uint64_t intern_hits = 0;
    std::uint64_t intern_misses = 0;
    std::uint64_t encode_hits = 0;
    std::uint64_t encode_misses = 0;

    double intern_hit_rate() const {
      auto total = intern_hits + intern_misses;
      return total == 0 ? 0.0 : static_cast<double>(intern_hits) / total;
    }
    double encode_hit_rate() const {
      auto total = encode_hits + encode_misses;
      return total == 0 ? 0.0 : static_cast<double>(encode_hits) / total;
    }
  };

  AttrPool() = default;
  AttrPool(const AttrPool&) = delete;
  AttrPool& operator=(const AttrPool&) = delete;
  /// Detaches the sets still held elsewhere and frees the rest.
  ~AttrPool();

  AttrsPtr intern(const PathAttributes& attrs);
  AttrsPtr intern(PathAttributes&& attrs);

  /// Returns `attrs` unchanged when this pool interned it (its node names
  /// the pool); otherwise interns its content. Lets hooks hand back either
  /// a committed builder result or a foreign pointer without double-copying.
  AttrsPtr adopt(const AttrsPtr& attrs);

  /// Cached wire encoding of an interned set for the given codec options.
  /// Encoded at most once per (set, options); all sessions with identical
  /// negotiated options share the bytes. Foreign (non-pool) pointers fall
  /// back to a direct encode into a scratch buffer. The reference is valid
  /// until the next encoded() call or sweep(). When `nh_offset` is
  /// non-null it receives the NEXT_HOP value's offset in the bytes.
  const Bytes& encoded(const AttrsPtr& attrs, const AttrCodecOptions& options,
                       std::size_t* nh_offset = nullptr);

  std::size_t size() const { return pool_.size(); }
  /// Approximate bytes held by pooled attribute objects: each set's own
  /// bytes (attrs_footprint), not its node header or the index.
  std::size_t memory_bytes() const { return attr_bytes_; }
  /// Bytes held by cached wire encodings.
  std::size_t encode_cache_bytes() const { return wire_bytes_; }
  const Stats& stats() const { return stats_; }

  /// Drops entries (and their cached encodings) no longer referenced
  /// elsewhere. Returns entries removed. BgpSpeaker calls this on session
  /// reset so a churned-out table does not leave the pool inflated.
  std::size_t sweep();

 private:
  using Node = AttrsPtr::Node;
  /// A lookup by content, its hash computed once.
  struct Key {
    const PathAttributes& attrs;
    std::size_t hash;
  };
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(const Node* n) const noexcept { return n->hash; }
    std::size_t operator()(const Key& k) const noexcept { return k.hash; }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(const Node* a, const Node* b) const noexcept {
      return a == b;
    }
    bool operator()(const Key& k, const Node* n) const {
      return k.hash == n->hash && k.attrs == n->attrs;
    }
    bool operator()(const Node* n, const Key& k) const { return (*this)(k, n); }
  };

  static std::size_t attrs_footprint(const PathAttributes& attrs);
  /// The pooled set equal to `key`, interning a new node built from
  /// `attrs` on a miss.
  template <typename A>
  AttrsPtr find_or_insert(const Key& key, A&& attrs);

  std::unordered_set<Node*, Hash, Eq> pool_;
  std::size_t attr_bytes_ = 0;
  std::size_t wire_bytes_ = 0;
  Stats stats_;
  Bytes scratch_;
};

}  // namespace peering::bgp

/// By identity, as std::hash<std::shared_ptr> does.
template <>
struct std::hash<peering::bgp::AttrsPtr> {
  std::size_t operator()(const peering::bgp::AttrsPtr& p) const noexcept {
    return std::hash<const void*>()(p.get());
  }
};

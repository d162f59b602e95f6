#include "bgp/attributes.h"

#include <algorithm>

namespace peering::bgp {

namespace {

/// Emits one attribute (flags, type, length, value), choosing extended
/// length automatically.
void emit_attr(ByteWriter& w, std::uint8_t flags, AttrType type,
               const Bytes& value) {
  if (value.size() > 255) flags |= kFlagExtendedLength;
  w.u8(flags);
  w.u8(static_cast<std::uint8_t>(type));
  if (flags & kFlagExtendedLength) {
    w.u16(static_cast<std::uint16_t>(value.size()));
  } else {
    w.u8(static_cast<std::uint8_t>(value.size()));
  }
  w.raw(value);
}

Bytes encode_as_path(const AsPath& path, bool four_byte) {
  ByteWriter w;
  for (const auto& seg : path.segments()) {
    w.u8(static_cast<std::uint8_t>(seg.type));
    w.u8(static_cast<std::uint8_t>(seg.asns.size()));
    for (Asn asn : seg.asns) {
      if (four_byte) {
        w.u32(asn);
      } else {
        w.u16(asn > 0xffff ? static_cast<std::uint16_t>(kAsTrans)
                           : static_cast<std::uint16_t>(asn));
      }
    }
  }
  return w.take();
}

bool path_needs_as4(const AsPath& path) {
  for (const auto& seg : path.segments())
    for (Asn asn : seg.asns)
      if (asn > 0xffff) return true;
  return false;
}

Result<AsPath> decode_as_path(std::span<const std::uint8_t> data,
                              bool four_byte) {
  AsPath path;
  ByteReader r(data);
  while (!r.empty()) {
    auto type = r.u8();
    auto count = r.u8();
    if (!type || !count) return Error("as_path: truncated segment header", 11);
    if (*type != 1 && *type != 2) return Error("as_path: bad segment type", 11);
    AsPathSegment seg;
    seg.type = static_cast<AsPathSegmentType>(*type);
    seg.asns.reserve(*count);
    for (int i = 0; i < *count; ++i) {
      if (four_byte) {
        auto asn = r.u32();
        if (!asn) return Error("as_path: truncated asn", 11);
        seg.asns.push_back(*asn);
      } else {
        auto asn = r.u16();
        if (!asn) return Error("as_path: truncated asn", 11);
        seg.asns.push_back(*asn);
      }
    }
    path.segments().push_back(std::move(seg));
  }
  return path;
}

/// RFC 6793 §4.2.3: merge AS4_PATH into a 2-byte AS_PATH by replacing the
/// trailing portion. We implement the common case: if lengths allow, keep
/// the leading (AS_TRANS-bearing) extra hops from AS_PATH and splice the
/// AS4_PATH behind them.
AsPath merge_as4_path(const AsPath& two_byte, const AsPath& as4) {
  std::size_t two_len = two_byte.decision_length();
  std::size_t four_len = as4.decision_length();
  if (four_len > two_len) return two_byte;  // malformed AS4_PATH: ignore
  if (four_len == two_len) return as4;
  // Keep the first (two_len - four_len) ASNs from the 2-byte path.
  std::vector<Asn> flat = two_byte.flatten();
  std::vector<Asn> merged(flat.begin(),
                          flat.begin() + static_cast<std::ptrdiff_t>(
                                             two_len - four_len));
  for (Asn a : as4.flatten()) merged.push_back(a);
  return AsPath(std::move(merged));
}

}  // namespace

Bytes encode_attributes(const PathAttributes& attrs,
                        const AttrCodecOptions& options) {
  // Typical sets (origin + path + next-hop + a few communities) fit in one
  // up-front allocation instead of three doubling steps.
  ByteWriter w(128);

  {
    Bytes v{static_cast<std::uint8_t>(attrs.origin)};
    emit_attr(w, kFlagTransitive, AttrType::kOrigin, v);
  }
  {
    Bytes v = encode_as_path(attrs.as_path, options.four_byte_asn);
    emit_attr(w, kFlagTransitive, AttrType::kAsPath, v);
    if (!options.four_byte_asn && path_needs_as4(attrs.as_path)) {
      Bytes v4 = encode_as_path(attrs.as_path, /*four_byte=*/true);
      emit_attr(w, kFlagOptional | kFlagTransitive, AttrType::kAs4Path, v4);
    }
  }
  if (!attrs.next_hop.is_zero()) {
    ByteWriter v;
    v.u32(attrs.next_hop.value());
    emit_attr(w, kFlagTransitive, AttrType::kNextHop, v.bytes());
  }
  if (attrs.med) {
    ByteWriter v;
    v.u32(*attrs.med);
    emit_attr(w, kFlagOptional, AttrType::kMed, v.bytes());
  }
  if (attrs.local_pref) {
    ByteWriter v;
    v.u32(*attrs.local_pref);
    emit_attr(w, kFlagTransitive, AttrType::kLocalPref, v.bytes());
  }
  if (attrs.atomic_aggregate) {
    emit_attr(w, kFlagTransitive, AttrType::kAtomicAggregate, {});
  }
  if (attrs.aggregator) {
    ByteWriter v;
    if (options.four_byte_asn) {
      v.u32(attrs.aggregator->asn);
    } else {
      v.u16(attrs.aggregator->asn > 0xffff
                ? static_cast<std::uint16_t>(kAsTrans)
                : static_cast<std::uint16_t>(attrs.aggregator->asn));
    }
    v.u32(attrs.aggregator->address.value());
    emit_attr(w, kFlagOptional | kFlagTransitive, AttrType::kAggregator,
              v.bytes());
    if (!options.four_byte_asn && attrs.aggregator->asn > 0xffff) {
      ByteWriter v4;
      v4.u32(attrs.aggregator->asn);
      v4.u32(attrs.aggregator->address.value());
      emit_attr(w, kFlagOptional | kFlagTransitive, AttrType::kAs4Aggregator,
                v4.bytes());
    }
  }
  if (!attrs.communities.empty()) {
    ByteWriter v;
    for (Community c : attrs.communities) v.u32(c.raw);
    emit_attr(w, kFlagOptional | kFlagTransitive, AttrType::kCommunities,
              v.bytes());
  }
  if (!attrs.large_communities.empty()) {
    ByteWriter v;
    for (const LargeCommunity& c : attrs.large_communities) {
      v.u32(c.global);
      v.u32(c.local1);
      v.u32(c.local2);
    }
    emit_attr(w, kFlagOptional | kFlagTransitive, AttrType::kLargeCommunities,
              v.bytes());
  }
  for (const RawAttribute& raw : attrs.unknown) {
    // Only transitive unknowns are re-serialized; the Partial bit marks that
    // they crossed a speaker that did not understand them.
    if (!raw.transitive()) continue;
    emit_attr(w, static_cast<std::uint8_t>(raw.flags | kFlagPartial),
              static_cast<AttrType>(raw.type), raw.value);
  }
  return w.take();
}

std::size_t next_hop_value_offset(std::span<const std::uint8_t> attr_bytes) {
  std::size_t pos = 0;
  while (pos + 3 <= attr_bytes.size()) {
    const std::uint8_t flags = attr_bytes[pos];
    const std::uint8_t type = attr_bytes[pos + 1];
    std::size_t length;
    std::size_t header;
    if (flags & kFlagExtendedLength) {
      if (pos + 4 > attr_bytes.size()) return kNoNextHopOffset;
      length = (static_cast<std::size_t>(attr_bytes[pos + 2]) << 8) |
               attr_bytes[pos + 3];
      header = 4;
    } else {
      length = attr_bytes[pos + 2];
      header = 3;
    }
    if (pos + header + length > attr_bytes.size()) return kNoNextHopOffset;
    if (static_cast<AttrType>(type) == AttrType::kNextHop && length == 4)
      return pos + header;
    pos += header + length;
  }
  return kNoNextHopOffset;
}

Result<PathAttributes> decode_attributes(std::span<const std::uint8_t> data,
                                         const AttrCodecOptions& options) {
  PathAttributes attrs;
  std::optional<AsPath> as4_path;
  ByteReader r(data);
  while (!r.empty()) {
    auto flags = r.u8();
    auto type = r.u8();
    if (!flags || !type) return Error("attr: truncated header", 1);
    std::size_t length;
    if (*flags & kFlagExtendedLength) {
      auto len = r.u16();
      if (!len) return Error("attr: truncated extended length", 1);
      length = *len;
    } else {
      auto len = r.u8();
      if (!len) return Error("attr: truncated length", 1);
      length = *len;
    }
    auto body = r.sub(length);
    if (!body) return Error("attr: truncated body", 1);
    ByteReader v = *body;

    switch (static_cast<AttrType>(*type)) {
      case AttrType::kOrigin: {
        auto o = v.u8();
        if (!o || *o > 2) return Error("attr: bad ORIGIN", 6);
        attrs.origin = static_cast<Origin>(*o);
        break;
      }
      case AttrType::kAsPath: {
        auto raw = v.raw(v.remaining());
        auto path = decode_as_path(*raw, options.four_byte_asn);
        if (!path) return path.error();
        attrs.as_path = std::move(*path);
        break;
      }
      case AttrType::kAs4Path: {
        auto raw = v.raw(v.remaining());
        auto path = decode_as_path(*raw, /*four_byte=*/true);
        if (!path) return path.error();
        as4_path = std::move(*path);
        break;
      }
      case AttrType::kNextHop: {
        auto nh = v.u32();
        if (!nh) return Error("attr: bad NEXT_HOP", 8);
        attrs.next_hop = Ipv4Address(*nh);
        break;
      }
      case AttrType::kMed: {
        auto m = v.u32();
        if (!m) return Error("attr: bad MED", 5);
        attrs.med = *m;
        break;
      }
      case AttrType::kLocalPref: {
        auto lp = v.u32();
        if (!lp) return Error("attr: bad LOCAL_PREF", 5);
        attrs.local_pref = *lp;
        break;
      }
      case AttrType::kAtomicAggregate:
        attrs.atomic_aggregate = true;
        break;
      case AttrType::kAggregator: {
        Aggregator agg;
        if (options.four_byte_asn) {
          auto asn = v.u32();
          auto addr = v.u32();
          if (!asn || !addr) return Error("attr: bad AGGREGATOR", 5);
          agg.asn = *asn;
          agg.address = Ipv4Address(*addr);
        } else {
          auto asn = v.u16();
          auto addr = v.u32();
          if (!asn || !addr) return Error("attr: bad AGGREGATOR", 5);
          agg.asn = *asn;
          agg.address = Ipv4Address(*addr);
        }
        attrs.aggregator = agg;
        break;
      }
      case AttrType::kAs4Aggregator: {
        auto asn = v.u32();
        auto addr = v.u32();
        if (!asn || !addr) return Error("attr: bad AS4_AGGREGATOR", 5);
        if (attrs.aggregator) {
          attrs.aggregator->asn = *asn;
          attrs.aggregator->address = Ipv4Address(*addr);
        }
        break;
      }
      case AttrType::kCommunities: {
        if (v.remaining() % 4 != 0)
          return Error("attr: bad COMMUNITIES length", 5);
        while (!v.empty()) attrs.communities.push_back(Community(*v.u32()));
        break;
      }
      case AttrType::kLargeCommunities: {
        if (v.remaining() % 12 != 0)
          return Error("attr: bad LARGE_COMMUNITIES length", 5);
        while (!v.empty()) {
          LargeCommunity c;
          c.global = *v.u32();
          c.local1 = *v.u32();
          c.local2 = *v.u32();
          attrs.large_communities.push_back(c);
        }
        break;
      }
      default: {
        if (!(*flags & kFlagOptional))
          return Error("attr: unrecognized well-known attribute " +
                           std::to_string(*type),
                       2);
        auto raw = v.bytes(v.remaining());
        attrs.unknown.push_back(RawAttribute{*flags, *type, std::move(*raw)});
        break;
      }
    }
  }

  if (as4_path && !options.four_byte_asn) {
    attrs.as_path = merge_as4_path(attrs.as_path, *as4_path);
  }
  return attrs;
}

// ---------------------------------------------------------------------------
// Attribute sharing: content hash, copy-on-write builder, interning pool.
// ---------------------------------------------------------------------------

namespace {

inline void hash_mix(std::size_t& seed, std::size_t v) {
  // boost::hash_combine's mixer, good enough for bucket selection.
  seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

}  // namespace

std::size_t hash_value(const PathAttributes& attrs) {
  std::size_t h = static_cast<std::size_t>(attrs.origin);
  for (const auto& seg : attrs.as_path.segments()) {
    hash_mix(h, static_cast<std::size_t>(seg.type));
    for (Asn asn : seg.asns) hash_mix(h, asn);
  }
  hash_mix(h, attrs.next_hop.value());
  hash_mix(h, attrs.med ? *attrs.med + 1 : 0);
  hash_mix(h, attrs.local_pref ? *attrs.local_pref + 1 : 0);
  hash_mix(h, attrs.atomic_aggregate ? 1 : 2);
  if (attrs.aggregator) {
    hash_mix(h, attrs.aggregator->asn);
    hash_mix(h, attrs.aggregator->address.value());
  }
  for (Community c : attrs.communities) hash_mix(h, c.raw);
  for (const LargeCommunity& lc : attrs.large_communities) {
    hash_mix(h, lc.global);
    hash_mix(h, lc.local1);
    hash_mix(h, lc.local2);
  }
  for (const RawAttribute& raw : attrs.unknown) {
    hash_mix(h, raw.flags);
    hash_mix(h, raw.type);
    for (std::uint8_t b : raw.value) hash_mix(h, b);
  }
  return h;
}

AttrsPtr AttrBuilder::commit(AttrPool& pool) {
  if (!owned_) {
    if (base_) return pool.adopt(base_);
    base_ = pool.intern(PathAttributes{});
    return base_;
  }
  base_ = pool.intern(std::move(*owned_));
  owned_.reset();
  return base_;
}

AttrsPtr AttrBuilder::release() {
  if (!owned_) return base_ ? base_ : make_attrs(PathAttributes{});
  base_ = make_attrs(std::move(*owned_));
  owned_.reset();
  return base_;
}

std::size_t AttrPool::attrs_footprint(const PathAttributes& attrs) {
  std::size_t bytes = sizeof(PathAttributes);
  for (const auto& seg : attrs.as_path.segments())
    bytes += sizeof(AsPathSegment) + seg.asns.size() * sizeof(Asn);
  bytes += attrs.communities.size() * sizeof(Community);
  bytes += attrs.large_communities.size() * sizeof(LargeCommunity);
  for (const auto& raw : attrs.unknown)
    bytes += sizeof(RawAttribute) + raw.value.size();
  return bytes;
}

AttrPool::~AttrPool() {
  for (Node* n : pool_) {
    n->pool = nullptr;
    n->wire = {};
    if (--n->refs == 0) delete n;
  }
}

template <typename A>
AttrsPtr AttrPool::find_or_insert(const Key& key, A&& attrs) {
  auto it = pool_.find(key);
  if (it != pool_.end()) {
    ++stats_.intern_hits;
    return AttrsPtr(*it);
  }
  ++stats_.intern_misses;
  auto node = std::make_unique<Node>(std::forward<A>(attrs));
  node->pool = this;
  node->hash = key.hash;
  node->refs = 1;  // the pool's own reference
  pool_.insert(node.get());
  attr_bytes_ += attrs_footprint(node->attrs);
  return AttrsPtr(node.release());
}

AttrsPtr AttrPool::intern(const PathAttributes& attrs) {
  return find_or_insert(Key{attrs, hash_value(attrs)}, attrs);
}

AttrsPtr AttrPool::intern(PathAttributes&& attrs) {
  // The key reads `attrs` only until the node is built from it.
  return find_or_insert(Key{attrs, hash_value(attrs)}, std::move(attrs));
}

AttrsPtr AttrPool::adopt(const AttrsPtr& attrs) {
  if (!attrs) return attrs;
  const Node* n = attrs.node_;
  if (n->pool == this) {
    ++stats_.intern_hits;
    return attrs;
  }
  // Another pool's set carries its hash; a make_attrs() set has none.
  return find_or_insert(Key{n->attrs, n->pool ? n->hash : hash_value(n->attrs)},
                        n->attrs);
}

const Bytes& AttrPool::encoded(const AttrsPtr& attrs,
                               const AttrCodecOptions& options,
                               std::size_t* nh_offset) {
  const std::size_t slot = options.four_byte_asn ? 1 : 0;
  Node* n = attrs.node_;
  if (n->pool == this) {
    auto& wire = n->wire[slot];
    if (wire) {
      ++stats_.encode_hits;
    } else {
      ++stats_.encode_misses;
      wire = encode_attributes(n->attrs, options);
      wire_bytes_ += wire->size();
      n->nh_offset[slot] = next_hop_value_offset(*wire);
    }
    if (nh_offset) *nh_offset = n->nh_offset[slot];
    return *wire;
  }
  ++stats_.encode_misses;
  scratch_ = encode_attributes(n->attrs, options);
  if (nh_offset) *nh_offset = next_hop_value_offset(scratch_);
  return scratch_;
}

std::size_t AttrPool::sweep() {
  std::size_t removed = 0;
  for (auto it = pool_.begin(); it != pool_.end();) {
    Node* n = *it;
    if (n->refs == 1) {
      attr_bytes_ -= attrs_footprint(n->attrs);
      for (const auto& wire : n->wire)
        if (wire) wire_bytes_ -= wire->size();
      it = pool_.erase(it);
      delete n;
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

}  // namespace peering::bgp

// The interned attribute flow: pool identity properties (pointer equality
// iff value equality, including opaque transitive attributes and large
// communities), the encode cache, sweep-on-session-reset memory behavior,
// and pointer-level sharing across the experiment fan-out.
#include <gtest/gtest.h>

#include <random>

#include "bgp/attributes.h"
#include "bgp/speaker.h"
#include "sim/event_loop.h"
#include "sim/stream.h"
#include "vbgp/vrouter.h"

namespace peering::bgp {
namespace {

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }

std::size_t loc_rib_count(const BgpSpeaker& speaker) {
  std::size_t n = 0;
  speaker.loc_rib().visit_best([&](const RibRoute&) { ++n; });
  return n;
}

// Random attribute sets drawn from a deliberately small space so equal
// pairs actually occur across draws.
PathAttributes random_attrs(std::mt19937& rng) {
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> small(0, 2);
  PathAttributes a;
  a.origin = coin(rng) ? Origin::kIgp : Origin::kIncomplete;
  a.as_path = AsPath({65001u + static_cast<Asn>(small(rng))});
  a.next_hop = Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(small(rng)));
  if (coin(rng)) a.med = static_cast<std::uint32_t>(small(rng));
  if (coin(rng)) a.local_pref = 100;
  if (coin(rng)) a.communities.push_back(Community(47065, small(rng)));
  if (coin(rng))
    a.large_communities.push_back(
        {47065, 1, static_cast<std::uint32_t>(small(rng))});
  if (coin(rng)) {
    RawAttribute raw;
    raw.flags = kFlagOptional | kFlagTransitive;
    raw.type = 200;
    raw.value = Bytes{static_cast<std::uint8_t>(small(rng))};
    a.unknown.push_back(raw);
  }
  return a;
}

TEST(AttrPool, PointerEqualityMatchesValueEquality) {
  AttrPool pool;
  std::mt19937 rng(2019);
  std::vector<PathAttributes> values;
  std::vector<AttrsPtr> interned;
  for (int i = 0; i < 200; ++i) {
    values.push_back(random_attrs(rng));
    interned.push_back(pool.intern(values.back()));
  }
  bool saw_equal_pair = false;
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t j = 0; j < values.size(); ++j) {
      EXPECT_EQ(interned[i] == interned[j], values[i] == values[j])
          << "pair " << i << "," << j;
      if (i != j && values[i] == values[j]) saw_equal_pair = true;
    }
  }
  // The draw space is small enough that the property was actually
  // exercised on both sides.
  EXPECT_TRUE(saw_equal_pair);
  EXPECT_LT(pool.size(), values.size());
}

TEST(AttrPool, EveryFieldParticipatesInIdentity) {
  AttrPool pool;
  PathAttributes base;
  base.as_path = AsPath({65001});
  base.next_hop = Ipv4Address(10, 0, 0, 1);
  AttrsPtr base_ptr = pool.intern(base);

  std::vector<PathAttributes> variants;
  auto variant = [&]() -> PathAttributes& {
    variants.push_back(base);
    return variants.back();
  };
  variant().origin = Origin::kEgp;
  variant().as_path = AsPath({65001, 65002});
  variant().next_hop = Ipv4Address(10, 0, 0, 2);
  variant().med = 5;
  variant().local_pref = 200;
  variant().atomic_aggregate = true;
  variant().aggregator = Aggregator{65001, Ipv4Address(1, 1, 1, 1)};
  variant().communities.push_back(Community(47065, 1));
  variant().large_communities.push_back({47065, 1, 2});
  {
    RawAttribute raw;
    raw.flags = kFlagOptional | kFlagTransitive;
    raw.type = 201;
    raw.value = Bytes{0xde, 0xad};
    variant().unknown.push_back(raw);
  }

  for (const auto& v : variants) {
    AttrsPtr p = pool.intern(v);
    EXPECT_NE(p, base_ptr);
    // Re-interning an equal copy lands on the same pointer.
    EXPECT_EQ(pool.intern(PathAttributes(v)), p);
  }
  EXPECT_EQ(pool.size(), variants.size() + 1);
}

TEST(AttrPool, EncodeCacheReturnsOneEncodingPerOptionSet) {
  AttrPool pool;
  PathAttributes a;
  a.as_path = AsPath({65001, 3356});
  a.next_hop = Ipv4Address(1, 2, 3, 4);
  AttrsPtr p = pool.intern(a);

  AttrCodecOptions four;
  four.four_byte_asn = true;
  AttrCodecOptions two;
  two.four_byte_asn = false;

  const Bytes& w1 = pool.encoded(p, four);
  const Bytes& w2 = pool.encoded(p, four);
  EXPECT_EQ(&w1, &w2);  // cached: same storage, not just same bytes
  EXPECT_EQ(pool.stats().encode_hits, 1u);
  EXPECT_EQ(pool.stats().encode_misses, 1u);

  // The 2-byte-ASN encoding is a distinct slot with distinct bytes.
  const Bytes& w3 = pool.encoded(p, two);
  EXPECT_NE(w3, w1);
  EXPECT_GT(pool.encode_cache_bytes(), 0u);
}

TEST(AttrPool, SweepReleasesUnreferencedEntriesAndEncodings) {
  AttrPool pool;
  AttrCodecOptions options;
  std::vector<AttrsPtr> held;
  for (int i = 0; i < 10; ++i) {
    PathAttributes a;
    a.as_path = AsPath({65001});
    a.med = static_cast<std::uint32_t>(i);
    held.push_back(pool.intern(a));
    pool.encoded(held.back(), options);
  }
  std::size_t full_bytes = pool.memory_bytes();
  ASSERT_EQ(pool.size(), 10u);
  ASSERT_GT(pool.encode_cache_bytes(), 0u);

  held.resize(5);  // drop half the references
  EXPECT_EQ(pool.sweep(), 5u);
  EXPECT_EQ(pool.size(), 5u);
  EXPECT_LT(pool.memory_bytes(), full_bytes);

  held.clear();
  EXPECT_EQ(pool.sweep(), 5u);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.memory_bytes(), 0u);
  EXPECT_EQ(pool.encode_cache_bytes(), 0u);
}

PathAttributes sample_attrs(std::uint32_t med) {
  PathAttributes a;
  a.as_path = AsPath({65001, 3356});
  a.next_hop = Ipv4Address(192, 0, 2, 1);
  a.med = med;
  a.communities.push_back(Community(47065, 1));
  return a;
}

// Every RIB candidate, Adj-RIB-Out path and advert holds one handle, so
// its size is part of the per-route memory Figure 6a reports.
TEST(AttrsPtr, HandleIsOnePointerWide) {
  EXPECT_EQ(sizeof(AttrsPtr), 8u);
  EXPECT_EQ(sizeof(RibRoute), 24u);
}

TEST(AttrsPtr, CopiesCountReferencesNotSets) {
  AttrPool pool;
  AttrsPtr p = pool.intern(sample_attrs(1));
  EXPECT_EQ(p.use_count(), 2);  // the pool's reference and ours
  {
    AttrsPtr q = p;
    std::vector<AttrsPtr> many(10, p);
    EXPECT_EQ(q, p);
    EXPECT_EQ(p.use_count(), 13);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.stats().intern_misses, 1u);
  }
  EXPECT_EQ(p.use_count(), 2);

  AttrsPtr moved = std::move(p);
  EXPECT_FALSE(p);
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(p.use_count(), 0);
  EXPECT_EQ(moved.use_count(), 2);
  p = moved;
  const AttrsPtr& alias = p;
  p = alias;  // self-assignment keeps the count
  EXPECT_EQ(moved.use_count(), 3);
  p.reset();
  EXPECT_EQ(moved.use_count(), 2);

  AttrsPtr loose = make_attrs(sample_attrs(1));
  EXPECT_EQ(loose.use_count(), 1);  // no pool holds it
  EXPECT_NE(loose, moved);
  EXPECT_EQ(*loose, *moved);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(AttrsPtr, OutlivesItsPoolAndIsFreedByItsLastHolder) {
  const AttrCodecOptions options;
  AttrsPtr kept;
  {
    AttrPool pool;
    kept = pool.intern(sample_attrs(7));
    pool.encoded(kept, options);
    AttrsPtr dropped = pool.intern(sample_attrs(8));
  }
  // The pool is gone: its reference went with it, the set did not.
  ASSERT_TRUE(kept);
  EXPECT_EQ(kept.use_count(), 1);
  EXPECT_EQ(*kept, sample_attrs(7));

  // A detached set is foreign to every pool: another one encodes it
  // without caching and interns it by content.
  AttrPool other;
  EXPECT_EQ(other.encoded(kept, options), encode_attributes(*kept, options));
  EXPECT_EQ(other.encode_cache_bytes(), 0u);
  AttrsPtr adopted = other.adopt(kept);
  EXPECT_NE(adopted, kept);
  EXPECT_EQ(*adopted, *kept);

  AttrsPtr last = kept;
  kept.reset();
  EXPECT_EQ(last.use_count(), 1);
  last.reset();  // frees the node (the asan-ubsan preset checks it)
  EXPECT_FALSE(last);
}

TEST(AttrPool, AdoptInternsForeignSetsByContent) {
  AttrPool pool;
  AttrPool other;
  const AttrsPtr own = pool.intern(sample_attrs(1));
  EXPECT_EQ(pool.adopt(nullptr), nullptr);

  // This pool's own set: the same node, counted as a hit.
  const auto hits = pool.stats().intern_hits;
  EXPECT_EQ(pool.adopt(own), own);
  EXPECT_EQ(pool.stats().intern_hits, hits + 1);

  // A make_attrs() set and another pool's set intern by content.
  AttrsPtr loose = make_attrs(sample_attrs(1));
  EXPECT_EQ(pool.adopt(loose), own);
  AttrsPtr theirs = other.intern(sample_attrs(1));
  EXPECT_NE(theirs, own);
  EXPECT_EQ(pool.adopt(theirs), own);
  EXPECT_EQ(pool.size(), 1u);

  // New content through adopt() becomes a set of this pool.
  AttrsPtr fresh = pool.adopt(make_attrs(sample_attrs(2)));
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.intern(sample_attrs(2)), fresh);
  EXPECT_EQ(pool.adopt(fresh), fresh);
  AttrsPtr theirs3 = other.intern(sample_attrs(3));
  AttrsPtr ours3 = pool.adopt(theirs3);
  EXPECT_NE(ours3, theirs3);
  EXPECT_EQ(*ours3, sample_attrs(3));
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(other.size(), 2u);

  // Only this pool's sets hit its encode cache.
  const AttrCodecOptions options;
  pool.encoded(ours3, options);
  const std::size_t cached = pool.encode_cache_bytes();
  EXPECT_GT(cached, 0u);
  pool.encoded(theirs3, options);
  EXPECT_EQ(pool.encode_cache_bytes(), cached);
  EXPECT_EQ(pool.stats().encode_hits, 0u);
  pool.encoded(ours3, options);
  EXPECT_EQ(pool.stats().encode_hits, 1u);
}

TEST(AttrPool, SweepFreesExactlyTheSetsOnlyThePoolHolds) {
  AttrPool pool;
  AttrCodecOptions four;
  AttrCodecOptions two;
  two.four_byte_asn = false;
  std::vector<AttrsPtr> held;
  for (std::uint32_t i = 0; i < 6; ++i) {
    AttrsPtr p = pool.intern(sample_attrs(i));
    pool.encoded(p, four);
    pool.encoded(p, two);
    if (i % 2 == 0) held.push_back(p);
  }
  held.push_back(held.front());  // a second holder changes nothing
  ASSERT_EQ(pool.size(), 6u);

  EXPECT_EQ(pool.sweep(), 3u);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.sweep(), 0u);
  std::size_t wire = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(pool.intern(sample_attrs(static_cast<std::uint32_t>(2 * i))),
              held[i]);
    wire += encode_attributes(*held[i], four).size() +
            encode_attributes(*held[i], two).size();
  }
  EXPECT_EQ(pool.encode_cache_bytes(), wire);

  held.clear();
  EXPECT_EQ(pool.sweep(), 3u);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.memory_bytes(), 0u);
  EXPECT_EQ(pool.encode_cache_bytes(), 0u);
}

// Session churn against a live speaker: repeated announce/churn/reset
// cycles must not leave the receiving pool inflated (session_down sweeps).
TEST(AttrFlow, SessionChurnDoesNotGrowPoolMemory) {
  sim::EventLoop loop;
  BgpSpeaker receiver(&loop, "rx", 65000, Ipv4Address(1, 1, 1, 1));
  constexpr int kRoutes = 50;

  std::size_t settled_bytes = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    BgpSpeaker sender(&loop, "tx", 65001, Ipv4Address(2, 2, 2, 2));
    PeerId rx_peer = receiver.add_peer({.name = "tx", .peer_asn = 65001});
    PeerId tx_peer = sender.add_peer({.name = "rx", .peer_asn = 65000});
    auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
    receiver.connect_peer(rx_peer, streams.a);
    sender.connect_peer(tx_peer, streams.b);
    loop.run_for(Duration::seconds(2));

    // Distinct attribute sets per cycle: nothing is reusable across cycles
    // unless sweep failed to release the previous generation.
    for (int i = 0; i < kRoutes; ++i) {
      PathAttributes attrs;
      attrs.med = static_cast<std::uint32_t>(cycle * kRoutes + i);
      sender.originate(
          Ipv4Prefix(Ipv4Address(10, 0, static_cast<std::uint8_t>(i), 0), 24),
          attrs);
    }
    loop.run_for(Duration::seconds(2));
    EXPECT_EQ(loc_rib_count(receiver), static_cast<std::size_t>(kRoutes));

    receiver.disconnect_peer(rx_peer);
    sender.disconnect_peer(tx_peer);
    loop.run_for(Duration::seconds(2));
    EXPECT_EQ(loc_rib_count(receiver), 0u);
    EXPECT_EQ(receiver.attr_pool().size(), 0u);

    if (cycle == 0) settled_bytes = receiver.attr_pool().memory_bytes();
    EXPECT_EQ(receiver.attr_pool().memory_bytes(), settled_bytes)
        << "pool memory drifted by cycle " << cycle;
  }
}

// The fan-out property the encode cache depends on: one route exported to
// N all-paths experiment sessions installs the SAME template AttrsPtr and
// the same next-hop in every Adj-RIB-Out (the export hook rebuilds from
// the Loc-RIB attributes, so per-session transforms share one set).
TEST(AttrFlow, ExperimentFanOutSharesOneAttrsPtr) {
  sim::EventLoop loop;
  vbgp::VRouterConfig config;
  config.name = "e1";
  config.pop_id = "testpop";
  config.asn = 47065;
  config.router_id = Ipv4Address(10, 255, 0, 1);
  config.router_seed = 1;
  vbgp::VRouter router(&loop, config);

  PeerId neighbor = router.add_neighbor(
      {.name = "n1", .asn = 65001, .local_address = Ipv4Address(10, 0, 1, 1),
       .remote_address = Ipv4Address(10, 0, 1, 2), .interface = 0,
       .global_id = 1});
  BgpSpeaker n1(&loop, "n1", 65001, Ipv4Address(1, 1, 1, 1));
  PeerId n1_peer = n1.add_peer(
      {.name = "e1", .peer_asn = 47065,
       .local_address = Ipv4Address(10, 0, 1, 2)});

  constexpr int kExperiments = 4;
  std::vector<PeerId> exp_peers;
  std::vector<std::unique_ptr<BgpSpeaker>> experiments;
  for (int i = 0; i < kExperiments; ++i) {
    std::string exp_id = "x";
    exp_id += std::to_string(i);
    PeerId peer = router.add_experiment(
        {.experiment_id = exp_id,
         .asn = 61574u + static_cast<Asn>(i),
         .local_address = Ipv4Address(100, 64, static_cast<std::uint8_t>(i), 1),
         .remote_address = Ipv4Address(100, 64, static_cast<std::uint8_t>(i), 2),
         .interface = 10 + i});
    exp_peers.push_back(peer);
    experiments.push_back(std::make_unique<BgpSpeaker>(
        &loop, exp_id, 61574u + static_cast<Asn>(i),
        Ipv4Address(9, 9, 9, static_cast<std::uint8_t>(i))));
    PeerId xp = experiments.back()->add_peer(
        {.name = "e1", .peer_asn = 47065,
         .local_address = Ipv4Address(100, 64, static_cast<std::uint8_t>(i), 2),
         .addpath = AddPathMode::kBoth});
    auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
    router.speaker().connect_peer(peer, streams.a);
    experiments.back()->connect_peer(xp, streams.b);
  }
  auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
  router.speaker().connect_peer(neighbor, streams.a);
  n1.connect_peer(n1_peer, streams.b);
  loop.run_for(Duration::seconds(5));

  Ipv4Prefix dest = pfx("192.168.0.0/24");
  PathAttributes attrs;
  attrs.communities.push_back(Community(3356, 70));
  n1.originate(dest, attrs);
  loop.run_for(Duration::seconds(5));

  std::vector<BgpSpeaker::AdjOutEntry> exported;
  for (PeerId peer : exp_peers) {
    std::vector<BgpSpeaker::AdjOutEntry> paths;
    for (auto& entry : router.speaker().adj_rib_out(peer))
      if (entry.prefix == dest) paths.push_back(std::move(entry));
    ASSERT_EQ(paths.size(), 1u) << "peer " << peer;
    exported.push_back(std::move(paths[0]));
  }
  for (int i = 1; i < kExperiments; ++i) {
    EXPECT_EQ(exported[i].attrs.get(), exported[0].attrs.get())
        << "experiment " << i << " holds a different copy";
    EXPECT_EQ(exported[i].next_hop, exported[0].next_hop)
        << "experiment " << i;
  }

  // And every experiment actually received the route.
  for (const auto& x : experiments)
    EXPECT_EQ(loc_rib_count(*x), 1u);
}

}  // namespace
}  // namespace peering::bgp

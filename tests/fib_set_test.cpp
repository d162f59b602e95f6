// Shared-leaf FIB store tests: the RoutingTable contract exercised through
// FibView (typed over both implementations), copy-on-write isolation between
// views, the multibit lookup index (stride boundaries, the binary-walk
// fallback, when the index changes), a randomized differential test of
// FibView against the legacy single-owner RoutingTable, and the
// shared-vs-flat accounting the Figure 6a ablation depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "ip/fib_set.h"
#include "ip/routing_table.h"
#include "netbase/rand.h"
#include "obs/metrics.h"

namespace peering::ip {
namespace {

Route route(const std::string& prefix, std::uint32_t nh, int ifidx = 0) {
  return Route{*Ipv4Prefix::parse(prefix), Ipv4Address(nh), ifidx, 0};
}

// ---------------------------------------------------------------------------
// LPM edge cases, typed over both table flavours. A RoutingTable and a
// FibView must be indistinguishable through the shared contract.
// ---------------------------------------------------------------------------

// Wraps FibView so each TableHolder owns its backing set; TableHolder<
// RoutingTable> is the plain table.
template <typename T>
struct TableHolder;

template <>
struct TableHolder<RoutingTable> {
  RoutingTable table;
  RoutingTable& get() { return table; }
  TableHolder fresh() const { return {}; }
};

template <>
struct TableHolder<FibView> {
  std::unique_ptr<FibSet> set = std::make_unique<FibSet>();
  FibView table = set->make_view();
  FibView& get() { return table; }
  TableHolder fresh() const { return {}; }
};

template <typename T>
class LpmContractTest : public ::testing::Test {
 protected:
  TableHolder<T> holder_;
};

using TableTypes = ::testing::Types<RoutingTable, FibView>;
TYPED_TEST_SUITE(LpmContractTest, TableTypes);

TYPED_TEST(LpmContractTest, DefaultRouteIsFallbackForEverything) {
  auto& table = this->holder_.get();
  table.insert(route("0.0.0.0/0", 1));
  table.insert(route("10.0.0.0/8", 2));
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 1, 1))->next_hop.value(), 2u);
  EXPECT_EQ(table.lookup(Ipv4Address(203, 0, 113, 9))->next_hop.value(), 1u);
  EXPECT_EQ(table.lookup(Ipv4Address(0, 0, 0, 1))->next_hop.value(), 1u);
}

TYPED_TEST(LpmContractTest, HostRoutesBeatEveryCoveringPrefix) {
  auto& table = this->holder_.get();
  table.insert(route("10.0.0.0/8", 1));
  table.insert(route("10.1.2.3/32", 2));
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 2, 3))->next_hop.value(), 2u);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 2, 4))->next_hop.value(), 1u);
  EXPECT_TRUE(table.exact(*Ipv4Prefix::parse("10.1.2.3/32")).has_value());
  EXPECT_FALSE(table.exact(*Ipv4Prefix::parse("10.1.2.4/32")).has_value());
}

TYPED_TEST(LpmContractTest, NestedOverlappingPrefixesResolveByLength) {
  auto& table = this->holder_.get();
  table.insert(route("10.0.0.0/8", 1));
  table.insert(route("10.1.0.0/16", 2));
  table.insert(route("10.1.2.0/24", 3));
  table.insert(route("10.1.2.128/25", 4));
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 2, 200))->next_hop.value(), 4u);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 2, 100))->next_hop.value(), 3u);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 3, 1))->next_hop.value(), 2u);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 2, 0, 1))->next_hop.value(), 1u);
}

TYPED_TEST(LpmContractTest, InsertReplacesAndReportsReplacement) {
  auto& table = this->holder_.get();
  EXPECT_FALSE(table.insert(route("192.0.2.0/24", 1)));
  EXPECT_TRUE(table.insert(route("192.0.2.0/24", 9)));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(Ipv4Address(192, 0, 2, 1))->next_hop.value(), 9u);
}

TYPED_TEST(LpmContractTest, RemoveFallsBackToCoveringPrefix) {
  auto& table = this->holder_.get();
  table.insert(route("10.0.0.0/8", 1));
  table.insert(route("10.1.0.0/16", 2));
  EXPECT_TRUE(table.remove(*Ipv4Prefix::parse("10.1.0.0/16")));
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 0, 1))->next_hop.value(), 1u);
  EXPECT_FALSE(table.remove(*Ipv4Prefix::parse("10.1.0.0/16")));
  EXPECT_EQ(table.size(), 1u);
}

TYPED_TEST(LpmContractTest, MovedFromTableIsEmptyAndReusable) {
  auto moved_to = std::move(this->holder_);
  auto& old_table = this->holder_.get();
  EXPECT_EQ(old_table.size(), 0u);
  EXPECT_FALSE(old_table.lookup(Ipv4Address(10, 0, 0, 1)).has_value());

  // The moved-from holder must accept a fresh table and work normally.
  this->holder_ = this->holder_.fresh();
  auto& reused = this->holder_.get();
  reused.insert(route("10.0.0.0/8", 7));
  EXPECT_EQ(reused.size(), 1u);
  EXPECT_EQ(reused.lookup(Ipv4Address(10, 1, 1, 1))->next_hop.value(), 7u);
}

TYPED_TEST(LpmContractTest, ClearEmptiesAndAllowsReuse) {
  auto& table = this->holder_.get();
  table.insert(route("10.0.0.0/8", 1));
  table.insert(route("10.1.0.0/16", 2));
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.lookup(Ipv4Address(10, 1, 1, 1)).has_value());
  table.insert(route("10.2.0.0/16", 3));
  EXPECT_EQ(table.lookup(Ipv4Address(10, 2, 0, 1))->next_hop.value(), 3u);
}

// ---------------------------------------------------------------------------
// FibSet-specific behaviour: view isolation, copy-on-write writes, payload
// interning, release/reuse.
// ---------------------------------------------------------------------------

TEST(FibSet, ViewsAreIsolated) {
  FibSet set;
  FibView a = set.make_view();
  FibView b = set.make_view();
  a.insert(route("10.0.0.0/8", 1));
  b.insert(route("10.0.0.0/8", 2));
  b.insert(route("192.168.0.0/16", 3));
  EXPECT_EQ(a.lookup(Ipv4Address(10, 1, 1, 1))->next_hop.value(), 1u);
  EXPECT_EQ(b.lookup(Ipv4Address(10, 1, 1, 1))->next_hop.value(), 2u);
  EXPECT_FALSE(a.lookup(Ipv4Address(192, 168, 1, 1)).has_value());
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
  // Removing from one view leaves the other's entry untouched.
  EXPECT_TRUE(a.remove(*Ipv4Prefix::parse("10.0.0.0/8")));
  EXPECT_EQ(b.lookup(Ipv4Address(10, 1, 1, 1))->next_hop.value(), 2u);
}

TEST(FibSet, SharedPrefixUsesOneTrieLeaf) {
  FibSet set;
  std::vector<FibView> views;
  for (int i = 0; i < 8; ++i) views.push_back(set.make_view());
  for (auto& v : views) v.insert(route("203.0.113.0/24", 1));
  EXPECT_EQ(set.unique_prefix_count(), 1u);
  EXPECT_EQ(set.route_count(), 8u);
}

TEST(FibSet, IdenticalPayloadsAreInterned) {
  FibSet set;
  FibView a = set.make_view();
  std::size_t before = set.memory_bytes();
  // 64 routes through the same gateway/interface: one pooled payload.
  for (std::uint32_t i = 0; i < 64; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(i);
    cidr += ".0.0/16";
    a.insert(route(cidr, 7, 3));
  }
  std::size_t with_same_payload = set.memory_bytes();
  FibSet set2;
  FibView b = set2.make_view();
  // Same shape, but every route gets a distinct payload.
  for (std::uint32_t i = 0; i < 64; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(i);
    cidr += ".0.0/16";
    b.insert(route(cidr, 100 + i, 3));
  }
  std::size_t with_distinct_payloads = set2.memory_bytes();
  EXPECT_LT(with_same_payload - before, with_distinct_payloads - before);
}

TEST(FibSet, ReleasedViewDropsRoutesAndRecyclesId) {
  FibSet set;
  FibView keeper = set.make_view();
  keeper.insert(route("10.0.0.0/8", 1));
  {
    FibView temp = set.make_view();
    temp.insert(route("10.0.0.0/8", 2));
    temp.insert(route("172.16.0.0/12", 3));
    EXPECT_EQ(set.view_count(), 2u);
  }  // temp released on destruction
  EXPECT_EQ(set.view_count(), 1u);
  EXPECT_EQ(set.route_count(), 1u);
  EXPECT_EQ(set.unique_prefix_count(), 1u);
  // The recycled id starts empty.
  FibView next = set.make_view();
  EXPECT_EQ(next.size(), 0u);
  EXPECT_FALSE(next.lookup(Ipv4Address(10, 1, 1, 1)).has_value());
  EXPECT_EQ(keeper.lookup(Ipv4Address(10, 1, 1, 1))->next_hop.value(), 1u);
}

TEST(FibSet, UnboundViewReadsEmptyAndIgnoresWrites) {
  FibView unbound;
  EXPECT_FALSE(unbound.bound());
  EXPECT_FALSE(unbound.insert(route("10.0.0.0/8", 1)));
  EXPECT_FALSE(unbound.lookup(Ipv4Address(10, 0, 0, 1)).has_value());
  EXPECT_FALSE(unbound.remove(*Ipv4Prefix::parse("10.0.0.0/8")));
  EXPECT_EQ(unbound.size(), 0u);
  unbound.clear();  // no-op, must not crash
}

// ---------------------------------------------------------------------------
// Multibit lookup index: cells of 6 address bits per level, leaves naming
// the longest prefix any view holds, a binary-walk fallback for views that
// lack it, and an index that changes only when the union of views does.
// ---------------------------------------------------------------------------

/// Every length at, next to, or between the index's 6-bit stride
/// boundaries, all containing 10.1.2.3 (so each one nests in the next).
const std::vector<int> kBoundaryLengths = {0,  5,  6,  7,  12, 18,
                                           23, 24, 25, 30, 32};

Ipv4Prefix nested_prefix(int len) {
  return Ipv4Prefix(Ipv4Address(10, 1, 2, 3), static_cast<std::uint8_t>(len));
}

/// Probes that separate every pair of adjacent boundary lengths: the base
/// address with one bit flipped just past each length, plus neighbours of
/// the stride edges.
std::vector<Ipv4Address> boundary_probes() {
  const std::uint32_t base = Ipv4Address(10, 1, 2, 3).value();
  std::vector<Ipv4Address> probes{Ipv4Address(base)};
  for (int bit = 0; bit < 32; ++bit)
    probes.emplace_back(base ^ (0x80000000u >> bit));
  for (int len : kBoundaryLengths) {
    const std::uint32_t lo = len == 0 ? 0 : base & (~0u << (32 - len));
    probes.emplace_back(lo);
    probes.emplace_back(lo - 1);
    probes.emplace_back(lo | (len == 32 ? 0 : ~0u >> len));
  }
  return probes;
}

TEST(FibSetIndex, NestedPrefixesAcrossStrideBoundariesInBothOrders) {
  for (bool ascending : {true, false}) {
    std::vector<int> order = kBoundaryLengths;
    if (!ascending) std::reverse(order.begin(), order.end());
    FibSet set;
    FibView view = set.make_view();
    RoutingTable oracle;
    for (int len : order) {
      Route r{nested_prefix(len), Ipv4Address(static_cast<std::uint32_t>(len)),
              0, 0};
      view.insert(r);
      oracle.insert(r);
      for (Ipv4Address probe : boundary_probes())
        ASSERT_EQ(view.lookup(probe), oracle.lookup(probe))
            << "ascending=" << ascending << " after /" << len << " probe "
            << probe.str();
    }
    // Each length answers for the address that leaves the next one.
    for (std::size_t i = 0; i + 1 < kBoundaryLengths.size(); ++i) {
      const int len = kBoundaryLengths[i];
      const int next = kBoundaryLengths[i + 1];
      Ipv4Address probe(Ipv4Address(10, 1, 2, 3).value() ^
                        (0x80000000u >> (next - 1)));
      ASSERT_TRUE(view.lookup(probe).has_value()) << probe.str();
      EXPECT_EQ(view.lookup(probe)->prefix.length(), len) << probe.str();
    }
    EXPECT_EQ(view.lookup(Ipv4Address(10, 1, 2, 3))->prefix.length(), 32);
    // Peel them off again, longest first or shortest first.
    for (int len : order) {
      view.remove(nested_prefix(len));
      oracle.remove(nested_prefix(len));
      for (Ipv4Address probe : boundary_probes())
        ASSERT_EQ(view.lookup(probe), oracle.lookup(probe))
            << "ascending=" << ascending << " removed /" << len << " probe "
            << probe.str();
    }
  }
}

TEST(FibSetIndex, ViewMissingTheLongestSharedMatchFallsBack) {
  obs::Registry registry;
  obs::Scope scope(&registry);
  FibSet set;
  FibView mux = set.make_view();
  FibView neighbor = set.make_view();
  mux.insert(route("10.0.0.0/8", 1));
  neighbor.insert(route("10.1.0.0/16", 2));
  obs::Counter* fallbacks = registry.counter("fib_lpm_fallback_total");
  obs::Counter* misses = registry.counter("fib_lpm_miss_total");

  // The index leaf for 10.1.2.3 is the neighbor's /16; the mux lacks it,
  // so the binary walk finds the mux's shorter /8.
  auto got = mux.lookup(Ipv4Address(10, 1, 2, 3));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->prefix, *Ipv4Prefix::parse("10.0.0.0/8"));
  EXPECT_EQ(fallbacks->value(), 1u);
  EXPECT_EQ(misses->value(), 0u);

  // Other direction: outside the /16 the leaf is the mux's /8, which the
  // neighbor lacks; its walk finds nothing and the lookup is a miss.
  EXPECT_FALSE(neighbor.lookup(Ipv4Address(10, 2, 0, 1)).has_value());
  EXPECT_EQ(fallbacks->value(), 2u);
  EXPECT_EQ(misses->value(), 1u);

  // Lookups whose view holds the leaf, and lookups where no view has a
  // route at all, never walk.
  EXPECT_EQ(neighbor.lookup(Ipv4Address(10, 1, 2, 3))->next_hop.value(), 2u);
  EXPECT_EQ(mux.lookup(Ipv4Address(10, 2, 0, 1))->next_hop.value(), 1u);
  EXPECT_FALSE(mux.lookup(Ipv4Address(192, 0, 2, 1)).has_value());
  EXPECT_EQ(fallbacks->value(), 2u);
  EXPECT_EQ(misses->value(), 2u);
}

TEST(FibSetIndex, IndexFollowsUnionFlips) {
  FibSet set;
  const std::size_t empty_index = set.index_bytes();
  FibView a = set.make_view();
  FibView b = set.make_view();

  // First insert: the /24 joins the union and the index grows to reach it.
  a.insert(route("10.1.2.0/24", 1));
  const std::size_t one_prefix = set.index_bytes();
  EXPECT_GT(one_prefix, empty_index);
  b.insert(route("10.1.2.0/24", 2));
  EXPECT_EQ(set.index_bytes(), one_prefix);

  // The prefix stays in the union until the last view drops it.
  a.remove(*Ipv4Prefix::parse("10.1.2.0/24"));
  EXPECT_EQ(set.index_bytes(), one_prefix);
  EXPECT_EQ(b.lookup(Ipv4Address(10, 1, 2, 9))->next_hop.value(), 2u);
  b.remove(*Ipv4Prefix::parse("10.1.2.0/24"));
  EXPECT_EQ(set.index_bytes(), empty_index);
  EXPECT_FALSE(b.lookup(Ipv4Address(10, 1, 2, 9)).has_value());

  // clear() drops b's private prefixes and keeps the shared ones.
  a.insert(route("10.1.0.0/16", 1));
  b.insert(route("10.1.0.0/16", 2));
  b.insert(route("10.1.2.128/25", 3));
  b.insert(route("172.16.0.0/12", 4));
  b.clear();
  EXPECT_FALSE(b.lookup(Ipv4Address(10, 1, 2, 200)).has_value());
  EXPECT_FALSE(b.lookup(Ipv4Address(172, 16, 0, 1)).has_value());
  EXPECT_EQ(a.lookup(Ipv4Address(10, 1, 2, 200))->prefix,
            *Ipv4Prefix::parse("10.1.0.0/16"));
  FibSet only_a;
  FibView same = only_a.make_view();
  same.insert(route("10.1.0.0/16", 1));
  EXPECT_EQ(set.index_bytes(), only_a.index_bytes());

  // release_view() with id reuse: the recycled view starts empty and the
  // index no longer names the released view's private prefixes.
  const FibSet::ViewId released = b.id();
  b = FibView();
  {
    FibView temp = set.make_view();
    EXPECT_EQ(temp.id(), released);
    temp.insert(route("10.1.2.0/24", 5));
    temp.insert(route("198.51.100.0/24", 6));
    EXPECT_EQ(temp.lookup(Ipv4Address(10, 1, 2, 1))->next_hop.value(), 5u);
    EXPECT_GT(set.index_bytes(), only_a.index_bytes());
  }
  FibView reused = set.make_view();
  EXPECT_EQ(reused.id(), released);
  EXPECT_FALSE(reused.lookup(Ipv4Address(10, 1, 2, 1)).has_value());
  EXPECT_FALSE(reused.lookup(Ipv4Address(198, 51, 100, 1)).has_value());
  EXPECT_EQ(a.lookup(Ipv4Address(10, 1, 2, 1))->prefix,
            *Ipv4Prefix::parse("10.1.0.0/16"));
  EXPECT_EQ(set.index_bytes(), only_a.index_bytes());
}

TEST(FibSetIndex, ClearMatchesAFreshIndexWhetherFewOrMostPrefixesLeave) {
  // clear() updates the index prefix by prefix when few prefixes leave the
  // union and rebuilds it when most do; both must end where a set built
  // from the survivors starts.
  for (int private_count : {3, 300}) {
    Rng rng(static_cast<std::uint64_t>(private_count));
    FibSet set;
    FibView keeper = set.make_view();
    FibView leaver = set.make_view();
    FibSet fresh;
    FibView fresh_view = fresh.make_view();
    std::vector<Ipv4Prefix> kept;
    for (int i = 0; i < 100; ++i) {
      Route r{Ipv4Prefix(Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                         static_cast<std::uint8_t>(rng.range(8, 32))),
              Ipv4Address(1), 0, 0};
      keeper.insert(r);
      leaver.insert(r);
      fresh_view.insert(r);
      kept.push_back(r.prefix);
    }
    for (int i = 0; i < private_count; ++i)
      leaver.insert(
          Route{Ipv4Prefix(Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                           static_cast<std::uint8_t>(rng.range(0, 32))),
                Ipv4Address(2), 0, 0});
    leaver.clear();
    EXPECT_EQ(set.index_bytes(), fresh.index_bytes()) << private_count;
    for (int i = 0; i < 2000; ++i) {
      Ipv4Address probe(static_cast<std::uint32_t>(rng.next()));
      if (i % 2 == 0) probe = kept[rng.below(kept.size())].address();
      ASSERT_EQ(keeper.lookup(probe), fresh_view.lookup(probe)) << probe.str();
      ASSERT_FALSE(leaver.lookup(probe).has_value()) << probe.str();
    }
  }
}

TEST(FibSetIndex, SlotOnlyChurnLeavesTheIndexAlone) {
  Rng rng(5);
  FibSet set;
  std::vector<FibView> views;
  for (int v = 0; v < 8; ++v) views.push_back(set.make_view());
  std::vector<Ipv4Prefix> prefixes;
  for (int i = 0; i < 400; ++i) {
    Ipv4Prefix p(Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                 static_cast<std::uint8_t>(rng.range(8, 32)));
    if (views[0].insert(Route{p, Ipv4Address(1), 0, 0})) continue;
    prefixes.push_back(p);
  }
  const std::size_t index = set.index_bytes();
  const std::size_t memory_before = set.memory_bytes();
  // Other views add, replace and drop routes for prefixes view 0 keeps in
  // the union; that is every write a neighbor's churn makes.
  for (int round = 0; round < 2000; ++round) {
    FibView& v = views[1 + rng.below(views.size() - 1)];
    const Ipv4Prefix& p = prefixes[rng.below(prefixes.size())];
    if (rng.chance(0.3))
      v.remove(p);
    else
      v.insert(Route{p, Ipv4Address(static_cast<std::uint32_t>(rng.below(64))),
                     static_cast<int>(rng.below(4)), 0});
    ASSERT_EQ(set.index_bytes(), index);
  }
  // Replacing view 0's own routes is slot-only too.
  for (const Ipv4Prefix& p : prefixes)
    views[0].insert(Route{p, Ipv4Address(2), 1, 0});
  EXPECT_EQ(set.index_bytes(), index);
  EXPECT_GT(set.memory_bytes(), memory_before);  // slot arrays grew
}

TEST(FibSetIndex, MemoryBytesIncludesTheIndex) {
  // Same trie nodes, slot arrays and payloads; only the index differs:
  // a /32 needs an index node on every level, a /6 is a root leaf.
  FibSet deep;
  FibView deep_view = deep.make_view();
  deep_view.insert(route("10.1.2.3/32", 1));
  FibSet shallow;
  FibView shallow_view = shallow.make_view();
  shallow_view.insert(route("8.0.0.0/6", 1));
  EXPECT_GT(deep.index_bytes(), shallow.index_bytes());
  EXPECT_EQ(deep.memory_bytes() - shallow.memory_bytes(),
            deep.index_bytes() - shallow.index_bytes());
}

// ---------------------------------------------------------------------------
// Differential test: a FibView and a legacy RoutingTable fed the identical
// randomized insert/remove sequence must answer every lookup identically.
// ---------------------------------------------------------------------------

class FibViewDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FibViewDifferentialTest, MatchesRoutingTable) {
  Rng rng(GetParam());
  FibSet set;
  // Other views churn concurrently so the shared trie holds foreign state
  // the view under test must never observe. Their prefixes come from the
  // same distribution, so they create, split, nest under and prune nodes
  // the subject also uses: every kind of index change, plus lookups where
  // the subject lacks the longest shared match.
  FibView subject = set.make_view();
  std::vector<FibView> noise;
  for (int i = 0; i < 3; ++i) noise.push_back(set.make_view());
  std::vector<std::vector<Ipv4Prefix>> noise_present(noise.size());
  RoutingTable legacy;
  std::vector<Ipv4Prefix> present;

  // Lengths cluster at and around the 6-bit stride edges; addresses share
  // a few hot /12s so prefixes nest.
  auto random_prefix = [&]() {
    static constexpr std::uint8_t kEdges[] = {0,  5,  6,  7,  11, 12, 13, 17,
                                              18, 19, 23, 24, 25, 29, 30, 31,
                                              32};
    std::uint8_t len =
        rng.chance(0.5) ? kEdges[rng.below(std::size(kEdges))]
                        : static_cast<std::uint8_t>(rng.range(0, 32));
    std::uint32_t addr = static_cast<std::uint32_t>(rng.next());
    if (rng.chance(0.7))
      addr = (addr & 0x000fffffu) |
             static_cast<std::uint32_t>(0x0a0u + rng.below(3)) << 20;
    return Ipv4Prefix(Ipv4Address(addr), len);
  };
  auto check_probe = [&](Ipv4Address probe) {
    auto got = subject.lookup(probe);
    auto want = legacy.lookup(probe);
    ASSERT_EQ(got.has_value(), want.has_value()) << "probe " << probe.str();
    if (want) {
      EXPECT_EQ(got->prefix, want->prefix) << "probe " << probe.str();
      EXPECT_EQ(got->next_hop, want->next_hop);
      EXPECT_EQ(got->interface, want->interface);
    }
  };

  for (int step = 0; step < 4000; ++step) {
    double action = rng.uniform();
    if (action < 0.35) {
      Route r{random_prefix(),
              Ipv4Address(static_cast<std::uint32_t>(rng.next())),
              static_cast<int>(rng.below(8)), 0};
      bool replaced_view = subject.insert(r);
      bool replaced_legacy = legacy.insert(r);
      EXPECT_EQ(replaced_view, replaced_legacy);
      if (!replaced_legacy) present.push_back(r.prefix);
    } else if (action < 0.47 && !present.empty()) {
      std::size_t idx = rng.below(present.size());
      Ipv4Prefix victim = present[idx];
      EXPECT_EQ(subject.remove(victim), legacy.remove(victim));
      present[idx] = present.back();
      present.pop_back();
    } else if (action < 0.60) {
      // Foreign inserts: invisible to the subject view.
      std::size_t n = rng.below(noise.size());
      Route r{rng.chance(0.3) && !present.empty()
                  ? present[rng.below(present.size())]
                  : random_prefix(),
              Ipv4Address(static_cast<std::uint32_t>(rng.next())), 1, 0};
      if (!noise[n].insert(r)) noise_present[n].push_back(r.prefix);
    } else if (action < 0.68) {
      // Foreign removals: prune nodes out from under the subject.
      std::size_t n = rng.below(noise.size());
      auto& mine = noise_present[n];
      if (!mine.empty()) {
        std::size_t idx = rng.below(mine.size());
        EXPECT_TRUE(noise[n].remove(mine[idx]));
        mine[idx] = mine.back();
        mine.pop_back();
      }
    } else if (action < 0.685) {
      // Whole-view churn: clear one noise view, or release it for a fresh
      // one (which may reuse an id released earlier).
      std::size_t n = rng.below(noise.size());
      if (rng.chance(0.5))
        noise[n].clear();
      else
        noise[n] = set.make_view();
      noise_present[n].clear();
    } else {
      Ipv4Address probe(static_cast<std::uint32_t>(rng.next()));
      if (rng.chance(0.5) && !present.empty()) {
        // Inside, or just past, a prefix the subject holds.
        const Ipv4Prefix& p = present[rng.below(present.size())];
        std::uint32_t host = p.length() == 32
                                 ? 0
                                 : static_cast<std::uint32_t>(rng.next()) &
                                       (~0u >> p.length());
        probe = Ipv4Address(p.address().value() | host);
        if (rng.chance(0.3)) probe = Ipv4Address(probe.value() + 1);
      }
      check_probe(probe);
    }
    ASSERT_EQ(subject.size(), legacy.size());
  }

  // Final sweep: exact() must agree on every surviving prefix, and visit()
  // must enumerate identical route sets.
  for (const auto& p : present) {
    auto got = subject.exact(p);
    auto want = legacy.exact(p);
    ASSERT_TRUE(got.has_value() && want.has_value());
    EXPECT_EQ(got->next_hop, want->next_hop);
    check_probe(p.address());
  }
  std::map<Ipv4Prefix, Route> seen_view, seen_legacy;
  subject.visit([&](const Route& r) { seen_view[r.prefix] = r; });
  legacy.visit([&](const Route& r) { seen_legacy[r.prefix] = r; });
  EXPECT_EQ(seen_view.size(), seen_legacy.size());
  for (const auto& [p, r] : seen_legacy) {
    ASSERT_TRUE(seen_view.count(p)) << p.str();
    EXPECT_EQ(seen_view[p], r);
  }

  // The index is a function of the union of views alone: rebuilding the
  // same contents from scratch gives the same index.
  FibSet rebuilt;
  FibView copy = rebuilt.make_view();
  set.visit(subject.id(), [&](const Route& r) { copy.insert(r); });
  for (const auto& v : noise)
    v.visit([&](const Route& r) { copy.insert(r); });
  EXPECT_EQ(set.index_bytes(), rebuilt.index_bytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FibViewDifferentialTest,
                         ::testing::Values(1, 2, 3, 17, 42, 1234, 99999, 5,
                                           7, 11, 13, 2024, 31337, 65535,
                                           271828, 314159));

// ---------------------------------------------------------------------------
// Accounting: shared vs flat-equivalent bytes.
// ---------------------------------------------------------------------------

TEST(FibSetAccounting, FlatEquivalentMatchesRealRoutingTable) {
  // flat_equivalent_bytes(view) claims to price the view's contents as a
  // standalone RoutingTable; verify against an actual one.
  Rng rng(7);
  FibSet set;
  FibView view = set.make_view();
  FibView other = set.make_view();  // foreign state to ignore
  RoutingTable standalone;
  for (int i = 0; i < 500; ++i) {
    std::uint8_t len = static_cast<std::uint8_t>(rng.range(8, 28));
    Ipv4Prefix p(Ipv4Address(static_cast<std::uint32_t>(rng.next())), len);
    Route r{p, Ipv4Address(1), 0, 0};
    view.insert(r);
    standalone.insert(r);
    if (rng.chance(0.6))
      other.insert(Route{
          Ipv4Prefix(Ipv4Address(static_cast<std::uint32_t>(rng.next())), 24),
          Ipv4Address(2), 0, 0});
  }
  EXPECT_EQ(set.flat_equivalent_bytes(view.id()), standalone.memory_bytes());
}

TEST(FibSetAccounting, MostlyOverlappingViewsDedupAtLeast4x) {
  // The tentpole target: 20 neighbors with ~95% table overlap must cost at
  // least 4x less shared than flat.
  Rng rng(11);
  FibSet set;
  std::vector<FibView> views;
  for (int v = 0; v < 20; ++v) views.push_back(set.make_view());
  for (std::uint32_t i = 0; i < 2000; ++i) {
    Ipv4Prefix p(Ipv4Address((10u << 24) | (i << 8)), 24);
    for (std::size_t v = 0; v < views.size(); ++v) {
      if (v == 0 || rng.uniform() < 0.95)
        views[v].insert(Route{p, Ipv4Address(100 + static_cast<std::uint32_t>(v)),
                              static_cast<int>(v), 0});
    }
  }
  std::size_t shared = set.memory_bytes();
  std::size_t flat = set.flat_equivalent_bytes();
  EXPECT_GE(static_cast<double>(flat) / static_cast<double>(shared), 4.0)
      << "shared=" << shared << " flat=" << flat;
}

TEST(FibSetAccounting, SharedBytesShrinkWhenViewReleases) {
  FibSet set;
  FibView keeper = set.make_view();
  for (std::uint32_t i = 0; i < 64; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(i);
    cidr += ".0.0/16";
    keeper.insert(route(cidr, 1));
  }
  std::size_t with_one = set.memory_bytes();
  {
    FibView temp = set.make_view();
    for (std::uint32_t i = 0; i < 64; ++i) {
      std::string cidr = "172.";
      cidr += std::to_string(16 + i % 16);
      cidr += '.';
      cidr += std::to_string(i / 16);
      cidr += ".0/24";
      temp.insert(route(cidr, 2));
    }
    EXPECT_GT(set.memory_bytes(), with_one);
  }
  // Trie nodes for the released view's private prefixes are pruned. (Leaf
  // slot arrays and pool capacity may persist; trie structure dominates.)
  EXPECT_EQ(set.unique_prefix_count(), 64u);
  EXPECT_EQ(set.route_count(), 64u);
}

}  // namespace
}  // namespace peering::ip

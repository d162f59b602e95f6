// RIB tests: attribute-pool sharing, the standalone Adj-RIB-In table, the
// Loc-RIB's update/withdraw results and per-peer view, and the RFC 4271
// decision process step by step.
#include <gtest/gtest.h>

#include "bgp/rib.h"

namespace peering::bgp {
namespace {

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }

PathAttributes attrs_with(std::vector<Asn> path,
                          std::optional<std::uint32_t> local_pref = {},
                          Origin origin = Origin::kIgp,
                          std::optional<std::uint32_t> med = {}) {
  PathAttributes a;
  a.as_path = AsPath(std::move(path));
  a.next_hop = Ipv4Address(192, 0, 2, 1);
  a.local_pref = local_pref;
  a.origin = origin;
  a.med = med;
  return a;
}

TEST(AttrPool, DeduplicatesIdenticalAttributes) {
  AttrPool pool;
  auto a = pool.intern(attrs_with({65001}));
  auto b = pool.intern(attrs_with({65001}));
  auto c = pool.intern(attrs_with({65002}));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(pool.size(), 2u);
}

TEST(AttrPool, SweepReleasesUnreferenced) {
  AttrPool pool;
  {
    auto a = pool.intern(attrs_with({65001}));
    EXPECT_EQ(pool.size(), 1u);
  }
  EXPECT_EQ(pool.sweep(), 1u);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.memory_bytes(), 0u);
}

TEST(AdjRibIn, UpdateWithdrawLifecycle) {
  AttrPool pool;
  AdjRibIn rib;
  RibRoute r{pfx("10.0.0.0/24"), 1, 5, pool.intern(attrs_with({65001}))};
  EXPECT_TRUE(rib.update(r));
  EXPECT_FALSE(rib.update(r));  // identical: no change
  r.attrs = pool.intern(attrs_with({65002}));
  EXPECT_TRUE(rib.update(r));  // changed attrs
  EXPECT_EQ(rib.size(), 1u);

  auto removed = rib.withdraw(pfx("10.0.0.0/24"), 1);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(rib.size(), 0u);
  EXPECT_FALSE(rib.withdraw(pfx("10.0.0.0/24"), 1).has_value());
}

TEST(AdjRibIn, MultiplePathIdsPerPrefix) {
  AttrPool pool;
  AdjRibIn rib;
  rib.update({pfx("10.0.0.0/24"), 1, 5, pool.intern(attrs_with({65001}))});
  rib.update({pfx("10.0.0.0/24"), 2, 5, pool.intern(attrs_with({65002}))});
  EXPECT_EQ(rib.size(), 2u);
}

class DecisionTest : public ::testing::Test {
 protected:
  PeerDecisionInfo info(PeerId peer) const {
    auto it = infos_.find(peer);
    return it == infos_.end() ? PeerDecisionInfo{} : it->second;
  }
  std::function<PeerDecisionInfo(PeerId)> info_fn() {
    return [this](PeerId p) { return info(p); };
  }
  AttrPool pool_;
  std::map<PeerId, PeerDecisionInfo> infos_;
};

TEST_F(DecisionTest, HighestLocalPrefWins) {
  std::vector<RibRoute> cands{
      {pfx("10.0.0.0/24"), 0, 1, pool_.intern(attrs_with({65001}, 100))},
      {pfx("10.0.0.0/24"), 0, 2, pool_.intern(attrs_with({65002, 65003}, 300))},
  };
  EXPECT_EQ(select_best_path(cands, info_fn()), 1);
}

TEST_F(DecisionTest, MissingLocalPrefDefaultsTo100) {
  std::vector<RibRoute> cands{
      {pfx("10.0.0.0/24"), 0, 1, pool_.intern(attrs_with({65001}))},
      {pfx("10.0.0.0/24"), 0, 2, pool_.intern(attrs_with({65001}, 99))},
  };
  EXPECT_EQ(select_best_path(cands, info_fn()), 0);
}

TEST_F(DecisionTest, ShorterAsPathWins) {
  std::vector<RibRoute> cands{
      {pfx("10.0.0.0/24"), 0, 1, pool_.intern(attrs_with({65001, 65002}))},
      {pfx("10.0.0.0/24"), 0, 2, pool_.intern(attrs_with({65003}))},
  };
  EXPECT_EQ(select_best_path(cands, info_fn()), 1);
}

TEST_F(DecisionTest, LowerOriginWins) {
  std::vector<RibRoute> cands{
      {pfx("10.0.0.0/24"), 0, 1,
       pool_.intern(attrs_with({65001}, {}, Origin::kIncomplete))},
      {pfx("10.0.0.0/24"), 0, 2,
       pool_.intern(attrs_with({65002}, {}, Origin::kIgp))},
  };
  EXPECT_EQ(select_best_path(cands, info_fn()), 1);
}

TEST_F(DecisionTest, MedComparedOnlyForSameNeighborAs) {
  // Same first AS: lower MED wins.
  std::vector<RibRoute> same{
      {pfx("10.0.0.0/24"), 0, 1,
       pool_.intern(attrs_with({65001, 65005}, {}, Origin::kIgp, 20))},
      {pfx("10.0.0.0/24"), 0, 2,
       pool_.intern(attrs_with({65001, 65006}, {}, Origin::kIgp, 10))},
  };
  EXPECT_EQ(select_best_path(same, info_fn()), 1);

  // Different first AS: MED ignored; tie broken by router id below.
  infos_[1].router_id = Ipv4Address(1, 1, 1, 1);
  infos_[2].router_id = Ipv4Address(2, 2, 2, 2);
  std::vector<RibRoute> diff{
      {pfx("10.0.0.0/24"), 0, 1,
       pool_.intern(attrs_with({65001, 65005}, {}, Origin::kIgp, 20))},
      {pfx("10.0.0.0/24"), 0, 2,
       pool_.intern(attrs_with({65002, 65006}, {}, Origin::kIgp, 10))},
  };
  EXPECT_EQ(select_best_path(diff, info_fn()), 0);
}

TEST_F(DecisionTest, EbgpPreferredOverIbgp) {
  infos_[1].ibgp = true;
  infos_[2].ibgp = false;
  std::vector<RibRoute> cands{
      {pfx("10.0.0.0/24"), 0, 1, pool_.intern(attrs_with({65001}))},
      {pfx("10.0.0.0/24"), 0, 2, pool_.intern(attrs_with({65002}))},
  };
  EXPECT_EQ(select_best_path(cands, info_fn()), 1);
}

TEST_F(DecisionTest, RouterIdBreaksTies) {
  infos_[1].router_id = Ipv4Address(9, 9, 9, 9);
  infos_[2].router_id = Ipv4Address(1, 1, 1, 1);
  std::vector<RibRoute> cands{
      {pfx("10.0.0.0/24"), 0, 1, pool_.intern(attrs_with({65001}))},
      {pfx("10.0.0.0/24"), 0, 2, pool_.intern(attrs_with({65002}))},
  };
  EXPECT_EQ(select_best_path(cands, info_fn()), 1);
}

TEST_F(DecisionTest, EmptyCandidatesYieldNoBest) {
  std::vector<RibRoute> none;
  EXPECT_EQ(select_best_path(none, info_fn()), -1);
}

TEST(LocRib, TracksBestAcrossUpdatesAndWithdrawals) {
  AttrPool pool;
  std::map<PeerId, PeerDecisionInfo> infos;
  infos[1].router_id = Ipv4Address(1, 1, 1, 1);
  infos[2].router_id = Ipv4Address(2, 2, 2, 2);
  LocRib rib([&](PeerId p) { return infos[p]; });

  // Peer 1: longer path; peer 2: shorter path -> peer 2 best.
  EXPECT_TRUE(rib.update({pfx("10.0.0.0/24"), 0, 1,
                          pool.intern(attrs_with({65001, 65009}))})
                  .best_changed);
  EXPECT_TRUE(
      rib.update({pfx("10.0.0.0/24"), 0, 2, pool.intern(attrs_with({65002}))})
          .best_changed);
  EXPECT_EQ(rib.best(pfx("10.0.0.0/24"))->peer, 2u);
  EXPECT_EQ(rib.route_count(), 2u);

  // Withdrawing the best promotes the other.
  EXPECT_TRUE(rib.withdraw(pfx("10.0.0.0/24"), 2, 0).best_changed);
  EXPECT_EQ(rib.best(pfx("10.0.0.0/24"))->peer, 1u);

  // Withdrawing the last removes the prefix entirely.
  EXPECT_TRUE(rib.withdraw(pfx("10.0.0.0/24"), 1, 0).best_changed);
  EXPECT_FALSE(rib.best(pfx("10.0.0.0/24")).has_value());
  EXPECT_EQ(rib.prefix_count(), 0u);
}

TEST(LocRib, UpdateOfNonBestDoesNotSignalChange) {
  AttrPool pool;
  std::map<PeerId, PeerDecisionInfo> infos;
  infos[1].router_id = Ipv4Address(1, 1, 1, 1);
  infos[2].router_id = Ipv4Address(2, 2, 2, 2);
  LocRib rib([&](PeerId p) { return infos[p]; });
  rib.update({pfx("10.0.0.0/24"), 0, 1, pool.intern(attrs_with({65001}))});
  rib.update(
      {pfx("10.0.0.0/24"), 0, 2, pool.intern(attrs_with({65002, 65003}))});
  // Re-updating the losing path with another losing path: best unchanged.
  auto result = rib.update(
      {pfx("10.0.0.0/24"), 0, 2, pool.intern(attrs_with({65002, 65004}))});
  EXPECT_TRUE(result.changed);
  EXPECT_FALSE(result.best_changed);
}

TEST(LocRib, UpdateReportsUnchangedChangedAndAdded) {
  AttrPool pool;
  LocRib rib([](PeerId) { return PeerDecisionInfo{}; });
  RibRoute r{pfx("10.0.0.0/24"), 1, 5, pool.intern(attrs_with({65001}))};

  auto added = rib.update(r);
  EXPECT_TRUE(added.changed);
  EXPECT_TRUE(added.added);
  EXPECT_TRUE(added.best_changed);

  // Same peer, path id and interned attrs: an unchanged re-announcement.
  auto same = rib.update(r);
  EXPECT_FALSE(same.changed);
  EXPECT_FALSE(same.added);
  EXPECT_FALSE(same.best_changed);

  // New attrs replace the candidate in place; it stays the best, with new
  // attributes, so the best changed.
  r.attrs = pool.intern(attrs_with({65002}));
  auto replaced = rib.update(r);
  EXPECT_TRUE(replaced.changed);
  EXPECT_FALSE(replaced.added);
  EXPECT_TRUE(replaced.best_changed);
  EXPECT_EQ(rib.route_count(), 1u);
  EXPECT_EQ(rib.best(pfx("10.0.0.0/24"))->attrs, r.attrs);

  // Another path id from the same peer is a second candidate.
  EXPECT_TRUE(rib.update({pfx("10.0.0.0/24"), 2, 5, r.attrs}).added);
  EXPECT_EQ(rib.route_count(), 2u);
}

TEST(LocRib, WithdrawHandsBackTheRemovedRoute) {
  AttrPool pool;
  LocRib rib([](PeerId) { return PeerDecisionInfo{}; });
  RibRoute r{pfx("10.0.0.0/24"), 3, 5, pool.intern(attrs_with({65001}))};
  rib.update(r);

  // Wrong peer or wrong path id removes nothing.
  EXPECT_FALSE(rib.withdraw(r.prefix, 6, 3).removed.has_value());
  EXPECT_FALSE(rib.withdraw(r.prefix, 5, 4).removed.has_value());
  EXPECT_FALSE(rib.withdraw(pfx("10.1.0.0/24"), 5, 3).removed.has_value());
  EXPECT_EQ(rib.route_count(), 1u);

  auto result = rib.withdraw(r.prefix, 5, 3);
  ASSERT_TRUE(result.removed.has_value());
  EXPECT_EQ(result.removed->prefix, r.prefix);
  EXPECT_EQ(result.removed->peer, 5u);
  EXPECT_EQ(result.removed->path_id, 3u);
  EXPECT_EQ(result.removed->attrs, r.attrs);
  EXPECT_TRUE(result.best_changed);
  EXPECT_EQ(rib.route_count(), 0u);
  EXPECT_FALSE(rib.withdraw(r.prefix, 5, 3).removed.has_value());
}

TEST(LocRib, WithdrawOfNonBestKeepsTheBest) {
  AttrPool pool;
  std::map<PeerId, PeerDecisionInfo> infos;
  infos[1].router_id = Ipv4Address(1, 1, 1, 1);
  infos[2].router_id = Ipv4Address(2, 2, 2, 2);
  infos[3].router_id = Ipv4Address(3, 3, 3, 3);
  LocRib rib([&](PeerId p) { return infos[p]; });
  const Ipv4Prefix p = pfx("10.0.0.0/24");
  // Peer 3 (shortest path) is best and sits last in the candidate list.
  rib.update({p, 0, 1, pool.intern(attrs_with({65001, 65009}))});
  rib.update({p, 0, 2, pool.intern(attrs_with({65002, 65009}))});
  rib.update({p, 0, 3, pool.intern(attrs_with({65003}))});
  ASSERT_EQ(rib.best(p)->peer, 3u);
  // Removing a loser ahead of it in the list leaves the best alone.
  EXPECT_FALSE(rib.withdraw(p, 1, 0).best_changed);
  EXPECT_EQ(rib.best(p)->peer, 3u);
}

TEST(LocRib, WithdrawPeerReturnsItsRoutesInPrefixPathIdOrder) {
  AttrPool pool;
  std::map<PeerId, PeerDecisionInfo> infos;
  infos[1].router_id = Ipv4Address(1, 1, 1, 1);
  infos[2].router_id = Ipv4Address(2, 2, 2, 2);
  LocRib rib([&](PeerId p) { return infos[p]; });
  const Ipv4Prefix a = pfx("10.0.0.0/24");
  const Ipv4Prefix b = pfx("10.1.0.0/24");
  const Ipv4Prefix c = pfx("10.2.0.0/24");
  auto short_path = pool.intern(attrs_with({65001}));
  auto long_path = pool.intern(attrs_with({65002, 65009}));
  // Peer 1's paths arrive out of (prefix, path id) order; peer 2 shares
  // prefixes a and b and alone holds c.
  rib.update({b, 7, 1, short_path});
  rib.update({a, 9, 1, short_path});
  rib.update({b, 2, 2, long_path});
  rib.update({a, 4, 1, short_path});
  rib.update({b, 3, 1, short_path});
  rib.update({a, 1, 2, long_path});
  rib.update({c, 5, 2, long_path});
  ASSERT_EQ(rib.best(a)->peer, 1u);
  ASSERT_EQ(rib.route_count(), 7u);

  // The per-peer view is ordered the same way and leaves the RIB intact.
  auto view = rib.peer_routes(1);
  ASSERT_EQ(view.size(), 4u);
  EXPECT_EQ(rib.route_count(), 7u);

  auto removed = rib.withdraw_peer(1);
  std::vector<std::pair<Ipv4Prefix, std::uint32_t>> got;
  for (const auto& r : removed) {
    EXPECT_EQ(r.peer, 1u);
    EXPECT_EQ(r.attrs, short_path);
    got.emplace_back(r.prefix, r.path_id);
  }
  const std::vector<std::pair<Ipv4Prefix, std::uint32_t>> want{
      {a, 4}, {a, 9}, {b, 3}, {b, 7}};
  EXPECT_EQ(got, want);
  ASSERT_EQ(view.size(), removed.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view[i].prefix, removed[i].prefix);
    EXPECT_EQ(view[i].path_id, removed[i].path_id);
  }

  // Peer 2 is untouched and its paths are now best.
  EXPECT_EQ(rib.route_count(), 3u);
  EXPECT_EQ(rib.prefix_count(), 3u);
  EXPECT_EQ(rib.peer_routes(2).size(), 3u);
  EXPECT_EQ(rib.best(a)->peer, 2u);
  EXPECT_EQ(rib.best(b)->peer, 2u);
  EXPECT_EQ(rib.best(c)->peer, 2u);
  EXPECT_TRUE(rib.peer_routes(1).empty());
  EXPECT_TRUE(rib.withdraw_peer(1).empty());

  // Removing the last peer empties every prefix.
  EXPECT_EQ(rib.withdraw_peer(2).size(), 3u);
  EXPECT_EQ(rib.route_count(), 0u);
  EXPECT_EQ(rib.prefix_count(), 0u);
}

}  // namespace
}  // namespace peering::bgp

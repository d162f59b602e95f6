// End-to-end BGP session tests over simulated streams: establishment,
// route propagation, best-path advertisement, ADD-PATH fan-out, implicit
// withdraws, hold-timer expiry, MRAI batching, session teardown, and the
// effects a scripted raw-wire neighbor's UPDATEs have on route events,
// exports, post-policy monitoring and the per-peer Adj-RIB-In view.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "bgp/speaker.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/stream.h"

namespace peering::bgp {
namespace {

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }

struct Net {
  sim::EventLoop loop;

  /// Connects two speakers with a bidirectional session and returns the
  /// peer ids (first on a's side, second on b's side).
  std::pair<PeerId, PeerId> connect(BgpSpeaker& a, BgpSpeaker& b,
                                    PeerConfig a_cfg, PeerConfig b_cfg,
                                    Duration latency = Duration::millis(1)) {
    PeerId ap = a.add_peer(std::move(a_cfg));
    PeerId bp = b.add_peer(std::move(b_cfg));
    auto pair = sim::StreamChannel::make(&loop, latency);
    a.connect_peer(ap, pair.a);
    b.connect_peer(bp, pair.b);
    return {ap, bp};
  }

  void settle(Duration d = Duration::seconds(5)) { loop.run_for(d); }
};

PathAttributes originate_attrs() {
  PathAttributes attrs;
  attrs.origin = Origin::kIgp;
  return attrs;
}

TEST(Session, EstablishesAndExchangesKeepalives) {
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  auto [ap, bp] = net.connect(a, b, {.name = "to-b", .peer_asn = 65002},
                              {.name = "to-a", .peer_asn = 65001});
  net.settle();
  EXPECT_EQ(a.session_state(ap), SessionState::kEstablished);
  EXPECT_EQ(b.session_state(bp), SessionState::kEstablished);
  // Keepalives flow periodically (hold 90 => interval 30s).
  net.loop.run_for(Duration::seconds(65));
  EXPECT_GE(a.peer_stats(ap).keepalives_received, 2u);
}

TEST(Session, UnknownPeerIdsThrowAndIdsStayAscending) {
  sim::EventLoop loop;
  BgpSpeaker speaker(&loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  EXPECT_THROW(speaker.peer_config(1), std::out_of_range);
  EXPECT_TRUE(speaker.peer_ids().empty());
  std::vector<PeerId> added;
  for (Asn asn = 65002; asn < 65005; ++asn)
    added.push_back(speaker.add_peer({.name = "p", .peer_asn = asn}));
  // Id 0 is kLocalRoutes, never a session; the next id is not yet one.
  for (PeerId unknown : {kLocalRoutes, added.back() + 1}) {
    EXPECT_THROW(speaker.peer_config(unknown), std::out_of_range);
    EXPECT_THROW(speaker.peer_stats(unknown), std::out_of_range);
    EXPECT_THROW(speaker.session_state(unknown), std::out_of_range);
  }
  EXPECT_TRUE(std::is_sorted(added.begin(), added.end()));
  EXPECT_EQ(speaker.peer_ids(), added);
  EXPECT_EQ(speaker.peer_config(added[1]).peer_asn, 65003u);
  EXPECT_EQ(speaker.session_state(added[2]), SessionState::kIdle);
}

TEST(Session, ZeroHoldTimeSendsNoPeriodicKeepalives) {
  // RFC 4271 §4.4: with a negotiated hold time of zero, periodic
  // KEEPALIVEs MUST NOT be sent (and no hold timer runs).
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  auto [ap, bp] = net.connect(
      a, b, {.name = "to-b", .peer_asn = 65002, .hold_time = 0},
      {.name = "to-a", .peer_asn = 65001});
  net.settle();
  ASSERT_EQ(a.session_state(ap), SessionState::kEstablished);
  ASSERT_EQ(b.session_state(bp), SessionState::kEstablished);
  // Only the KEEPALIVE that confirms the OPEN.
  EXPECT_EQ(a.peer_stats(ap).keepalives_received, 1u);
  EXPECT_EQ(b.peer_stats(bp).keepalives_received, 1u);

  net.loop.run_for(Duration::seconds(60));
  EXPECT_EQ(a.session_state(ap), SessionState::kEstablished);
  EXPECT_EQ(b.session_state(bp), SessionState::kEstablished);
  EXPECT_EQ(a.peer_stats(ap).keepalives_received, 1u);
  EXPECT_EQ(b.peer_stats(bp).keepalives_received, 1u);
}

TEST(Session, WrongAsnIsRejected) {
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  auto [ap, bp] = net.connect(a, b, {.name = "to-b", .peer_asn = 64999},
                              {.name = "to-a", .peer_asn = 65001});
  net.settle();
  EXPECT_EQ(a.session_state(ap), SessionState::kIdle);
  EXPECT_EQ(b.session_state(bp), SessionState::kIdle);
  EXPECT_GE(a.peer_stats(ap).notifications_sent, 1u);
}

TEST(Session, PropagatesOriginatedRoute) {
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  auto [ap, bp] = net.connect(
      a, b,
      {.name = "to-b", .peer_asn = 65002,
       .local_address = Ipv4Address(10, 0, 0, 1)},
      {.name = "to-a", .peer_asn = 65001,
       .local_address = Ipv4Address(10, 0, 0, 2)});
  net.settle();

  a.originate(pfx("203.0.113.0/24"), originate_attrs());
  net.settle();

  auto best = b.loc_rib().best(pfx("203.0.113.0/24"));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->attrs->as_path.flatten(), (std::vector<Asn>{65001}));
  EXPECT_EQ(best->attrs->next_hop, Ipv4Address(10, 0, 0, 1));
  (void)ap;
  (void)bp;
}

TEST(Session, RouteOriginatedBeforeEstablishmentIsSentAtStartup) {
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  a.originate(pfx("203.0.113.0/24"), originate_attrs());
  net.connect(a, b, {.name = "to-b", .peer_asn = 65002},
              {.name = "to-a", .peer_asn = 65001});
  net.settle();
  EXPECT_TRUE(b.loc_rib().best(pfx("203.0.113.0/24")).has_value());
}

TEST(Session, TransitPathAccumulatesAsns) {
  // a -> b -> c: c should see path [65002, 65001].
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  BgpSpeaker c(&net.loop, "c", 65003, Ipv4Address(3, 3, 3, 3));
  net.connect(a, b, {.name = "to-b", .peer_asn = 65002},
              {.name = "to-a", .peer_asn = 65001});
  net.connect(b, c, {.name = "to-c", .peer_asn = 65003},
              {.name = "to-b", .peer_asn = 65002});
  net.settle();
  a.originate(pfx("203.0.113.0/24"), originate_attrs());
  net.settle();
  auto best = c.loc_rib().best(pfx("203.0.113.0/24"));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->attrs->as_path.flatten(), (std::vector<Asn>{65002, 65001}));
}

TEST(Session, EbgpLoopDetectionDropsOwnAsn) {
  // c's announcements through b come back to a... a's own ASN in path.
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  net.connect(a, b, {.name = "to-b", .peer_asn = 65002},
              {.name = "to-a", .peer_asn = 65001});
  net.settle();
  // b originates a route whose path already contains 65001 (poisoned).
  PathAttributes poisoned = originate_attrs();
  poisoned.as_path = AsPath({65001});
  b.originate(pfx("198.51.100.0/24"), poisoned);
  net.settle();
  EXPECT_FALSE(a.loc_rib().best(pfx("198.51.100.0/24")).has_value());
}

TEST(Session, WithdrawPropagates) {
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  net.connect(a, b, {.name = "to-b", .peer_asn = 65002},
              {.name = "to-a", .peer_asn = 65001});
  net.settle();
  a.originate(pfx("203.0.113.0/24"), originate_attrs());
  net.settle();
  ASSERT_TRUE(b.loc_rib().best(pfx("203.0.113.0/24")).has_value());
  a.withdraw_originated(pfx("203.0.113.0/24"));
  net.settle();
  EXPECT_FALSE(b.loc_rib().best(pfx("203.0.113.0/24")).has_value());
}

TEST(Session, OnlyBestPathAdvertisedWithoutAddPath) {
  // c has two eBGP feeds of the same prefix (from a and b) and one
  // downstream d: d must see exactly one path.
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  BgpSpeaker c(&net.loop, "c", 65003, Ipv4Address(3, 3, 3, 3));
  BgpSpeaker d(&net.loop, "d", 65004, Ipv4Address(4, 4, 4, 4));
  net.connect(a, c, {.name = "to-c", .peer_asn = 65003},
              {.name = "to-a", .peer_asn = 65001});
  net.connect(b, c, {.name = "to-c", .peer_asn = 65003},
              {.name = "to-b", .peer_asn = 65002});
  auto [cd, dc] = net.connect(c, d, {.name = "to-d", .peer_asn = 65004},
                              {.name = "to-c", .peer_asn = 65003});
  net.settle();
  a.originate(pfx("203.0.113.0/24"), originate_attrs());
  b.originate(pfx("203.0.113.0/24"), originate_attrs());
  net.settle();

  EXPECT_EQ(c.loc_rib().candidates(pfx("203.0.113.0/24")).size(), 2u);
  EXPECT_EQ(d.loc_rib().candidates(pfx("203.0.113.0/24")).size(), 1u);
  (void)cd;
  (void)dc;
}

TEST(Session, AddPathExportsAllPaths) {
  // Same topology, but c -> d negotiates ADD-PATH with export_all_paths.
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  BgpSpeaker c(&net.loop, "c", 65003, Ipv4Address(3, 3, 3, 3));
  BgpSpeaker d(&net.loop, "d", 65004, Ipv4Address(4, 4, 4, 4));
  net.connect(a, c, {.name = "to-c", .peer_asn = 65003},
              {.name = "to-a", .peer_asn = 65001});
  net.connect(b, c, {.name = "to-c", .peer_asn = 65003},
              {.name = "to-b", .peer_asn = 65002});
  PeerConfig c_to_d{.name = "to-d", .peer_asn = 65004,
                    .addpath = AddPathMode::kBoth, .export_all_paths = true};
  PeerConfig d_to_c{.name = "to-c", .peer_asn = 65003,
                    .addpath = AddPathMode::kBoth};
  net.connect(c, d, std::move(c_to_d), std::move(d_to_c));
  net.settle();
  a.originate(pfx("203.0.113.0/24"), originate_attrs());
  b.originate(pfx("203.0.113.0/24"), originate_attrs());
  net.settle();

  auto cands = d.loc_rib().candidates(pfx("203.0.113.0/24"));
  EXPECT_EQ(cands.size(), 2u);
}

TEST(Session, AddPathWithdrawRemovesOnePath) {
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  BgpSpeaker c(&net.loop, "c", 65003, Ipv4Address(3, 3, 3, 3));
  BgpSpeaker d(&net.loop, "d", 65004, Ipv4Address(4, 4, 4, 4));
  net.connect(a, c, {.name = "to-c", .peer_asn = 65003},
              {.name = "to-a", .peer_asn = 65001});
  net.connect(b, c, {.name = "to-c", .peer_asn = 65003},
              {.name = "to-b", .peer_asn = 65002});
  net.connect(c, d,
              {.name = "to-d", .peer_asn = 65004,
               .addpath = AddPathMode::kBoth, .export_all_paths = true},
              {.name = "to-c", .peer_asn = 65003,
               .addpath = AddPathMode::kBoth});
  net.settle();
  a.originate(pfx("203.0.113.0/24"), originate_attrs());
  b.originate(pfx("203.0.113.0/24"), originate_attrs());
  net.settle();
  ASSERT_EQ(d.loc_rib().candidates(pfx("203.0.113.0/24")).size(), 2u);

  a.withdraw_originated(pfx("203.0.113.0/24"));
  net.settle();
  auto cands = d.loc_rib().candidates(pfx("203.0.113.0/24"));
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].attrs->as_path.flatten().back(), 65002u);
}

TEST(Session, ImplicitWithdrawReplacesRoute) {
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  net.connect(a, b, {.name = "to-b", .peer_asn = 65002},
              {.name = "to-a", .peer_asn = 65001});
  net.settle();
  PathAttributes v1 = originate_attrs();
  v1.communities = {Community(47065, 1)};
  a.originate(pfx("203.0.113.0/24"), v1);
  net.settle();
  PathAttributes v2 = originate_attrs();
  v2.communities = {Community(47065, 2)};
  a.originate(pfx("203.0.113.0/24"), v2);
  net.settle();

  auto cands = b.loc_rib().candidates(pfx("203.0.113.0/24"));
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_TRUE(cands[0].attrs->has_community(Community(47065, 2)));
}

TEST(Session, SessionDownFlushesRoutes) {
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  auto [ap, bp] = net.connect(a, b, {.name = "to-b", .peer_asn = 65002},
                              {.name = "to-a", .peer_asn = 65001});
  net.settle();
  a.originate(pfx("203.0.113.0/24"), originate_attrs());
  net.settle();
  ASSERT_TRUE(b.loc_rib().best(pfx("203.0.113.0/24")).has_value());

  a.disconnect_peer(ap);
  net.settle();
  EXPECT_EQ(b.session_state(bp), SessionState::kIdle);
  EXPECT_FALSE(b.loc_rib().best(pfx("203.0.113.0/24")).has_value());
}

TEST(Session, HoldTimerExpiresWhenPeerVanishes) {
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  auto [ap, bp] = net.connect(
      a, b, {.name = "to-b", .peer_asn = 65002, .hold_time = 9},
      {.name = "to-a", .peer_asn = 65001, .hold_time = 9});
  net.settle();
  ASSERT_EQ(a.session_state(ap), SessionState::kEstablished);

  // Silence b by swapping its stream handler to a black hole: b stops
  // sending keepalives from a's perspective after we reconnect a to a dead
  // stream... simplest: kill b's side by closing its stream without
  // session_down bookkeeping is not accessible; instead stop running b's
  // keepalives by disconnecting b and dropping the notification. We
  // approximate peer death by never delivering: close both directions.
  net.loop.run_for(Duration::seconds(1));
  b.disconnect_peer(bp);  // sends CEASE; a sees stream close
  net.settle();
  EXPECT_EQ(a.session_state(ap), SessionState::kIdle);
}

TEST(Session, MraiBatchesBursts) {
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  auto [ap, bp] = net.connect(
      a, b,
      {.name = "to-b", .peer_asn = 65002, .mrai = Duration::seconds(30)},
      {.name = "to-a", .peer_asn = 65001});
  net.settle();
  std::uint64_t baseline = a.peer_stats(ap).updates_sent;

  // Flap one prefix 10 times rapidly: with a 30s MRAI, b should see far
  // fewer than 10 updates.
  for (int i = 0; i < 10; ++i) {
    PathAttributes attrs = originate_attrs();
    attrs.med = static_cast<std::uint32_t>(i);
    a.originate(pfx("203.0.113.0/24"), attrs);
    net.loop.run_for(Duration::millis(100));
  }
  net.loop.run_for(Duration::seconds(120));
  std::uint64_t sent = a.peer_stats(ap).updates_sent - baseline;
  EXPECT_LE(sent, 3u);
  // Final state still converges to the last version.
  auto best = b.loc_rib().best(pfx("203.0.113.0/24"));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->attrs->med, 9u);
  (void)bp;
}

TEST(Session, IbgpDoesNotReExportIbgpRoutes) {
  // a --ibgp-- b --ibgp-- c (same ASN): c must NOT learn a's route via b
  // (no route reflection).
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65001, Ipv4Address(2, 2, 2, 2));
  BgpSpeaker c(&net.loop, "c", 65001, Ipv4Address(3, 3, 3, 3));
  net.connect(a, b, {.name = "to-b", .peer_asn = 65001},
              {.name = "to-a", .peer_asn = 65001});
  net.connect(b, c, {.name = "to-c", .peer_asn = 65001},
              {.name = "to-b", .peer_asn = 65001});
  net.settle();
  a.originate(pfx("203.0.113.0/24"), originate_attrs());
  net.settle();
  EXPECT_TRUE(b.loc_rib().best(pfx("203.0.113.0/24")).has_value());
  EXPECT_FALSE(c.loc_rib().best(pfx("203.0.113.0/24")).has_value());
  // iBGP preserves next-hop and does not prepend.
  auto at_b = b.loc_rib().best(pfx("203.0.113.0/24"));
  EXPECT_TRUE(at_b->attrs->as_path.flatten().empty());
  EXPECT_EQ(at_b->attrs->local_pref, 100u);
}

TEST(Session, AbruptFlapReestablishesAndResyncsAddPath) {
  // Regression for the fault-injection flap path: an abrupt transport loss
  // (stream closed under one speaker, no CEASE) leaves that speaker a
  // zombie until its hold timer expires; a later reconnect must rebuild the
  // session and re-sync the full ADD-PATH fan-out from the attribute pool's
  // cached encodings, without leaking pooled attributes.
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  BgpSpeaker c(&net.loop, "c", 65003, Ipv4Address(3, 3, 3, 3));
  BgpSpeaker d(&net.loop, "d", 65004, Ipv4Address(4, 4, 4, 4));
  net.connect(a, c, {.name = "to-c", .peer_asn = 65003},
              {.name = "to-a", .peer_asn = 65001});
  net.connect(b, c, {.name = "to-c", .peer_asn = 65003},
              {.name = "to-b", .peer_asn = 65002});
  // The c<->d transport is managed by hand so it can be yanked abruptly.
  PeerId cd = c.add_peer({.name = "to-d", .peer_asn = 65004, .hold_time = 9,
                          .addpath = AddPathMode::kBoth,
                          .export_all_paths = true});
  PeerId dc = d.add_peer({.name = "to-c", .peer_asn = 65003, .hold_time = 9,
                          .addpath = AddPathMode::kBoth});
  auto wire = sim::StreamChannel::make(&net.loop, Duration::millis(1));
  c.connect_peer(cd, wire.a);
  d.connect_peer(dc, wire.b);
  net.settle();
  a.originate(pfx("203.0.113.0/24"), originate_attrs());
  b.originate(pfx("203.0.113.0/24"), originate_attrs());
  net.settle();
  ASSERT_EQ(d.loc_rib().candidates(pfx("203.0.113.0/24")).size(), 2u);
  const std::size_t pool_before = c.attr_pool().size();

  // Yank c's own endpoint: d sees the close and drops immediately; c gets
  // no callback (a crash, not a CEASE) and must rely on its hold timer.
  wire.a->close();
  net.loop.run_for(Duration::seconds(2));
  EXPECT_EQ(c.session_state(cd), SessionState::kEstablished) << "zombie side";
  EXPECT_EQ(d.session_state(dc), SessionState::kIdle);
  EXPECT_EQ(d.loc_rib().candidates(pfx("203.0.113.0/24")).size(), 0u)
      << "session loss must flush the fan-out";

  net.loop.run_for(Duration::seconds(10));  // past the 9s hold time
  EXPECT_EQ(c.session_state(cd), SessionState::kIdle);

  // Reconnect over a fresh transport: full ADD-PATH table re-sync.
  const std::uint64_t hits_before = c.peer_stats(cd).attr_encode_cache_hits;
  wire = sim::StreamChannel::make(&net.loop, Duration::millis(1));
  c.connect_peer(cd, wire.a);
  d.connect_peer(dc, wire.b);
  net.settle();
  EXPECT_EQ(c.session_state(cd), SessionState::kEstablished);
  EXPECT_EQ(d.session_state(dc), SessionState::kEstablished);
  EXPECT_EQ(d.loc_rib().candidates(pfx("203.0.113.0/24")).size(), 2u);
  // The re-advertised paths still reference live pooled attributes, so the
  // encode cache serves them and the pool does not grow across the flap.
  EXPECT_GT(c.peer_stats(cd).attr_encode_cache_hits, hits_before);
  EXPECT_EQ(c.attr_pool().size(), pool_before);

  // Keepalives resume on the rebuilt session (hold 9 => interval 3s).
  const std::uint64_t ka_before = c.peer_stats(cd).keepalives_received;
  net.loop.run_for(Duration::seconds(10));
  EXPECT_GE(c.peer_stats(cd).keepalives_received, ka_before + 2);
}

TEST(Session, ExportPolicyFiltersPrefixes) {
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  RoutePolicy export_policy = RoutePolicy::deny_all();
  PolicyTerm allow;
  allow.match.prefix = pfx("203.0.113.0/24");
  export_policy.add_term(allow);
  PeerConfig a_cfg{.name = "to-b", .peer_asn = 65002};
  a_cfg.export_policy = export_policy;
  net.connect(a, b, std::move(a_cfg), {.name = "to-a", .peer_asn = 65001});
  net.settle();
  a.originate(pfx("203.0.113.0/24"), originate_attrs());
  a.originate(pfx("198.51.100.0/24"), originate_attrs());
  net.settle();
  EXPECT_TRUE(b.loc_rib().best(pfx("203.0.113.0/24")).has_value());
  EXPECT_FALSE(b.loc_rib().best(pfx("198.51.100.0/24")).has_value());
}

/// A scripted neighbor on a raw stream: answers the speaker's OPEN
/// (optionally offering ADD-PATH) and then sends exactly the UPDATEs a test
/// hands it, so a test picks the path ids and can repeat a message verbatim.
class RawPeer {
 public:
  RawPeer(std::shared_ptr<sim::StreamEndpoint> stream, Asn asn, bool addpath)
      : stream_(std::move(stream)) {
    stream_->on_data([this, asn, addpath](const Bytes& data) {
      decoder_.feed(data);
      while (true) {
        auto result = decoder_.poll();
        if (!result.ok() || !result->has_value()) return;
        if (auto* note = std::get_if<NotificationMessage>(&**result)) {
          notifications_.push_back(*note);
          continue;
        }
        if (!std::holds_alternative<OpenMessage>(**result)) continue;
        const auto& remote = std::get<OpenMessage>(**result);
        OpenMessage open;
        open.asn = asn;
        open.router_id = Ipv4Address(10, 9, 9, static_cast<std::uint8_t>(asn));
        open.add_four_byte_asn(asn);
        if (addpath) open.add_addpath_ipv4(AddPathMode::kBoth);
        stream_->send(encode_message(open, UpdateCodecOptions{}));
        stream_->send(encode_message(KeepaliveMessage{}, UpdateCodecOptions{}));
        tx_.add_path = addpath && remote.addpath_ipv4() != AddPathMode::kNone;
        // UPDATEs the speaker sends back are not needed; stop decoding.
        return;
      }
    });
  }

  /// Sends one UPDATE announcing (prefix, path id) entries with `attrs`.
  void announce(const std::vector<NlriEntry>& nlri, PathAttributes attrs) {
    UpdateMessage update;
    update.attributes = std::move(attrs);
    update.nlri = nlri;
    stream_->send(encode_message(update, tx_));
  }

  /// Sends bytes verbatim (a test corrupts a well-formed message first).
  void send_raw(const Bytes& wire) { stream_->send(wire); }

  /// NOTIFICATIONs received from the speaker, in arrival order.
  const std::vector<NotificationMessage>& notifications() const {
    return notifications_;
  }

 private:
  std::shared_ptr<sim::StreamEndpoint> stream_;
  MessageDecoder decoder_;
  UpdateCodecOptions tx_;
  std::vector<NotificationMessage> notifications_;
};

PathAttributes raw_attrs(Asn asn) {
  PathAttributes attrs;
  attrs.origin = Origin::kIgp;
  attrs.as_path = AsPath({asn});
  attrs.next_hop = Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(asn));
  return attrs;
}

/// A speaker fed by two raw neighbors (x offers ADD-PATH, n does not) and
/// exporting to a speaker sink, with its route events and post-policy
/// monitor records captured in order.
struct RawFeed : MonitorTap {
  using Event = std::tuple<Ipv4Prefix, std::uint32_t, PeerId, bool>;

  Net net;
  BgpSpeaker dut{&net.loop, "dut", 47065, Ipv4Address(1, 1, 1, 1)};
  BgpSpeaker sink{&net.loop, "sink", 65099, Ipv4Address(9, 9, 9, 9)};
  PeerId dut_x = 0, dut_n = 0, dut_sink = 0;
  std::unique_ptr<RawPeer> x, n;
  std::vector<Event> route_events;
  std::vector<Event> post_policy;

  RawFeed() {
    dut_x = dut.add_peer(
        {.name = "x", .peer_asn = 65010, .addpath = AddPathMode::kBoth});
    dut_n = dut.add_peer({.name = "n", .peer_asn = 65020});
    x = connect_raw(dut_x, 65010, /*addpath=*/true);
    n = connect_raw(dut_n, 65020, /*addpath=*/false);
    dut_sink = net.connect(dut, sink, {.name = "sink", .peer_asn = 65099},
                           {.name = "dut", .peer_asn = 47065})
                   .first;
    dut.on_route_event([this](const RibRoute& route, bool withdrawn) {
      route_events.emplace_back(route.prefix, route.path_id, route.peer,
                                withdrawn);
    });
    dut.set_monitor(this);
    net.settle();
  }

  std::unique_ptr<RawPeer> connect_raw(PeerId peer, Asn asn, bool addpath) {
    auto pair = sim::StreamChannel::make(&net.loop, Duration::millis(1));
    dut.connect_peer(peer, pair.a);
    return std::make_unique<RawPeer>(pair.b, asn, addpath);
  }

  std::uint64_t exports() { return dut.peer_stats(dut_sink).updates_sent; }

  void on_peer_state(PeerId, SessionState) override {}
  void on_route_pre_policy(PeerId, const NlriEntry&,
                           const AttrsPtr&) override {}
  void on_route_post_policy(const RibRoute& route, bool withdrawn) override {
    post_policy.emplace_back(route.prefix, route.path_id, route.peer,
                             withdrawn);
  }
};

TEST(RawSession, IdenticalReannouncementHasNoEffect) {
  RawFeed feed;
  ASSERT_EQ(feed.dut.session_state(feed.dut_n), SessionState::kEstablished);
  feed.n->announce({{0, pfx("203.0.113.0/24")}}, raw_attrs(65020));
  feed.net.settle();
  ASSERT_EQ(feed.route_events.size(), 1u);
  ASSERT_EQ(feed.post_policy.size(), 1u);
  ASSERT_TRUE(feed.sink.loc_rib().best(pfx("203.0.113.0/24")).has_value());
  const std::uint64_t exports = feed.exports();
  const AttrsPtr stored = feed.dut.loc_rib().best(pfx("203.0.113.0/24"))->attrs;

  feed.n->announce({{0, pfx("203.0.113.0/24")}}, raw_attrs(65020));
  feed.net.settle();
  EXPECT_EQ(feed.dut.peer_stats(feed.dut_n).updates_received, 2u);
  EXPECT_EQ(feed.route_events.size(), 1u);
  EXPECT_EQ(feed.post_policy.size(), 1u);
  EXPECT_EQ(feed.exports(), exports);
  EXPECT_EQ(feed.dut.loc_rib().best(pfx("203.0.113.0/24"))->attrs, stored);
}

TEST(RawSession, ReoriginatingAnUnchangedRouteHasNoEffect) {
  RawFeed feed;
  const std::uint64_t received = feed.sink.total_updates_received();
  feed.dut.originate(pfx("192.0.2.0/24"), originate_attrs());
  feed.net.settle();
  feed.dut.originate(pfx("192.0.2.0/24"), originate_attrs());
  feed.net.settle();
  const RawFeed::Event announced{pfx("192.0.2.0/24"), 0, kLocalRoutes, false};
  EXPECT_EQ(feed.route_events, (std::vector<RawFeed::Event>{announced}));
  EXPECT_EQ(feed.post_policy, (std::vector<RawFeed::Event>{announced}));
  EXPECT_EQ(feed.sink.total_updates_received() - received, 1u);
}

/// A speaker whose only neighbor is a raw peer; the peer sends `wire`
/// once the session is up. Returns the NOTIFICATIONs the peer received.
std::vector<NotificationMessage> notifications_after(const Bytes& wire) {
  Net net;
  BgpSpeaker dut(&net.loop, "dut", 47065, Ipv4Address(1, 1, 1, 1));
  const PeerId peer = dut.add_peer({.name = "n", .peer_asn = 65020});
  auto pair = sim::StreamChannel::make(&net.loop, Duration::millis(1));
  dut.connect_peer(peer, pair.a);
  RawPeer raw(pair.b, 65020, /*addpath=*/false);
  net.settle();
  EXPECT_EQ(dut.session_state(peer), SessionState::kEstablished);
  raw.send_raw(wire);
  net.settle();
  EXPECT_EQ(dut.session_state(peer), SessionState::kIdle);
  return raw.notifications();
}

TEST(RawSession, BadMarkerIsAMessageHeaderError) {
  Bytes wire = encode_message(KeepaliveMessage{}, UpdateCodecOptions{});
  wire[0] = 0;
  const auto notes = notifications_after(wire);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].code, NotificationCode::kMessageHeaderError);
  EXPECT_EQ(notes[0].subcode, 1);  // Connection Not Synchronized
}

TEST(RawSession, BadOriginIsAnUpdateMessageError) {
  UpdateMessage update;
  update.attributes = raw_attrs(65020);
  update.nlri = {{0, pfx("203.0.113.0/24")}};
  Bytes wire = encode_message(update, UpdateCodecOptions{});
  // Header (19), withdrawn and attribute lengths (2 + 2), then ORIGIN's
  // flags, type and length: its value is byte 26.
  ASSERT_EQ(wire[24], 1);
  wire[26] = 5;
  const auto notes = notifications_after(wire);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].code, NotificationCode::kUpdateMessageError);
  EXPECT_EQ(notes[0].subcode, 6);  // Invalid ORIGIN Attribute
}

/// `wire` cut to `size` bytes, with its header length saying so.
Bytes truncated(Bytes wire, std::size_t size) {
  wire.resize(size);
  wire[16] = static_cast<std::uint8_t>(size >> 8);
  wire[17] = static_cast<std::uint8_t>(size);
  return wire;
}

TEST(RawSession, TruncatedOpenIsABadMessageLength) {
  OpenMessage open;
  open.asn = 65020;
  // 5 body bytes: shorter than OPEN's fixed part (RFC 4271 §6.1).
  const auto notes = notifications_after(
      truncated(encode_message(open, UpdateCodecOptions{}), 19 + 5));
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].code, NotificationCode::kMessageHeaderError);
  EXPECT_EQ(notes[0].subcode, 2);  // Bad Message Length
}

TEST(RawSession, TruncatedOpenParameterIsAnUnspecificOpenError) {
  OpenMessage open;
  open.asn = 65020;
  open.add_four_byte_asn(65020);
  Bytes wire = encode_message(open, UpdateCodecOptions{});
  // The capability's last value byte is cut: the parameters run short.
  const auto notes = notifications_after(truncated(wire, wire.size() - 1));
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].code, NotificationCode::kOpenMessageError);
  EXPECT_EQ(notes[0].subcode, 0);  // Unspecific
}

TEST(RawSession, TruncatedAttributeHeaderIsAMalformedAttributeList) {
  // Marker; length 24, UPDATE, no withdrawals, then a 1-byte attribute
  // block holding only an attribute's flags.
  Bytes wire(16, 0xff);
  for (std::uint8_t b : {0, 24, 2, 0, 0, 0, 1, 0x40}) wire.push_back(b);
  const auto notes = notifications_after(wire);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].code, NotificationCode::kUpdateMessageError);
  EXPECT_EQ(notes[0].subcode, 1);  // Malformed Attribute List
}

TEST(RawSession, ImportPolicyRejectWithdrawsAcceptedPath) {
  RawFeed feed;
  feed.n->announce({{0, pfx("203.0.113.0/24")}}, raw_attrs(65020));
  feed.net.settle();
  ASSERT_TRUE(feed.sink.loc_rib().best(pfx("203.0.113.0/24")).has_value());
  const std::uint64_t exports = feed.exports();

  PolicyTerm reject;
  reject.match.prefix = pfx("203.0.113.0/24");
  reject.actions.deny = true;
  feed.dut.peer_config(feed.dut_n).import_policy.add_term(reject);
  feed.n->announce({{0, pfx("203.0.113.0/24")}}, raw_attrs(65020));
  feed.net.settle();

  const RawFeed::Event withdrawn{pfx("203.0.113.0/24"), 0, feed.dut_n, true};
  ASSERT_EQ(feed.route_events.size(), 2u);
  EXPECT_EQ(feed.route_events.back(), withdrawn);
  ASSERT_EQ(feed.post_policy.size(), 2u);
  EXPECT_EQ(feed.post_policy.back(), withdrawn);
  EXPECT_EQ(feed.dut.peer_stats(feed.dut_n).routes_rejected_import, 1u);
  EXPECT_TRUE(feed.dut.loc_rib().candidates(pfx("203.0.113.0/24")).empty());
  EXPECT_EQ(feed.dut.adj_rib_in(feed.dut_n).size(), 0u);
  EXPECT_GT(feed.exports(), exports);
  EXPECT_FALSE(feed.sink.loc_rib().best(pfx("203.0.113.0/24")).has_value());
}

TEST(RawSession, AddPathResetWithdrawsInPrefixPathIdOrder) {
  RawFeed feed;
  const Ipv4Prefix a = pfx("198.51.100.0/24");
  const Ipv4Prefix b = pfx("203.0.113.0/24");
  // x's path ids arrive out of (prefix, path id) order; n holds a
  // candidate on both prefixes.
  feed.x->announce({{7, b}, {9, a}}, raw_attrs(65010));
  feed.n->announce({{0, a}, {0, b}}, raw_attrs(65020));
  feed.x->announce({{3, b}, {2, a}}, raw_attrs(65010));
  feed.net.settle();
  ASSERT_EQ(feed.dut.loc_rib().candidates(a).size(), 3u);
  ASSERT_EQ(feed.dut.loc_rib().candidates(b).size(), 3u);

  EXPECT_EQ(feed.dut.adj_rib_in(feed.dut_x).size(), 4u);

  feed.route_events.clear();
  feed.post_policy.clear();
  feed.dut.disconnect_peer(feed.dut_x);
  feed.net.settle();

  const std::vector<RawFeed::Event> want{{a, 2, feed.dut_x, true},
                                         {a, 9, feed.dut_x, true},
                                         {b, 3, feed.dut_x, true},
                                         {b, 7, feed.dut_x, true}};
  EXPECT_EQ(feed.post_policy, want);
  EXPECT_EQ(feed.route_events, want);
  // n's candidates survive and are now the best paths.
  EXPECT_EQ(feed.dut.loc_rib().route_count(), 2u);
  EXPECT_EQ(feed.dut.loc_rib().best(a)->peer, feed.dut_n);
  EXPECT_EQ(feed.dut.loc_rib().best(b)->peer, feed.dut_n);
  EXPECT_EQ(feed.dut.adj_rib_in(feed.dut_x).size(), 0u);
  EXPECT_EQ(feed.dut.adj_rib_in(feed.dut_n).size(), 2u);
}

TEST(Session, PeerRouteGaugeTracksLocRibCandidates) {
  Net net;
  BgpSpeaker a(&net.loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&net.loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  BgpSpeaker c(&net.loop, "c", 65003, Ipv4Address(3, 3, 3, 3));
  auto [ab, ba] = net.connect(a, b, {.name = "to-b", .peer_asn = 65002},
                              {.name = "to-a", .peer_asn = 65001});
  auto [cb, bc] = net.connect(c, b, {.name = "to-b", .peer_asn = 65002},
                              {.name = "to-c", .peer_asn = 65003});
  (void)cb;
  net.settle();
  for (int i = 0; i < 3; ++i)
    a.originate(
        Ipv4Prefix(Ipv4Address(198, 51, static_cast<std::uint8_t>(i), 0), 24),
        originate_attrs());
  c.originate(pfx("198.51.0.0/24"), originate_attrs());
  net.settle();

  auto check = [&](std::size_t want_a, std::size_t want_c) {
    obs::Registry registry;
    b.publish_metrics(registry);
    std::size_t from_a = 0, from_c = 0;
    b.loc_rib().visit_all([&](const RibRoute& route) {
      if (route.peer == ba) ++from_a;
      if (route.peer == bc) ++from_c;
    });
    EXPECT_EQ(from_a, want_a);
    EXPECT_EQ(from_c, want_c);
    auto gauge = [&](const char* peer) {
      return registry
          .gauge("bgp_peer_adj_rib_in_routes",
                 {{"speaker", "b"}, {"peer", peer}})
          ->value();
    };
    EXPECT_EQ(gauge("to-a"), static_cast<std::int64_t>(from_a));
    EXPECT_EQ(gauge("to-c"), static_cast<std::int64_t>(from_c));
    EXPECT_EQ(b.adj_rib_in(ba).size(), from_a);
    EXPECT_EQ(b.adj_rib_in(bc).size(), from_c);
  };
  check(3, 1);  // announce

  a.withdraw_originated(pfx("198.51.1.0/24"));
  net.settle();
  check(2, 1);  // withdraw

  a.disconnect_peer(ab);
  net.settle();
  check(0, 1);  // flap: down
  auto pair = sim::StreamChannel::make(&net.loop, Duration::millis(1));
  a.connect_peer(ab, pair.a);
  b.connect_peer(ba, pair.b);
  net.settle();
  ASSERT_EQ(b.session_state(ba), SessionState::kEstablished);
  check(2, 1);  // flap: back up
}

}  // namespace
}  // namespace peering::bgp

// Update-group export path: fingerprint-based clustering, splice-at-send,
// per-member encode-cache crediting, flap/rejoin resync from the group
// delta log, the grouped-vs-ungrouped wire-byte differential that pins
// the whole refactor to the per-peer reference semantics, and the
// speaker's determinism contract (same-seed replay, event-granularity
// drain, delta-log overflow resync).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bgp/message.h"
#include "bgp/speaker.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/stream.h"
#include "vbgp/communities.h"
#include "vbgp/vrouter.h"

namespace peering::bgp {
namespace {

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }

/// Speaks just enough BGP to bring the hub's session to Established and
/// records every byte the hub sends, so two runs can be compared at the
/// wire level. It can also speak on its own: announce routes (the hub then
/// sees routes originated by a group member) and ask for a ROUTE-REFRESH.
class RecordingPeer {
 public:
  RecordingPeer(std::shared_ptr<sim::StreamEndpoint> stream, Asn asn,
                Ipv4Address router_id, bool addpath)
      : asn_(asn), router_id_(router_id), addpath_(addpath) {
    bind(std::move(stream));
  }

  /// Attaches to a (new) transport, e.g. after a session flap. Recording
  /// continues into the same buffer.
  void bind(std::shared_ptr<sim::StreamEndpoint> stream) {
    stream_ = std::move(stream);
    decoder_ = MessageDecoder();
    stream_->on_data([this](const Bytes& data) {
      wire_.insert(wire_.end(), data.begin(), data.end());
      decoder_.feed(data);
      while (true) {
        auto result = decoder_.poll();
        if (!result.ok() || !result->has_value()) return;
        if (std::holds_alternative<OpenMessage>(**result)) {
          OpenMessage open;
          open.asn = asn_;
          open.router_id = router_id_;
          open.add_four_byte_asn(asn_);
          if (addpath_) open.add_addpath_ipv4(AddPathMode::kBoth);
          UpdateCodecOptions options;
          stream_->send(encode_message(open, options));
          stream_->send(encode_message(KeepaliveMessage{}, options));
        }
      }
    });
  }

  /// Sends `message` to the hub with the codec options the session
  /// negotiated (4-byte ASNs; path ids when ADD-PATH).
  void send(const BgpMessage& message) {
    UpdateCodecOptions options;
    options.add_path = addpath_;
    stream_->send(encode_message(message, options));
  }

  /// Everything received from the hub, in order, since session start.
  const Bytes& wire() const { return wire_; }

 private:
  Asn asn_;
  Ipv4Address router_id_;
  bool addpath_;
  std::shared_ptr<sim::StreamEndpoint> stream_;
  MessageDecoder decoder_;
  Bytes wire_;
};

struct Hub {
  sim::EventLoop loop;
  BgpSpeaker speaker;
  std::vector<std::unique_ptr<RecordingPeer>> recorders;
  std::vector<PeerId> peers;

  explicit Hub(bool group_exports = true)
      : Hub(PipelineConfig{.group_exports = group_exports}) {}
  explicit Hub(PipelineConfig pipeline)
      : speaker(&loop, "hub", 65000, Ipv4Address(1, 1, 1, 1), pipeline) {}

  /// Adds one recorded session; `config.peer_asn` names the recorder ASN.
  PeerId attach(PeerConfig config, bool peer_addpath = false) {
    const Asn asn = config.peer_asn;
    PeerId peer = speaker.add_peer(std::move(config));
    auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
    speaker.connect_peer(peer, streams.a);
    recorders.push_back(std::make_unique<RecordingPeer>(
        streams.b, asn, Ipv4Address(9, 9, 0, static_cast<std::uint8_t>(asn)),
        peer_addpath));
    peers.push_back(peer);
    return peer;
  }

  /// Brings the i-th attached session back up on a fresh transport.
  void reconnect(std::size_t i) {
    auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
    speaker.connect_peer(peers[i], streams.a);
    recorders[i]->bind(streams.b);
  }

  void settle(Duration d = Duration::seconds(5)) { loop.run_for(d); }

  /// Paths the hub advertises to `peer` for `prefix`.
  std::size_t out_paths(PeerId peer, const Ipv4Prefix& prefix) const {
    const auto out = speaker.adj_rib_out(peer);
    return static_cast<std::size_t>(
        std::count_if(out.begin(), out.end(),
                      [&](const auto& e) { return e.prefix == prefix; }));
  }
};

PathAttributes attrs_with(std::uint32_t community_value) {
  PathAttributes attrs;
  attrs.origin = Origin::kIgp;
  attrs.next_hop = Ipv4Address(10, 0, 0, 1);
  attrs.communities.push_back(Community(65000, community_value));
  return attrs;
}

TEST(UpdateGroup, AddPathAndPlainNeverShareGroup) {
  Hub hub;
  PeerId plain_a = hub.attach({.name = "pa", .peer_asn = 64011,
                               .local_address = Ipv4Address(10, 1, 0, 1)});
  PeerId plain_b = hub.attach({.name = "pb", .peer_asn = 64012,
                               .local_address = Ipv4Address(10, 2, 0, 1)});
  PeerId ap_a = hub.attach({.name = "aa", .peer_asn = 64013,
                            .local_address = Ipv4Address(10, 3, 0, 1),
                            .addpath = AddPathMode::kBoth},
                           /*peer_addpath=*/true);
  PeerId ap_b = hub.attach({.name = "ab", .peer_asn = 64014,
                            .local_address = Ipv4Address(10, 4, 0, 1),
                            .addpath = AddPathMode::kBoth},
                           /*peer_addpath=*/true);
  hub.settle();

  ASSERT_NE(hub.speaker.export_group_of(plain_a), 0u);
  ASSERT_NE(hub.speaker.export_group_of(ap_a), 0u);
  // Same policy, same MRAI class: the plain pair shares and the ADD-PATH
  // pair shares, but negotiated capabilities keep the two apart.
  EXPECT_EQ(hub.speaker.export_group_of(plain_a),
            hub.speaker.export_group_of(plain_b));
  EXPECT_EQ(hub.speaker.export_group_of(ap_a),
            hub.speaker.export_group_of(ap_b));
  EXPECT_NE(hub.speaker.export_group_of(plain_a),
            hub.speaker.export_group_of(ap_a));
}

TEST(UpdateGroup, MraiClassBoundsGroupMembership) {
  Hub hub;
  PeerId fast_a = hub.attach({.name = "fa", .peer_asn = 64021,
                              .local_address = Ipv4Address(10, 1, 0, 1)});
  PeerId slow_a = hub.attach({.name = "sa", .peer_asn = 64022,
                              .local_address = Ipv4Address(10, 2, 0, 1),
                              .mrai = Duration::seconds(30)});
  PeerId slow_b = hub.attach({.name = "sb", .peer_asn = 64023,
                              .local_address = Ipv4Address(10, 3, 0, 1),
                              .mrai = Duration::seconds(30)});
  hub.settle();

  ASSERT_NE(hub.speaker.export_group_of(fast_a), 0u);
  // Different MRAI classes flush on different cadences: a shared group
  // would force one member's batching onto the other.
  EXPECT_NE(hub.speaker.export_group_of(fast_a),
            hub.speaker.export_group_of(slow_a));
  EXPECT_EQ(hub.speaker.export_group_of(slow_a),
            hub.speaker.export_group_of(slow_b));
}

TEST(UpdateGroup, ReevaluateExportsRefingerprintsAfterPolicyChange) {
  Hub hub;
  PeerId a = hub.attach({.name = "a", .peer_asn = 64031,
                         .local_address = Ipv4Address(10, 1, 0, 1)});
  PeerId b = hub.attach({.name = "b", .peer_asn = 64032,
                         .local_address = Ipv4Address(10, 2, 0, 1)});
  hub.settle();
  ASSERT_EQ(hub.speaker.export_group_of(a), hub.speaker.export_group_of(b));

  hub.speaker.originate(pfx("203.0.113.0/24"), attrs_with(1));
  hub.speaker.originate(pfx("198.51.100.0/24"), attrs_with(2));
  hub.settle();

  // Tighten b's export policy in place. Regression: reevaluate_exports
  // must re-fingerprint — keeping b in the old group would keep serving it
  // adverts evaluated under a's policy.
  hub.speaker.peer_config(b).export_policy = RoutePolicy::deny_all().add_term(
      {.name = "only-203",
       .match = {.prefix = pfx("203.0.113.0/24")},
       .actions = {},
       .final_term = true});
  hub.speaker.reevaluate_exports(b);
  hub.settle();

  EXPECT_NE(hub.speaker.export_group_of(a), hub.speaker.export_group_of(b));
  EXPECT_EQ(hub.out_paths(a, pfx("198.51.100.0/24")), 1u);
  // The policy change takes effect: the denied prefix is withdrawn.
  EXPECT_EQ(hub.out_paths(b, pfx("198.51.100.0/24")), 0u);
  EXPECT_EQ(hub.out_paths(b, pfx("203.0.113.0/24")), 1u);

  // And the move is reversible: restoring the policy rejoins a's group.
  hub.speaker.peer_config(b).export_policy = RoutePolicy::accept_all();
  hub.speaker.reevaluate_exports(b);
  hub.settle();
  EXPECT_EQ(hub.speaker.export_group_of(a), hub.speaker.export_group_of(b));
  EXPECT_EQ(hub.out_paths(b, pfx("198.51.100.0/24")), 1u);
}

/// Order-independent digest of a speaker's Loc-RIB. Excludes the next-hop:
/// two sessions of the same hub legitimately see different ones (each
/// session's local address).
std::vector<std::string> rib_digest(const LocRib& rib) {
  std::vector<std::string> out;
  rib.visit_all([&](const RibRoute& route) {
    std::ostringstream line;
    line << route.prefix.str() << " peer=" << route.peer
         << " comms=" << route.attrs->communities.size();
    out.push_back(line.str());
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(UpdateGroup, FlapRejoinResyncsFromGroupLog) {
  sim::EventLoop loop;
  BgpSpeaker hub(&loop, "hub", 65000, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&loop, "b", 64041, Ipv4Address(2, 2, 2, 2));
  BgpSpeaker c(&loop, "c", 64042, Ipv4Address(3, 3, 3, 3));

  auto connect = [&](BgpSpeaker& other, PeerId hub_peer, PeerId other_peer) {
    auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
    hub.connect_peer(hub_peer, streams.a);
    other.connect_peer(other_peer, streams.b);
  };
  PeerId hb = hub.add_peer({.name = "b", .peer_asn = 64041,
                            .local_address = Ipv4Address(10, 1, 0, 1)});
  PeerId bh = b.add_peer({.name = "hub", .peer_asn = 65000,
                          .local_address = Ipv4Address(10, 1, 0, 2)});
  PeerId hc = hub.add_peer({.name = "c", .peer_asn = 64042,
                            .local_address = Ipv4Address(10, 2, 0, 1)});
  PeerId ch = c.add_peer({.name = "hub", .peer_asn = 65000,
                          .local_address = Ipv4Address(10, 2, 0, 2)});
  connect(b, hb, bh);
  connect(c, hc, ch);
  loop.run_for(Duration::seconds(5));
  ASSERT_EQ(hub.session_state(hb), SessionState::kEstablished);
  ASSERT_EQ(hub.session_state(hc), SessionState::kEstablished);
  ASSERT_EQ(hub.export_group_of(hb), hub.export_group_of(hc));

  for (int i = 0; i < 5; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(100 + i);
    cidr += ".0.0/16";
    hub.originate(pfx(cidr), attrs_with(static_cast<std::uint32_t>(i)));
  }
  loop.run_for(Duration::seconds(5));
  ASSERT_EQ(rib_digest(c.loc_rib()), rib_digest(b.loc_rib()));

  // c flaps: its membership is dropped and the group's delta log keeps
  // moving without it.
  hub.disconnect_peer(hc);
  loop.run_for(Duration::seconds(2));
  EXPECT_EQ(hub.export_group_of(hc), 0u);
  hub.withdraw_originated(pfx("10.100.0.0/16"));
  hub.originate(pfx("10.200.0.0/16"), attrs_with(99));
  loop.run_for(Duration::seconds(5));

  // Rejoin on a fresh transport: the stale cursor forces a full resync,
  // after which c converges to exactly b's view.
  auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
  hub.connect_peer(hc, streams.a);
  c.connect_peer(ch, streams.b);
  loop.run_for(Duration::seconds(5));
  ASSERT_EQ(hub.session_state(hc), SessionState::kEstablished);
  EXPECT_EQ(hub.export_group_of(hc), hub.export_group_of(hb));
  EXPECT_EQ(rib_digest(c.loc_rib()), rib_digest(b.loc_rib()));

  // Post-rejoin deltas flow through the shared log again.
  hub.originate(pfx("10.201.0.0/16"), attrs_with(100));
  loop.run_for(Duration::seconds(5));
  EXPECT_EQ(rib_digest(c.loc_rib()), rib_digest(b.loc_rib()));
  EXPECT_EQ(c.loc_rib().prefix_count(), 6u);
}

TEST(UpdateGroup, EncodeCacheCreditingConsistentWithPool) {
  Hub hub;
  std::vector<PeerId> members;
  for (int i = 0; i < 3; ++i) {
    std::string member_name = "m";
    member_name += std::to_string(i);
    members.push_back(hub.attach(
        {.name = member_name,
         .peer_asn = static_cast<Asn>(64051 + i),
         .local_address = Ipv4Address(10, static_cast<std::uint8_t>(i + 1), 0,
                                      1)}));
  }
  hub.settle();
  ASSERT_EQ(hub.speaker.export_group_of(members[0]),
            hub.speaker.export_group_of(members[2]));

  const AttrPool::Stats before = hub.speaker.attr_pool().stats();
  // Five routes over two distinct attribute sets: two shared templates.
  for (int i = 0; i < 5; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(50 + i);
    cidr += ".0.0/16";
    hub.speaker.originate(pfx(cidr),
                          attrs_with(static_cast<std::uint32_t>(i % 2)));
  }
  hub.settle();
  const AttrPool::Stats after = hub.speaker.attr_pool().stats();

  // The serial warm-up encodes each distinct (template, options) once; the
  // members' sends then splice the cached bytes, so every member send is
  // credited as a hit and the pool's miss count stays at the template
  // count — not the send count.
  EXPECT_EQ(after.encode_misses - before.encode_misses, 2u);
  for (PeerId m : members) {
    const PeerStats& stats = hub.speaker.peer_stats(m);
    EXPECT_EQ(stats.attr_encode_cache_hits, 5u) << "member " << m;
  }
  // Per-member crediting and the pool's own counters describe the same
  // traffic: hub-side hits are member sends plus warm-up re-encounters.
  const std::uint64_t member_hits = 3u * 5u;
  EXPECT_GE(member_hits + (after.encode_misses - before.encode_misses),
            15u);
}

/// Counts UPDATE-bearing stream deliveries (ISSUE 10: MRAI withdrawal
/// coalescing). Every flush is one stream send per peer, so a delivery that
/// decodes to >= 1 UPDATE is one flush as seen from the wire; the recorder
/// tallies the announced and withdrawn NLRI it carried.
class FlushRecorder {
 public:
  FlushRecorder(std::shared_ptr<sim::StreamEndpoint> stream, Asn asn)
      : stream_(std::move(stream)) {
    stream_->on_data([this, asn](const Bytes& data) {
      decoder_.feed(data);
      std::size_t updates = 0, announced = 0, withdrawn = 0;
      while (true) {
        auto result = decoder_.poll();
        if (!result.ok() || !result->has_value()) break;
        if (std::holds_alternative<OpenMessage>(**result)) {
          OpenMessage open;
          open.asn = asn;
          open.router_id = Ipv4Address(9, 9, 0, 9);
          open.add_four_byte_asn(asn);
          UpdateCodecOptions options;
          stream_->send(encode_message(open, options));
          stream_->send(encode_message(KeepaliveMessage{}, options));
        } else if (std::holds_alternative<UpdateMessage>(**result)) {
          const auto& update = std::get<UpdateMessage>(**result);
          ++updates;
          announced += update.nlri.size();
          withdrawn += update.withdrawn.size();
        }
      }
      if (updates > 0)
        deliveries_.push_back({updates, announced, withdrawn});
    });
  }

  struct Delivery {
    std::size_t updates, announced, withdrawn;
  };
  const std::vector<Delivery>& deliveries() const { return deliveries_; }

 private:
  std::shared_ptr<sim::StreamEndpoint> stream_;
  MessageDecoder decoder_;
  std::vector<Delivery> deliveries_;
};

TEST(UpdateGroup, MraiCoalescesMixedBurstIntoOneSendPerPeer) {
  // The registry must exist before the speaker so the flush histogram is
  // captured.
  obs::Registry registry;
  obs::Scope scope(&registry);
  sim::EventLoop loop;
  BgpSpeaker hub(&loop, "hub", 65000, Ipv4Address(1, 1, 1, 1));

  constexpr int kPeers = 3;
  const Duration mrai = Duration::seconds(10);
  std::vector<std::unique_ptr<FlushRecorder>> recorders;
  for (int i = 0; i < kPeers; ++i) {
    std::string peer_name = "w";
    peer_name += std::to_string(i);
    PeerId peer = hub.add_peer(
        {.name = peer_name,
         .peer_asn = static_cast<Asn>(64081 + i),
         .local_address =
             Ipv4Address(10, static_cast<std::uint8_t>(i + 1), 0, 1),
         .mrai = mrai});
    auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
    hub.connect_peer(peer, streams.a);
    recorders.push_back(std::make_unique<FlushRecorder>(
        streams.b, static_cast<Asn>(64081 + i)));
  }
  loop.run_for(Duration::seconds(5));

  // Steps sim time until every recorder has seen `n` UPDATE-bearing
  // deliveries; the step is small, so once this returns the last flush just
  // fired and a fresh MRAI window is known to be (almost) fully open.
  auto wait_for_deliveries = [&](std::size_t n) {
    for (int step = 0; step < 120; ++step) {
      bool done = true;
      for (const auto& recorder : recorders)
        done = done && recorder->deliveries().size() >= n;
      if (done) return true;
      loop.run_for(Duration::millis(500));
    }
    return false;
  };

  // Seed the table.
  for (int i = 0; i < 6; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(120 + i);
    cidr += ".0.0/16";
    hub.originate(pfx(cidr), attrs_with(0));
  }
  ASSERT_TRUE(wait_for_deliveries(1));
  for (const auto& recorder : recorders) {
    ASSERT_EQ(recorder->deliveries().size(), 1u);
    EXPECT_EQ(recorder->deliveries()[0].announced, 6u);
  }

  // A window opener: one change, wait for its flush — from here the MRAI
  // hold-down is freshly armed.
  hub.originate(pfx("10.130.0.0/16"), attrs_with(3));
  ASSERT_TRUE(wait_for_deliveries(2));
  const obs::Snapshot before = registry.snapshot(loop.now());
  const obs::SeriesData* batch_before =
      before.find("bgp_mrai_flush_batch", {{"speaker", "hub"}});
  ASSERT_NE(batch_before, nullptr);

  // A mixed burst inside the hold-down: new announcements, withdrawals of
  // live prefixes, and a replace of a survivor. Everything must wait for
  // the window and leave in ONE coalesced send per peer, withdrawals
  // included — not an UPDATE trickle per change.
  for (int i = 0; i < 4; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(140 + i);
    cidr += ".0.0/16";
    hub.originate(pfx(cidr), attrs_with(1));
  }
  hub.withdraw_originated(pfx("10.120.0.0/16"));
  hub.withdraw_originated(pfx("10.121.0.0/16"));
  hub.withdraw_originated(pfx("10.122.0.0/16"));
  hub.originate(pfx("10.125.0.0/16"), attrs_with(2));
  loop.run_for(Duration::seconds(1));
  // Still inside the window: nothing new on any wire.
  for (const auto& recorder : recorders)
    EXPECT_EQ(recorder->deliveries().size(), 2u);

  loop.run_for(Duration::seconds(30));
  for (std::size_t i = 0; i < recorders.size(); ++i) {
    const auto& deliveries = recorders[i]->deliveries();
    ASSERT_EQ(deliveries.size(), 3u)
        << "peer " << i << ": burst was not coalesced into one send";
    EXPECT_EQ(deliveries[2].announced, 5u) << "peer " << i;
    EXPECT_EQ(deliveries[2].withdrawn, 3u) << "peer " << i;
  }

  // The flush-batch histogram agrees with the wire: the burst was one
  // drain event (count +1) flushing all three same-class members (sum +3).
  obs::Snapshot after = registry.snapshot(loop.now());
  const obs::SeriesData* batch_after =
      after.find("bgp_mrai_flush_batch", {{"speaker", "hub"}});
  ASSERT_NE(batch_after, nullptr);
  EXPECT_EQ(batch_after->count - batch_before->count, 1u);
  EXPECT_EQ(batch_after->sum - batch_before->sum,
            static_cast<double>(kPeers));
}

/// One scripted scenario: a hub with a heterogeneous set of recorded
/// sessions and a seeded random feed of announcements and withdrawals.
/// Returns per-recorder wire bytes plus hub-side observables.
struct ScenarioResult {
  std::vector<Bytes> wires;
  std::vector<PeerStats> stats;
  std::vector<std::string> rib;
  std::uint64_t updates_sent = 0;
  std::size_t groups = 0;
  /// Export-filter calls per session, in attach order.
  std::vector<std::uint64_t> filter_calls;
  /// bgp_export_subgroup_splits_total by reason label.
  std::map<std::string, std::int64_t> splits;
  /// bgp_export_member_encodes_total by mode, and bgp_export_subgroups.
  std::int64_t shared_encodes = 0;
  std::int64_t own_encodes = 0;
  std::int64_t subgroups = 0;
};

const char* const kSplitReasons[] = {"window", "split_horizon", "filter",
                                     "next_hop", "refresh"};

/// Fills `result` from a finished run of the speaker named "hub".
void collect(const BgpSpeaker& speaker,
             const std::vector<std::unique_ptr<RecordingPeer>>& recorders,
             const std::vector<PeerId>& peers, const obs::Snapshot& snap,
             ScenarioResult& result) {
  for (const auto& recorder : recorders)
    result.wires.push_back(recorder->wire());
  for (PeerId peer : peers) result.stats.push_back(speaker.peer_stats(peer));
  result.rib = rib_digest(speaker.loc_rib());
  result.updates_sent = speaker.total_updates_sent();
  result.groups = speaker.export_group_count();
  for (const char* reason : kSplitReasons)
    result.splits[reason] =
        snap.value("bgp_export_subgroup_splits_total",
                   {{"speaker", "hub"}, {"reason", reason}});
  result.shared_encodes = snap.value("bgp_export_member_encodes_total",
                                     {{"speaker", "hub"}, {"mode", "shared"}});
  result.own_encodes = snap.value("bgp_export_member_encodes_total",
                                  {{"speaker", "hub"}, {"mode", "own"}});
  result.subgroups = snap.value("bgp_export_subgroups", {{"speaker", "hub"}});
}

/// A route-server-style session: transparent, ADD-PATH, all paths — the
/// shape whose members share one subgroup until something sets one apart.
PeerConfig rs_session(const std::string& name, Asn asn) {
  return {.name = name,
          .peer_asn = asn,
          .local_address = Ipv4Address(10, 9, 0, 1),
          .addpath = AddPathMode::kBoth,
          .export_all_paths = true,
          .transparent = true};
}

/// An UPDATE a recorded member sends to the hub for `prefix`.
UpdateMessage member_announce(const Ipv4Prefix& prefix, Asn asn,
                              std::uint32_t community) {
  UpdateMessage update;
  PathAttributes attrs = attrs_with(community);
  attrs.as_path = AsPath({asn});
  attrs.next_hop = Ipv4Address(10, 99, 0, static_cast<std::uint8_t>(asn));
  update.attributes = attrs;
  update.nlri.push_back({1, prefix});
  return update;
}

ScenarioResult run_scenario(PipelineConfig pipeline, std::uint64_t seed) {
  obs::Registry registry;
  obs::Scope scope(&registry);
  std::map<PeerId, std::uint64_t> filter_calls;
  Hub hub(pipeline);
  hub.attach({.name = "plain1", .peer_asn = 64061,
              .local_address = Ipv4Address(10, 1, 0, 1)});
  hub.attach({.name = "plain2", .peer_asn = 64062,
              .local_address = Ipv4Address(10, 2, 0, 1)});
  hub.attach({.name = "ap1", .peer_asn = 64063,
              .local_address = Ipv4Address(10, 3, 0, 1),
              .addpath = AddPathMode::kBoth},
             /*peer_addpath=*/true);
  hub.attach({.name = "ap2", .peer_asn = 64064,
              .local_address = Ipv4Address(10, 4, 0, 1),
              .addpath = AddPathMode::kBoth},
             /*peer_addpath=*/true);
  hub.attach({.name = "slow", .peer_asn = 64065,
              .local_address = Ipv4Address(10, 5, 0, 1),
              .mrai = Duration::seconds(20)});
  hub.attach({.name = "transp", .peer_asn = 64066,
              .local_address = Ipv4Address(10, 6, 0, 1),
              .transparent = true});
  hub.attach(
      {.name = "filtered", .peer_asn = 64067,
       .local_address = Ipv4Address(10, 7, 0, 1),
       .export_policy = RoutePolicy::accept_all().add_term(
           {.name = "no-odd",
            .match = {.any_community = {Community(65000, 1)}},
            .actions = {.deny = true},
            .final_term = true})});
  // The split triggers. plain1/plain2 above share a subgroup until the
  // first advert carries each one's own next-hop. slow2 shares slow's MRAI
  // class and router address (one address on an IXP LAN), so the two share
  // until slow2's own announcement puts them on different windows. rs1-rs6
  // start as one subgroup: rs1 and rs2 announce the same prefix (split
  // horizon), rs4 is the one member the export filter treats differently,
  // rs3 asks for a ROUTE-REFRESH, and rs6 flaps and rejoins mid-churn.
  const std::size_t slow2 = hub.peers.size();
  hub.attach({.name = "slow2", .peer_asn = 64068,
              .local_address = Ipv4Address(10, 5, 0, 1),
              .mrai = Duration::seconds(20)});
  const std::size_t rs1 = hub.peers.size();
  for (int i = 0; i < 6; ++i)
    hub.attach(rs_session("rs" + std::to_string(i + 1),
                          static_cast<Asn>(64071 + i)),
               /*peer_addpath=*/true);
  const PeerId rs4 = hub.peers[rs1 + 3];
  hub.speaker.set_export_filter(
      [&filter_calls, rs4](PeerId to, const PathAttributes& source) {
        ++filter_calls[to];
        return to != rs4 || !source.has_community(Community(65000, 2));
      });
  hub.settle();

  // Before any other route exists, rs1 and rs2 announce the same prefix
  // back to back: every member resyncs in one batch whose window holds
  // adverts from two rs members.
  hub.recorders[rs1]->send(member_announce(pfx("10.91.0.0/16"), 64071, 7));
  hub.recorders[rs1 + 1]->send(
      member_announce(pfx("10.91.0.0/16"), 64072, 7));
  hub.settle();

  // Seeded churn: announce/withdraw random prefixes drawn from a small
  // space so re-announcements, implicit replaces, and withdrawals all
  // occur, with attribute sets drawn from a handful of shared shapes.
  std::mt19937_64 rng(seed);
  std::vector<Ipv4Prefix> space;
  for (int i = 0; i < 32; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(16 + i);
    cidr += ".0.0/16";
    space.push_back(pfx(cidr));
  }
  std::vector<bool> live(space.size(), false);
  for (int round = 0; round < 6; ++round) {
    if (round == 1)
      hub.recorders[slow2]->send(
          member_announce(pfx("10.90.0.0/16"), 64068, 7));
    if (round == 3) hub.recorders[rs1 + 2]->send(RouteRefreshMessage{});
    if (round == 3) hub.speaker.disconnect_peer(hub.peers[rs1 + 5]);
    if (round == 4) hub.reconnect(rs1 + 5);
    for (int step = 0; step < 12; ++step) {
      const std::size_t slot = rng() % space.size();
      if (live[slot] && rng() % 4 == 0) {
        hub.speaker.withdraw_originated(space[slot]);
        live[slot] = false;
      } else {
        hub.speaker.originate(space[slot],
                              attrs_with(static_cast<std::uint32_t>(rng() % 3)));
        live[slot] = true;
      }
    }
    hub.settle(Duration::seconds(7));
  }
  hub.settle(Duration::seconds(30));

  ScenarioResult result;
  collect(hub.speaker, hub.recorders, hub.peers,
          registry.snapshot(hub.loop.now()), result);
  for (PeerId peer : hub.peers)
    result.filter_calls.push_back(filter_calls[peer]);
  return result;
}

/// Grouped and ungrouped runs of one scenario must agree on every byte
/// each session received and on everything the sessions' stats count.
void expect_wire_identical(const ScenarioResult& grouped,
                           const ScenarioResult& ungrouped,
                           const std::string& what) {
  ASSERT_EQ(grouped.wires.size(), ungrouped.wires.size()) << what;
  for (std::size_t i = 0; i < grouped.wires.size(); ++i)
    EXPECT_EQ(grouped.wires[i], ungrouped.wires[i])
        << what << ": session " << i << " received different bytes";
  EXPECT_EQ(grouped.rib, ungrouped.rib) << what;
  EXPECT_EQ(grouped.updates_sent, ungrouped.updates_sent) << what;
  EXPECT_EQ(grouped.filter_calls, ungrouped.filter_calls) << what;
  for (std::size_t i = 0; i < grouped.stats.size(); ++i) {
    EXPECT_EQ(grouped.stats[i].updates_sent, ungrouped.stats[i].updates_sent)
        << what << ": session " << i;
    EXPECT_EQ(grouped.stats[i].attr_encode_cache_hits,
              ungrouped.stats[i].attr_encode_cache_hits)
        << what << ": session " << i;
  }
  // Sharing actually happened in the grouped run: fewer groups than
  // sessions.
  EXPECT_LT(grouped.groups, ungrouped.groups) << what;
}

/// vBGP at one PoP: recorded neighbor sessions feed a seeded table and
/// churn to recorded ADD-PATH experiment sessions. With `announce`, some
/// experiments also announce /24s with whitelist/blacklist communities, so
/// the neighbors' export filter decides per member.
struct VbgpResult : ScenarioResult {
  std::vector<std::size_t> experiment_subgroups;
  std::size_t experiment_paths = 0;
  std::int64_t adj_out_paths = 0;
  std::int64_t fanout_exports = 0;
};

VbgpResult run_vbgp_scenario(bool group_exports, std::uint64_t seed,
                             int neighbors, int experiments, bool announce) {
  obs::Registry registry;
  obs::Scope scope(&registry);
  sim::EventLoop loop;
  vbgp::VRouter router(&loop, {.name = "hub",
                               .pop_id = "pop",
                               .asn = 47065,
                               .router_id = Ipv4Address(10, 255, 0, 1),
                               .router_seed = 1,
                               .pipeline = {.group_exports = group_exports}});
  std::vector<std::unique_ptr<RecordingPeer>> recorders;
  std::vector<PeerId> peers;
  auto record = [&](PeerId peer, Asn asn, bool addpath) {
    auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
    router.speaker().connect_peer(peer, streams.a);
    recorders.push_back(std::make_unique<RecordingPeer>(
        streams.b, asn, Ipv4Address(9, 9, static_cast<std::uint8_t>(asn >> 8),
                                    static_cast<std::uint8_t>(asn)),
        addpath));
    peers.push_back(peer);
  };
  // The neighbors sit on one IXP LAN: one router address, so only the
  // export filter can set one apart from the others.
  std::vector<std::uint16_t> local_ids;
  for (int n = 0; n < neighbors; ++n) {
    const auto octet = static_cast<std::uint8_t>(n + 2);
    const Asn asn = 65001 + static_cast<Asn>(n);
    PeerId peer = router.add_neighbor(
        {.name = "n" + std::to_string(n), .asn = asn,
         .local_address = Ipv4Address(10, 0, 0, 1),
         .remote_address = Ipv4Address(10, 0, 0, octet), .interface = 0,
         .global_id = static_cast<std::uint32_t>(n + 1)});
    local_ids.push_back(router.registry().by_peer(peer)->local_id);
    record(peer, asn, /*addpath=*/false);
  }
  for (int e = 0; e < experiments; ++e) {
    const auto octet = static_cast<std::uint8_t>(e);
    const Asn asn = 61574 + static_cast<Asn>(e);
    PeerId peer = router.add_experiment(
        {.experiment_id = "x" + std::to_string(e), .asn = asn,
         .local_address = Ipv4Address(100, 64, octet, 1),
         .remote_address = Ipv4Address(100, 64, octet, 2),
         .interface = 100 + e});
    record(peer, asn, /*addpath=*/true);
  }
  loop.run_for(Duration::seconds(5));

  std::mt19937_64 rng(seed);
  auto neighbor_update = [&](int n, const Ipv4Prefix& prefix, bool withdraw) {
    UpdateMessage update;
    if (withdraw) {
      update.withdrawn.push_back({0, prefix});
    } else {
      PathAttributes attrs;
      attrs.origin = Origin::kIgp;
      attrs.as_path = AsPath({65001 + static_cast<Asn>(n),
                              static_cast<Asn>(3356 + rng() % 3)});
      attrs.next_hop = Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(n + 2));
      if (rng() % 2 == 0) attrs.med = static_cast<std::uint32_t>(rng() % 4);
      update.attributes = attrs;
      update.nlri.push_back({0, prefix});
    }
    recorders[static_cast<std::size_t>(n)]->send(update);
  };
  std::vector<Ipv4Prefix> space;
  for (int i = 0; i < 48; ++i)
    space.push_back(Ipv4Prefix(
        Ipv4Address(192, 168, static_cast<std::uint8_t>(i), 0), 24));
  for (const Ipv4Prefix& prefix : space)
    for (int n = 0; n < neighbors; ++n)
      if (rng() % 4 != 0) neighbor_update(n, prefix, false);
  loop.run_for(Duration::seconds(5));

  for (int round = 0; round < 5; ++round) {
    for (int step = 0; step < 16; ++step) {
      const auto n =
          static_cast<int>(rng() % static_cast<std::uint64_t>(neighbors));
      neighbor_update(n, space[rng() % space.size()], rng() % 4 == 0);
    }
    if (announce) {
      // An experiment announces (or withdraws) its /24 with a whitelist,
      // a blacklist, or no control community; the first announcement is
      // whitelisted to one neighbor.
      const int e = static_cast<int>(rng() % static_cast<std::uint64_t>(
                                              std::min(experiments, 6)));
      const Ipv4Prefix prefix(
          Ipv4Address(184, 164, static_cast<std::uint8_t>(224 + e), 0), 24);
      UpdateMessage update;
      if (round > 0 && rng() % 4 == 0) {
        update.withdrawn.push_back({1, prefix});
      } else {
        PathAttributes attrs;
        attrs.origin = Origin::kIgp;
        attrs.as_path = AsPath({61574 + static_cast<Asn>(e)});
        attrs.next_hop = Ipv4Address(100, 64, static_cast<std::uint8_t>(e), 2);
        const std::uint16_t target = local_ids[rng() % local_ids.size()];
        switch (round == 0 ? 0 : rng() % 3) {
          case 0:
            attrs.communities.push_back(vbgp::announce_to(target));
            break;
          case 1:
            attrs.communities.push_back(vbgp::no_announce_to(target));
            break;
          default:
            break;
        }
        update.attributes = attrs;
        update.nlri.push_back({1, prefix});
      }
      recorders[static_cast<std::size_t>(neighbors + e)]->send(update);
    }
    loop.run_for(Duration::seconds(3));
  }
  loop.run_for(Duration::seconds(10));

  VbgpResult result;
  const BgpSpeaker& speaker = router.speaker();
  const obs::Snapshot snap = registry.snapshot(loop.now());
  collect(speaker, recorders, peers, snap, result);
  const auto first_experiment = static_cast<std::size_t>(neighbors);
  for (std::size_t i = first_experiment; i < peers.size(); ++i)
    result.experiment_subgroups.push_back(
        speaker.export_subgroup_size(peers[i]));
  result.experiment_paths =
      speaker.adj_rib_out(peers[first_experiment]).size();
  result.adj_out_paths = snap.value("bgp_adj_out_paths", {{"speaker", "hub"}});
  result.fanout_exports = snap.total("vbgp_addpath_fanout_exports_total");
  return result;
}

TEST(UpdateGroup, GroupedAndUngroupedAreWireIdentical) {
  for (std::uint64_t seed : {41ull, 97ull, 1234ull}) {
    const std::string what = "seed " + std::to_string(seed);
    ScenarioResult grouped = run_scenario({}, seed);
    ScenarioResult ungrouped = run_scenario({.group_exports = false}, seed);
    expect_wire_identical(grouped, ungrouped, what);
    // Every split trigger fired in the grouped run; the ungrouped run has
    // nothing to split.
    for (const char* reason : kSplitReasons) {
      EXPECT_GT(grouped.splits[reason], 0) << what << ": " << reason;
      EXPECT_EQ(ungrouped.splits[reason], 0) << what << ": " << reason;
    }

    // vBGP: experiments announcing with whitelist/blacklist communities make
    // the neighbors' export decisions member-dependent.
    VbgpResult vgrouped =
        run_vbgp_scenario(true, seed, 4, 8, /*announce=*/true);
    VbgpResult vungrouped =
        run_vbgp_scenario(false, seed, 4, 8, /*announce=*/true);
    expect_wire_identical(vgrouped, vungrouped, "vbgp " + what);
    EXPECT_EQ(vgrouped.fanout_exports, vungrouped.fanout_exports) << what;
    // The control communities did set neighbors apart: not every neighbor
    // received the same stream.
    const std::set<Bytes> neighbor_streams(vgrouped.wires.begin(),
                                           vgrouped.wires.begin() + 4);
    EXPECT_GT(neighbor_streams.size(), 1u) << what;
  }
}

TEST(UpdateGroup, ThirtyTwoExperimentsShareOneAdjRibOut) {
  constexpr int kExperiments = 32;
  VbgpResult grouped = run_vbgp_scenario(true, 7, 4, kExperiments, false);
  VbgpResult ungrouped = run_vbgp_scenario(false, 7, 4, kExperiments, false);
  expect_wire_identical(grouped, ungrouped, "32 experiments");
  // One subgroup holds every experiment, and its one table holds one
  // member's paths: the ungrouped run stores 31 more copies.
  for (int e = 0; e < kExperiments; ++e) {
    EXPECT_EQ(grouped.experiment_subgroups[e], 32u) << "experiment " << e;
    EXPECT_EQ(ungrouped.experiment_subgroups[e], 1u) << "experiment " << e;
  }
  ASSERT_GT(grouped.experiment_paths, 0u);
  EXPECT_EQ(grouped.experiment_paths, ungrouped.experiment_paths);
  EXPECT_EQ(ungrouped.adj_out_paths - grouped.adj_out_paths,
            static_cast<std::int64_t>(31 * grouped.experiment_paths));
  // Every member still counts its own fan-out export and its own stats.
  EXPECT_EQ(grouped.fanout_exports, ungrouped.fanout_exports);
  EXPECT_GT(grouped.shared_encodes, 0);
  EXPECT_EQ(ungrouped.shared_encodes, 0);
  // With a single neighbor (never due: every change is its own) every
  // member encode is an experiment's, and 31 of every 32 are shared.
  VbgpResult single = run_vbgp_scenario(true, 7, 1, kExperiments, false);
  ASSERT_GT(single.own_encodes, 0);
  EXPECT_EQ(single.shared_encodes, 31 * single.own_encodes);
  for (std::size_t i = 0; i < grouped.stats.size(); ++i) {
    EXPECT_EQ(grouped.stats[i].updates_sent, ungrouped.stats[i].updates_sent);
    EXPECT_EQ(grouped.stats[i].updates_received,
              ungrouped.stats[i].updates_received);
    EXPECT_EQ(grouped.stats[i].attr_encode_cache_hits,
              ungrouped.stats[i].attr_encode_cache_hits);
  }
}

/// The drain's sharing counters, pinned exactly. Which class of a unit
/// takes the copy-on-write copy of a shared table decides which split
/// reason counts it, so a change to the encode walk's order can move these
/// numbers while every wire byte stays the same.
TEST(UpdateGroup, DrainSharingCountersArePinned) {
  const ScenarioResult mixed = run_scenario({}, 41);
  EXPECT_EQ(mixed.shared_encodes, 13);
  EXPECT_EQ(mixed.own_encodes, 89);
  EXPECT_EQ(mixed.splits.at("window"), 1);
  EXPECT_EQ(mixed.splits.at("split_horizon"), 2);
  EXPECT_EQ(mixed.splits.at("filter"), 1);
  EXPECT_EQ(mixed.splits.at("next_hop"), 2);
  EXPECT_EQ(mixed.splits.at("refresh"), 1);
  EXPECT_EQ(mixed.subgroups, 14);

  // The ThirtyTwoExperimentsShareOneAdjRibOut run.
  const VbgpResult vbgp = run_vbgp_scenario(true, 7, 4, 32, false);
  EXPECT_EQ(vbgp.shared_encodes, 189);
  EXPECT_EQ(vbgp.own_encodes, 27);
  for (const char* reason : kSplitReasons)
    EXPECT_EQ(vbgp.splits.at(reason), 0) << reason;
  EXPECT_EQ(vbgp.subgroups, 2);
}

/// Within a unit, classes form in peer order and the first class takes
/// the second class's reason, so the reason each copy of the shared table
/// counts under follows peer order. Four members resync from
/// empty tables in one drain, which gives them one table; m0 and m1
/// announce the prefix that drain carries and m2's filter drops it, so the
/// same drain splits the unit into four classes.
TEST(UpdateGroup, SplitReasonsFollowPeerOrderWithinAUnit) {
  obs::Registry registry;
  obs::Scope scope(&registry);
  Hub hub;
  for (int i = 0; i < 4; ++i)
    hub.attach(rs_session("m" + std::to_string(i), static_cast<Asn>(64081 + i)),
               /*peer_addpath=*/true);
  const PeerId m2 = hub.peers[2];
  hub.speaker.set_export_filter([m2](PeerId to, const PathAttributes& source) {
    return to != m2 || !source.has_community(Community(65000, 2));
  });
  hub.settle();

  hub.recorders[0]->send(member_announce(pfx("10.92.0.0/16"), 64081, 2));
  hub.recorders[1]->send(member_announce(pfx("10.92.0.0/16"), 64082, 2));
  hub.settle();
  // m0 first: m1 differs from it by split horizon, so m0, m1 and m3 each
  // copy under that reason; m2 sends nothing and keeps the original. In
  // the reverse order the second class would be m2's, and m3's copy would
  // count as filter.
  const obs::Snapshot snap = registry.snapshot(hub.loop.now());
  auto splits = [&](const char* reason) {
    return snap.value("bgp_export_subgroup_splits_total",
                      {{"speaker", "hub"}, {"reason", reason}});
  };
  EXPECT_EQ(splits("split_horizon"), 3);
  EXPECT_EQ(splits("filter"), 0);
  EXPECT_EQ(splits("window"), 0);
  for (PeerId peer : hub.peers)
    EXPECT_EQ(hub.speaker.export_subgroup_size(peer), 1u) << "peer " << peer;
}

/// Members of one subgroup whose cursors fall off the trimmed delta log
/// together resync in one window: the resync list depends only on the
/// Loc-RIB and the table they share, so the table gets one walk, one
/// encode, and stays one subgroup.
TEST(UpdateGroup, LogTrimResyncKeepsTheSubgroup) {
  obs::Registry registry;
  obs::Scope scope(&registry);
  Hub hub(PipelineConfig{.peer_queue_capacity = 2});
  for (int i = 0; i < 3; ++i)
    hub.attach(rs_session("rs" + std::to_string(i), static_cast<Asn>(64091 + i)),
               /*peer_addpath=*/true);
  hub.speaker.originate(pfx("10.80.0.0/16"), attrs_with(1));
  hub.settle();
  ASSERT_EQ(hub.speaker.export_subgroup_size(hub.peers[0]), 3u);

  // Six originations at one instant overrun the two-entry log.
  for (std::uint32_t i = 0; i < 6; ++i)
    hub.speaker.originate(pfx("10.81." + std::to_string(i) + ".0/24"),
                          attrs_with(2 + i));
  hub.settle();
  const obs::Snapshot snap = registry.snapshot(hub.loop.now());
  EXPECT_EQ(snap.value("bgp_export_full_resyncs_total",
                       {{"speaker", "hub"}, {"reason", "log_trim"}}),
            3);
  EXPECT_EQ(snap.value("bgp_export_subgroup_splits_total",
                       {{"speaker", "hub"}, {"reason", "window"}}),
            0);
  for (PeerId peer : hub.peers)
    EXPECT_EQ(hub.speaker.export_subgroup_size(peer), 3u) << "peer " << peer;
  // The same bytes each member received when every member resynced in a
  // window of its own.
  for (const auto& recorder : hub.recorders) {
    EXPECT_EQ(recorder->wire(), hub.recorders[0]->wire());
    EXPECT_EQ(recorder->wire().size(), 427u);
  }
}

/// The source-driven hook must be wire-equivalent to a general export hook
/// that only rewrites the next-hop, on transparent sessions (where the
/// standard transform leaves the template untouched — vBGP's experiment
/// fan-out shape).
ScenarioResult run_hook_scenario(bool source_driven) {
  Hub hub;
  constexpr std::uint64_t kClass = 7;
  const Ipv4Address vnh(100, 65, 0, 1);
  if (source_driven) {
    hub.speaker.set_source_export_hook(
        kClass, [vnh](const RibRoute&) { return vnh; });
  } else {
    hub.speaker.set_export_hook(
        [&hub, vnh](PeerId, const RibRoute&,
                    const AttrsPtr& attrs) -> std::optional<AttrsPtr> {
          PathAttributes rewritten = *attrs;
          rewritten.next_hop = vnh;
          return hub.speaker.attr_pool().intern(std::move(rewritten));
        });
  }
  for (int i = 0; i < 2; ++i) {
    std::string peer_name = "x";
    peer_name += std::to_string(i);
    hub.attach(
        {.name = peer_name,
         .peer_asn = static_cast<Asn>(64071 + i),
         .local_address = Ipv4Address(10, static_cast<std::uint8_t>(i + 1), 0,
                                      1),
         .addpath = AddPathMode::kBoth,
         .export_all_paths = true,
         .transparent = true,
         .export_class = kClass},
        /*peer_addpath=*/true);
  }
  hub.settle();

  for (int i = 0; i < 4; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(80 + i);
    cidr += ".0.0/16";
    hub.speaker.originate(pfx(cidr), attrs_with(static_cast<std::uint32_t>(i)));
  }
  hub.settle();
  hub.speaker.withdraw_originated(pfx("10.81.0.0/16"));
  hub.settle();

  ScenarioResult result;
  for (const auto& recorder : hub.recorders)
    result.wires.push_back(recorder->wire());
  for (PeerId peer : hub.peers)
    result.stats.push_back(hub.speaker.peer_stats(peer));
  result.groups = hub.speaker.export_group_count();
  return result;
}

TEST(UpdateGroup, SourceDrivenHookMatchesGeneralHookOnWire) {
  ScenarioResult with_source = run_hook_scenario(/*source_driven=*/true);
  ScenarioResult with_general = run_hook_scenario(/*source_driven=*/false);

  ASSERT_EQ(with_source.wires.size(), with_general.wires.size());
  for (std::size_t i = 0; i < with_source.wires.size(); ++i)
    EXPECT_EQ(with_source.wires[i], with_general.wires[i])
        << "session " << i << " received different bytes";
  // The source-driven class shares one group across both sessions.
  EXPECT_EQ(with_source.groups, 1u);
}

/// Under the export contract a hook never pins its peer: class-0 eBGP
/// peers with equal export identity share one group and one template
/// whose placeholder next-hop each member splices at send time.
TEST(UpdateGroup, ClassZeroPeersShareAGroupUnderAHook) {
  obs::Registry registry;
  obs::Scope scope(&registry);
  Hub hub;
  hub.speaker.set_export_hook(
      [](PeerId, const RibRoute&,
         const AttrsPtr& attrs) -> std::optional<AttrsPtr> { return attrs; });
  PeerId a = hub.attach({.name = "a", .peer_asn = 64011,
                         .local_address = Ipv4Address(10, 1, 0, 1)});
  PeerId b = hub.attach({.name = "b", .peer_asn = 64012,
                         .local_address = Ipv4Address(10, 2, 0, 1)});
  hub.settle();
  hub.speaker.originate(pfx("10.80.0.0/16"), attrs_with(1));
  hub.settle();

  ASSERT_NE(hub.speaker.export_group_of(a), 0u);
  EXPECT_EQ(hub.speaker.export_group_of(a), hub.speaker.export_group_of(b));
  EXPECT_EQ(hub.speaker.export_group_count(), 1u);
  EXPECT_GT(registry.snapshot(hub.loop.now())
                .total("bgp_export_group_splices_total"),
            0);
  // Each member still sees its own address as the next-hop.
  for (PeerId peer : {a, b}) {
    auto out = hub.speaker.adj_rib_out(peer);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].next_hop, hub.speaker.peer_config(peer).local_address);
  }
}

// ---------------------------------------------------------------------------
// Determinism contract of the speaker: same-seed replay, event-granularity
// drain, and delta-log overflow.
// ---------------------------------------------------------------------------

PathAttributes attrs_from(Asn asn, std::uint8_t hop) {
  PathAttributes attrs;
  attrs.origin = Origin::kIgp;
  attrs.as_path = AsPath({asn});
  attrs.next_hop = Ipv4Address(10, 0, hop, 2);
  return attrs;
}

/// A wire-driven scenario: two feeders announce overlapping tables into the
/// speaker under test, which re-advertises to a sink; then one feeder flaps
/// (withdraw + re-announce) and one session is torn down. Everything is
/// observable: telemetry registry, event trace, final RIBs.
struct Replay {
  obs::Registry registry{true};
  obs::Scope scope{&registry};
  sim::EventLoop loop;
  BgpSpeaker dut, f1, f2, sink;
  PeerId dut_f1, dut_f2, dut_sink;
  PeerId f1_dut, f2_dut, sink_dut;

  explicit Replay(PipelineConfig pipeline)
      : dut(&loop, "dut", 47065, Ipv4Address(1, 1, 1, 1), pipeline),
        f1(&loop, "f1", 65001, Ipv4Address(2, 2, 2, 1)),
        f2(&loop, "f2", 65002, Ipv4Address(2, 2, 2, 2)),
        sink(&loop, "sink", 65099, Ipv4Address(9, 9, 9, 9)) {
    registry.trace().set_capacity(1 << 14);
    auto connect = [this](BgpSpeaker& a, BgpSpeaker& b, PeerConfig ac,
                          PeerConfig bc) {
      PeerId ap = a.add_peer(std::move(ac));
      PeerId bp = b.add_peer(std::move(bc));
      auto pair = sim::StreamChannel::make(&loop, Duration::millis(1));
      a.connect_peer(ap, pair.a);
      b.connect_peer(bp, pair.b);
      return std::make_pair(ap, bp);
    };
    std::tie(dut_f1, f1_dut) = connect(
        dut, f1,
        {.name = "f1", .peer_asn = 65001,
         .local_address = Ipv4Address(10, 0, 1, 1),
         .peer_address = Ipv4Address(10, 0, 1, 2)},
        {.name = "dut", .peer_asn = 47065,
         .local_address = Ipv4Address(10, 0, 1, 2),
         .peer_address = Ipv4Address(10, 0, 1, 1)});
    std::tie(dut_f2, f2_dut) = connect(
        dut, f2,
        {.name = "f2", .peer_asn = 65002,
         .local_address = Ipv4Address(10, 0, 2, 1),
         .peer_address = Ipv4Address(10, 0, 2, 2)},
        {.name = "dut", .peer_asn = 47065,
         .local_address = Ipv4Address(10, 0, 2, 2),
         .peer_address = Ipv4Address(10, 0, 2, 1)});
    std::tie(dut_sink, sink_dut) = connect(
        dut, sink,
        {.name = "sink", .peer_asn = 65099,
         .local_address = Ipv4Address(10, 0, 3, 1),
         .peer_address = Ipv4Address(10, 0, 3, 2),
         .mrai = Duration::seconds(5)},
        {.name = "dut", .peer_asn = 47065,
         .local_address = Ipv4Address(10, 0, 3, 2),
         .peer_address = Ipv4Address(10, 0, 3, 1)});
  }

  void run() {
    loop.run_for(Duration::seconds(5));
    // Both feeders announce 64 prefixes; 32 overlap, so the decision
    // process has real tie-breaks to run.
    for (int i = 0; i < 64; ++i) {
      Ipv4Prefix p(Ipv4Address(100, 64, static_cast<std::uint8_t>(i), 0), 24);
      f1.originate(p, attrs_from(64500, 1));
      if (i >= 32)
        f2.originate(p, attrs_from(64501, 2));
      else
        f2.originate(
            Ipv4Prefix(Ipv4Address(100, 65, static_cast<std::uint8_t>(i), 0),
                       24),
            attrs_from(64501, 2));
    }
    loop.run_for(Duration::seconds(30));
    // Flap half of f1's table.
    for (int i = 0; i < 32; ++i)
      f1.withdraw_originated(
          Ipv4Prefix(Ipv4Address(100, 64, static_cast<std::uint8_t>(i), 0),
                     24));
    loop.run_for(Duration::seconds(10));
    for (int i = 0; i < 32; ++i)
      f1.originate(
          Ipv4Prefix(Ipv4Address(100, 64, static_cast<std::uint8_t>(i), 0),
                     24),
          attrs_from(64502, 1));
    loop.run_for(Duration::seconds(30));
    // Tear one feeder down: exercises adj-in clear + mass withdraw.
    f2.disconnect_peer(f2_dut);
    loop.run_for(Duration::seconds(30));
  }

  /// Every observable output of the run, serialized. The only excluded
  /// series is the bgp_pipeline_* family — wall-clock stage timings and
  /// drain depths, not behavior.
  std::string fingerprint() {
    std::ostringstream out;
    out << "== locrib ==\n";
    for (const BgpSpeaker* s : {&dut, &f1, &f2, &sink}) {
      out << s->name() << ":\n";
      s->loc_rib().visit_all([&](const RibRoute& route) {
        out << "  " << route.prefix.str() << " peer=" << route.peer
            << " path=" << route.path_id << " nh="
            << route.attrs->next_hop.str() << " aspath=";
        for (Asn a : route.attrs->as_path.flatten()) out << a << ",";
        out << "\n";
      });
    }
    out << "== stats ==\n";
    for (BgpSpeaker* s : {&dut, &f1, &f2, &sink}) {
      out << s->name() << " rx=" << s->total_updates_received()
          << " tx=" << s->total_updates_sent() << "\n";
      for (PeerId p : s->peer_ids()) {
        const PeerStats& st = s->peer_stats(p);
        out << "  peer" << p << " in=" << st.updates_received
            << " out=" << st.updates_sent
            << " rej=" << st.routes_rejected_import
            << " hits=" << st.attr_encode_cache_hits << "\n";
      }
    }
    out << "== trace ==\n" << registry.trace().to_jsonl();
    out << "== snapshot ==\n";
    std::istringstream snap(registry.snapshot(loop.now()).to_json());
    std::string line;
    while (std::getline(snap, line)) {
      if (line.find("bgp_pipeline_") != std::string::npos) continue;
      out << line << "\n";
    }
    return out.str();
  }
};

TEST(PipelineDeterminism, SameSeedReplayIsByteIdentical) {
  Replay a(PipelineConfig{});
  a.run();
  Replay b(PipelineConfig{});
  b.run();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(PipelineDeterminism, BarrierDrainsWithinTheDeliveryEvent) {
  // The message path decides each route where it is decoded, within the
  // delivery event: an event scheduled immediately after a delivery
  // observes the fully applied Loc-RIB, never a partly applied UPDATE.
  Replay net(PipelineConfig{});
  net.loop.run_for(Duration::seconds(5));
  net.f1.originate(pfx("203.0.113.0/24"), attrs_from(64500, 1));
  bool checked = false;
  // Poll at fine granularity, from just after the origination until the
  // dut's Loc-RIB holds the route.
  std::function<void()> poll = [&] {
    if (net.dut.loc_rib().best(pfx("203.0.113.0/24"))) checked = true;
    if (!checked) net.loop.schedule_after(Duration::micros(100), poll);
  };
  net.loop.schedule_after(Duration::micros(100), poll);
  net.loop.run_for(Duration::seconds(10));
  EXPECT_TRUE(checked);
  ASSERT_TRUE(net.dut.loc_rib().best(pfx("203.0.113.0/24")).has_value());
}

TEST(PipelineDeterminism, ExportQueueOverflowFallsBackToFullResync) {
  // A tiny per-peer export bound forces the overflow path: the delta log
  // is dropped and the next flush reevaluates the whole table. The sink
  // must still converge to the complete table.
  Replay small(PipelineConfig{.peer_queue_capacity = 4});
  small.run();
  Replay big(PipelineConfig{.peer_queue_capacity = 1 << 16});
  big.run();
  // Final RIB state matches; wire-level churn may differ (a full resync
  // re-sends nothing thanks to pointer-identity diffing, so even the
  // update counts should match — but only RIB equality is contractual).
  std::size_t small_count = 0, big_count = 0;
  small.sink.loc_rib().visit_best([&](const RibRoute&) { ++small_count; });
  big.sink.loc_rib().visit_best([&](const RibRoute&) { ++big_count; });
  EXPECT_EQ(small_count, big_count);
  EXPECT_GT(small_count, 0u);
  small.sink.loc_rib().visit_best([&](const RibRoute& route) {
    EXPECT_TRUE(big.sink.loc_rib().best(route.prefix).has_value());
  });
}

}  // namespace
}  // namespace peering::bgp

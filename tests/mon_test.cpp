// Monitoring-plane tests: the BMP-style MonitorSession's determinism
// contract (same-seed streams byte-identical across replays), the
// canonical record ordering on session teardown, stats reports, the
// looking glass, propagation tracing, the station's index over its
// sessions, the collector archive bound, and
// the obs-side failure modes a monitoring feed can trigger (label
// cardinality overflow, trace-ring wraparound).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/speaker.h"
#include "mon/looking_glass.h"
#include "mon/monitor.h"
#include "mon/propagation.h"
#include "obs/metrics.h"
#include "platform/collector.h"
#include "sim/event_loop.h"
#include "sim/stream.h"

namespace peering::mon {
namespace {

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }

bgp::PathAttributes attrs_from(bgp::Asn asn, std::uint8_t hop) {
  bgp::PathAttributes attrs;
  attrs.origin = bgp::Origin::kIgp;
  attrs.as_path = bgp::AsPath({asn});
  attrs.next_hop = Ipv4Address(10, 0, hop, 2);
  return attrs;
}

/// Two feeders -> monitored dut -> MRAI-paced sink, with a full monitoring
/// plane attached: session + station + tracer + stats reports.
struct Replay {
  obs::Registry registry{true};
  obs::Scope scope{&registry};
  sim::EventLoop loop;
  bgp::BgpSpeaker dut, f1, f2, sink;
  bgp::PeerId dut_f1 = 0, dut_f2 = 0, dut_sink = 0;
  bgp::PeerId f1_dut = 0, f2_dut = 0, sink_dut = 0;
  MonitoringStation station;
  PropagationTracer tracer;
  std::unique_ptr<MonitorSession> monitor;

  Replay()
      : dut(&loop, "dut", 47065, Ipv4Address(1, 1, 1, 1)),
        f1(&loop, "f1", 65001, Ipv4Address(2, 2, 2, 1)),
        f2(&loop, "f2", 65002, Ipv4Address(2, 2, 2, 2)),
        sink(&loop, "sink", 65099, Ipv4Address(9, 9, 9, 9)) {
    registry.trace().set_capacity(1 << 14);
    auto connect = [this](bgp::BgpSpeaker& a, bgp::BgpSpeaker& b,
                          bgp::PeerConfig ac, bgp::PeerConfig bc) {
      bgp::PeerId ap = a.add_peer(std::move(ac));
      bgp::PeerId bp = b.add_peer(std::move(bc));
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
    monitor = std::make_unique<MonitorSession>(&loop, &dut);
    monitor->set_station(&station);
    monitor->set_tracer(&tracer);
    monitor->enable_stats_reports(Duration::seconds(20));
  }

  void run() {
    loop.run_for(Duration::seconds(5));
    for (int i = 0; i < 64; ++i) {
      Ipv4Prefix p(Ipv4Address(100, 64, static_cast<std::uint8_t>(i), 0), 24);
      tracer.stamp_origin(p, loop.now());
      f1.originate(p, attrs_from(64500, 1));
      if (i >= 32) {
        f2.originate(p, attrs_from(64501, 2));
      } else {
        Ipv4Prefix q(Ipv4Address(100, 65, static_cast<std::uint8_t>(i), 0),
                     24);
        tracer.stamp_origin(q, loop.now());
        f2.originate(q, attrs_from(64501, 2));
      }
    }
    loop.run_for(Duration::seconds(30));
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
    f2.disconnect_peer(f2_dut);
    loop.run_for(Duration::seconds(30));
  }

  /// Everything the monitoring plane renders for this run.
  std::string monitoring_fingerprint() {
    std::ostringstream out;
    out << "== station ==\n" << station.to_jsonl();
    out << "== session ==\n" << monitor->to_jsonl();
    Bytes stream = monitor->encode();
    out << "== binary " << stream.size() << " bytes ==\n";
    for (std::uint8_t b : stream)
      out << static_cast<int>(b) << ',';
    out << "\n== looking glass ==\n";
    LookingGlass glass(&dut);
    out << glass.query("lpm 100.64.40.1");
    out << glass.query("explain 100.64.40.0/24");
    out << glass.query("adj-in f1");
    out << glass.query("adj-out sink");
    out << "== tracer ==\n"
        << tracer.locrib_samples() << ' ' << tracer.stamped_count() << '\n';
    return out.str();
  }
};

TEST(MonitorStream, SameSeedReplayIsByteIdentical) {
  Replay first;
  first.run();
  std::string reference = first.monitoring_fingerprint();
  ASSERT_FALSE(reference.empty());
  EXPECT_GT(first.station.record_count(), 0u);
  EXPECT_EQ(first.monitor->dropped(), 0u);

  Replay second;
  second.run();
  EXPECT_EQ(second.monitoring_fingerprint(), reference)
      << "same-seed replay diverged from the first monitor stream";
}

TEST(MonitorStream, SessionDownEmitsWithdrawsBeforePeerDown) {
  Replay replay;
  replay.run();  // ends with f2 torn down

  // Find the f2 peer-down record; every f2-originated route must have a
  // post-policy withdraw at an earlier sequence number.
  const auto& records = replay.monitor->records();
  std::uint64_t peer_down_seq = 0;
  std::size_t withdraws_before = 0;
  for (const auto& record : records) {
    if (record.type == RecordType::kPeerDown &&
        record.peer == replay.dut_f2) {
      peer_down_seq = record.seq;
      break;
    }
  }
  ASSERT_NE(peer_down_seq, 0u);
  for (const auto& record : records) {
    if (record.type == RecordType::kRouteMonitoring && record.post_policy &&
        record.withdrawn && record.peer == replay.dut_f2) {
      EXPECT_LT(record.seq, peer_down_seq);
      ++withdraws_before;
    }
  }
  EXPECT_GE(withdraws_before, 64u);  // f2's full table
}

TEST(MonitorStream, StatsReportsRenderSpeakerMetrics) {
  Replay replay;
  replay.run();
  std::size_t reports = 0;
  for (const auto& record : replay.monitor->records()) {
    if (record.type != RecordType::kStatsReport) continue;
    ++reports;
    EXPECT_NE(record.info.find("adj_in="), std::string::npos);
    EXPECT_NE(record.info.find("keepalives="), std::string::npos);
  }
  EXPECT_GT(reports, 0u);
}

TEST(MonitorStream, PreAndPostPolicyMirrorAdjRibIn) {
  Replay replay;
  replay.run();
  std::size_t pre = 0, post = 0;
  for (const auto& record : replay.monitor->records()) {
    if (record.type != RecordType::kRouteMonitoring) continue;
    if (record.post_policy)
      ++post;
    else
      ++pre;
  }
  EXPECT_GT(pre, 0u);
  EXPECT_GT(post, 0u);
  // Pre-policy mirrors the wire feed: announcements + withdraws + the
  // teardown does NOT synthesize pre-policy records (only post-policy).
  EXPECT_NE(pre, post);
}

TEST(MonitorStream, CapacityBoundDropsNewRecordsLoudly) {
  obs::Registry registry(true);
  obs::Scope scope(&registry);
  sim::EventLoop loop;
  bgp::BgpSpeaker a(&loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  MonitorSession::Options options;
  options.capacity = 4;
  MonitorSession monitor(&loop, &a, options);
  for (int i = 0; i < 16; ++i) {
    bgp::PathAttributes attrs;
    attrs.next_hop = Ipv4Address(10, 0, 0, 1);
    a.originate(
        Ipv4Prefix(Ipv4Address(100, 70, static_cast<std::uint8_t>(i), 0), 24),
        attrs);
  }
  EXPECT_EQ(monitor.records().size(), 4u);
  EXPECT_EQ(monitor.dropped(), 12u);
  obs::Snapshot snap = registry.snapshot(loop.now());
  EXPECT_EQ(snap.value("mon_records_dropped_total", {{"speaker", "a"}}), 12);
}

TEST(MonitorStream, PostPolicyRecordFollowsItsPrePolicyRecord) {
  sim::EventLoop loop;
  bgp::BgpSpeaker dut(&loop, "dut", 47065, Ipv4Address(1, 1, 1, 1));
  bgp::PeerConfig config{.name = "n", .peer_asn = 65020};
  bgp::PolicyTerm reject;
  reject.match.prefix = pfx("10.20.0.0/24");
  reject.actions.deny = true;
  config.import_policy.add_term(reject);
  const bgp::PeerId peer = dut.add_peer(std::move(config));
  MonitorSession monitor(&loop, &dut);

  // A scripted neighbor on the raw stream: answers the OPEN, then sends
  // one UPDATE whose three NLRI are not in prefix order.
  auto pair = sim::StreamChannel::make(&loop, Duration::millis(1));
  dut.connect_peer(peer, pair.a);
  bgp::MessageDecoder decoder;
  pair.b->on_data([&](const Bytes& data) {
    decoder.feed(data);
    while (true) {
      auto result = decoder.poll();
      if (!result.ok() || !result->has_value()) return;
      if (!std::holds_alternative<bgp::OpenMessage>(**result)) continue;
      bgp::OpenMessage open;
      open.asn = 65020;
      open.router_id = Ipv4Address(2, 2, 2, 2);
      open.add_four_byte_asn(65020);
      pair.b->send(bgp::encode_message(open, bgp::UpdateCodecOptions{}));
      pair.b->send(bgp::encode_message(bgp::KeepaliveMessage{},
                                       bgp::UpdateCodecOptions{}));
    }
  });
  loop.run_for(Duration::seconds(1));
  ASSERT_EQ(dut.session_state(peer), bgp::SessionState::kEstablished);

  const std::vector<Ipv4Prefix> order{pfx("10.30.0.0/24"),
                                      pfx("10.20.0.0/24"),  // rejected
                                      pfx("10.10.0.0/24")};
  bgp::UpdateMessage update;
  update.attributes = attrs_from(65020, 9);
  for (const Ipv4Prefix& p : order) update.nlri.push_back({0, p});
  pair.b->send(bgp::encode_message(update, bgp::UpdateCodecOptions{}));
  loop.run_for(Duration::seconds(1));

  // (prefix, post-policy) per route-monitoring record, in stream order.
  std::vector<std::pair<Ipv4Prefix, bool>> got;
  for (const MonitorRecord& record : monitor.records())
    if (record.type == RecordType::kRouteMonitoring)
      got.emplace_back(record.prefix, record.post_policy);
  const std::vector<std::pair<Ipv4Prefix, bool>> want{
      {order[0], false}, {order[0], true},  {order[1], false},
      {order[2], false}, {order[2], true}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(dut.peer_stats(peer).routes_rejected_import, 1u);
}

/// Originates one /24 at `speaker`; each origination is one post-policy
/// record in the speaker's monitor session.
void originate_one(bgp::BgpSpeaker& speaker, int i) {
  bgp::PathAttributes attrs;
  attrs.next_hop = Ipv4Address(10, 0, 0, 1);
  speaker.originate(
      Ipv4Prefix(Ipv4Address(100, 71, static_cast<std::uint8_t>(i), 0), 24),
      attrs);
}

TEST(MonitoringStationIndex, RendersTheSessionsRecordsInDeliveryOrder) {
  sim::EventLoop loop;
  bgp::BgpSpeaker a(&loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  bgp::BgpSpeaker b(&loop, "b", 65002, Ipv4Address(1, 1, 1, 2));
  MonitoringStation station;
  MonitorSession ma(&loop, &a);
  MonitorSession mb(&loop, &b);
  ma.set_station(&station);
  mb.set_station(&station);
  for (int i = 0; i < 6; ++i) {
    originate_one(a, i);
    if (i % 2 == 0) originate_one(b, i);
  }

  ASSERT_EQ(ma.records().size(), 6u);
  ASSERT_EQ(mb.records().size(), 3u);
  EXPECT_EQ(station.record_count(),
            ma.records().size() + mb.records().size());
  // Delivery order interleaves the sessions: a0 b0 a1 a2 b1 a3 a4 b2 a5.
  std::string expected;
  auto line = [&](const MonitorSession& session, std::size_t index) {
    const MonitorRecord& record = session.records()[index];
    expected += render_record_json(record, session.speaker_name(),
                                   std::to_string(record.peer)) +
                "\n";
  };
  std::size_t next_b = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    line(ma, i);
    if (i % 2 == 0) line(mb, next_b++);
  }
  EXPECT_EQ(station.to_jsonl(), expected);
}

TEST(MonitoringStationIndex, SessionAtCapacityAddsNothing) {
  sim::EventLoop loop;
  bgp::BgpSpeaker a(&loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  MonitoringStation station;
  MonitorSession::Options options;
  options.capacity = 2;
  MonitorSession monitor(&loop, &a, options);
  monitor.set_station(&station);
  for (int i = 0; i < 5; ++i) originate_one(a, i);

  EXPECT_EQ(monitor.records().size(), 2u);
  EXPECT_EQ(monitor.dropped(), 3u);
  EXPECT_EQ(station.record_count(), 2u);
  std::string jsonl = station.to_jsonl();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
}

TEST(LookingGlassTest, QueriesRenderRoutesAndDecisions) {
  Replay replay;
  replay.run();
  LookingGlass glass(&replay.dut);

  std::string match = glass.lpm(Ipv4Address(100, 64, 40, 7));
  EXPECT_NE(match.find("match 100.64.40.0/24"), std::string::npos);
  EXPECT_NE(glass.lpm(Ipv4Address(203, 0, 113, 1)).find("no route"),
            std::string::npos);

  // 100.64.40.0/24 is announced by f1 and (until teardown) f2; after the
  // teardown only f1's path remains, so the explanation selects it.
  std::string explain = glass.explain_best(pfx("100.64.40.0/24"));
  EXPECT_NE(explain.find("selected: [0]"), std::string::npos);

  std::string adj_in = glass.dump_adj_rib_in(replay.dut_f1);
  EXPECT_NE(adj_in.find("(64 routes)"), std::string::npos);

  std::string adj_out = glass.query("adj-out sink");
  EXPECT_NE(adj_out.find("paths)"), std::string::npos);
  EXPECT_NE(glass.query("bogus").find("usage:"), std::string::npos);
  EXPECT_NE(glass.query("adj-in nosuch").find("unknown peer"),
            std::string::npos);
}

TEST(LookingGlassTest, TenantVerbRoutesToResolver) {
  sim::EventLoop loop;
  bgp::BgpSpeaker dut(&loop, "dut", 47065, Ipv4Address(1, 1, 1, 1));
  LookingGlass glass(&dut);

  // Without a control plane attached the verb degrades gracefully.
  EXPECT_NE(glass.query("tenant exp-a").find("tenant queries unavailable"),
            std::string::npos);
  EXPECT_NE(glass.query("tenant").find("usage:"), std::string::npos);

  std::string asked;
  glass.set_tenant_resolver([&](const std::string& id) {
    asked = id;
    return "tenant " + id + ": origin AS 61574\n";
  });
  std::string out = glass.query("tenant exp-a");
  EXPECT_EQ(asked, "exp-a");
  EXPECT_NE(out.find("origin AS 61574"), std::string::npos);
  // The verb is advertised in the usage line.
  EXPECT_NE(glass.query("bogus").find("tenant <id>"), std::string::npos);
}

TEST(LookingGlassTest, ExplainNarratesDecisionRules) {
  obs::Registry registry(true);
  obs::Scope scope(&registry);
  sim::EventLoop loop;
  bgp::BgpSpeaker dut(&loop, "dut", 47065, Ipv4Address(1, 1, 1, 1));
  bgp::BgpSpeaker f1(&loop, "f1", 65001, Ipv4Address(2, 2, 2, 1));
  bgp::BgpSpeaker f2(&loop, "f2", 65002, Ipv4Address(2, 2, 2, 2));
  auto connect = [&](bgp::BgpSpeaker& feeder, bgp::Asn asn, std::uint8_t n) {
    std::string feeder_name = "f";
    feeder_name += std::to_string(n);
    bgp::PeerId dp = dut.add_peer(
        {.name = feeder_name, .peer_asn = asn,
         .local_address = Ipv4Address(10, 0, n, 1),
         .peer_address = Ipv4Address(10, 0, n, 2)});
    bgp::PeerId fp = feeder.add_peer(
        {.name = "dut", .peer_asn = 47065,
         .local_address = Ipv4Address(10, 0, n, 2),
         .peer_address = Ipv4Address(10, 0, n, 1)});
    auto pair = sim::StreamChannel::make(&loop, Duration::millis(1));
    dut.connect_peer(dp, pair.a);
    feeder.connect_peer(fp, pair.b);
  };
  connect(f1, 65001, 1);
  connect(f2, 65002, 2);
  loop.run_for(Duration::seconds(5));

  // Same prefix from both feeders; f2's AS path is longer, so rule 2
  // decides and f1 stays best.
  bgp::PathAttributes short_path = attrs_from(64500, 1);
  bgp::PathAttributes long_path;
  long_path.origin = bgp::Origin::kIgp;
  long_path.as_path = bgp::AsPath({64501, 64502});
  long_path.next_hop = Ipv4Address(10, 0, 2, 2);
  f1.originate(pfx("198.51.100.0/24"), short_path);
  f2.originate(pfx("198.51.100.0/24"), long_path);
  loop.run_for(Duration::seconds(10));

  LookingGlass glass(&dut);
  std::string explain = glass.explain_best(pfx("198.51.100.0/24"));
  EXPECT_NE(explain.find("rule 2:as_path_length"), std::string::npos);
  // The looking glass replays the same tournament the RIB ran: its pick
  // must agree with the installed best path.
  auto best = dut.loc_rib().best(pfx("198.51.100.0/24"));
  ASSERT_TRUE(best.has_value());
  std::string rendered = glass.lpm(Ipv4Address(198, 51, 100, 1));
  EXPECT_NE(rendered.find("peer=f1"), std::string::npos);
}

TEST(PropagationTracerTest, MeasuresTimeToLocRibOncePerWave) {
  Replay replay;
  replay.run();
  // 96 stamped prefixes, each measured once at the dut (re-announcements
  // of the same wave do not re-measure).
  EXPECT_EQ(replay.tracer.stamped_count(), 96u);
  EXPECT_EQ(replay.tracer.locrib_samples(), 96u);
  obs::Histogram* e2e = replay.tracer.locrib_aggregate();
  EXPECT_EQ(e2e->count(), 96u);
  // The dut sits one 1ms hop from each feeder; the log2 buckets bound the
  // ~1ms true latency to [2^19, 2^20) ns.
  EXPECT_GE(e2e->quantile(0.50), 524'288u);
  EXPECT_LE(e2e->quantile(0.50), 1'048'575u);
  EXPECT_GT(e2e->quantile(0.99), 0u);
}

TEST(ObsUnderMonitoring, LabelCardinalityOverflowCollapses) {
  obs::Registry registry(true);
  obs::Scope scope(&registry);
  registry.set_label_cap(16);
  PropagationTracer tracer;
  tracer.stamp_origin(pfx("10.1.0.0/24"), SimTime{});
  // A monitoring feed with more distinct speaker names than the label cap:
  // the registry must collapse the excess into one overflow series rather
  // than grow without bound.
  for (int i = 0; i < 64; ++i) {
    std::string speaker_name = "speaker";
    speaker_name += std::to_string(i);
    tracer.note_locrib(speaker_name, pfx("10.1.0.0/24"),
                       SimTime{} + Duration::millis(i + 1));
  }
  obs::Snapshot snap = registry.snapshot(SimTime{});
  std::size_t series = 0;
  std::uint64_t total = 0;
  const obs::SeriesData* overflow = nullptr;
  for (const auto& s : snap.series) {
    if (s.name != "mon_time_to_locrib_ns") continue;
    ++series;
    total += s.count;
    if (s.labels == obs::Labels{{"overflow", "true"}}) overflow = &s;
  }
  // 16 named series (one is the "_all" aggregate) + the overflow catchall.
  EXPECT_EQ(series, 17u);
  ASSERT_NE(overflow, nullptr);
  EXPECT_GT(overflow->count, 0u);
  // No sample lost: named + overflow + aggregate account for all 128
  // (64 per-speaker + 64 into the aggregate).
  EXPECT_EQ(total, 128u);
}

TEST(ObsUnderMonitoring, TraceRingWraparoundStaysDeterministic) {
  auto run_with_small_ring = [](std::string* jsonl, std::uint64_t* emitted,
                                std::uint64_t* dropped) {
    Replay replay;
    // Smaller than the run's session_up/session_down event count (6 + 2),
    // so the ring must wrap.
    replay.registry.trace().set_capacity(4);
    replay.run();
    *jsonl = replay.registry.trace().to_jsonl();
    *emitted = replay.registry.trace().total_emitted();
    *dropped = replay.registry.trace().dropped();
  };
  std::string jsonl_a, jsonl_b;
  std::uint64_t emitted_a = 0, emitted_b = 0, dropped_a = 0, dropped_b = 0;
  run_with_small_ring(&jsonl_a, &emitted_a, &dropped_a);
  run_with_small_ring(&jsonl_b, &emitted_b, &dropped_b);
  EXPECT_GT(dropped_a, 0u) << "ring never wrapped; shrink the capacity";
  EXPECT_EQ(jsonl_a, jsonl_b);
  EXPECT_EQ(emitted_a, emitted_b);
  EXPECT_EQ(dropped_a, dropped_b);
}

TEST(CollectorBound, ArchiveStopsGrowingAndCountsDrops) {
  obs::Registry registry(true);
  obs::Scope scope(&registry);
  sim::EventLoop loop;
  platform::RouteCollector collector(&loop, "rc1", 64999,
                                     Ipv4Address(9, 9, 9, 9));
  bgp::BgpSpeaker feeder(&loop, "feeder", 65001, Ipv4Address(2, 2, 2, 1));
  bgp::PeerId at_collector = collector.add_feed("feeder", 65001);
  bgp::PeerId at_feeder = feeder.add_peer(
      {.name = "rc1", .peer_asn = 64999,
       .local_address = Ipv4Address(10, 0, 1, 2),
       .peer_address = Ipv4Address(10, 0, 1, 1)});
  auto pair = sim::StreamChannel::make(&loop, Duration::millis(1));
  collector.connect(at_collector, pair.a);
  feeder.connect_peer(at_feeder, pair.b);
  loop.run_for(Duration::seconds(5));

  // The archive is the collector's monitor session at its default bound
  // (65,536 records): one peer-up record, then a pre- and a post-policy
  // record per route, so 33,000 routes make 66,001 records.
  const std::size_t capacity = MonitorSession::Options{}.capacity;
  const int routes = 33'000;
  bgp::PathAttributes attrs = attrs_from(65001, 1);
  for (int i = 0; i < routes; ++i)
    feeder.originate(
        Ipv4Prefix(Ipv4Address(100, static_cast<std::uint8_t>(64 + i / 256),
                               static_cast<std::uint8_t>(i % 256), 0),
                   24),
        attrs);
  loop.run_for(Duration::seconds(10));

  const MonitorSession& archive = collector.archive();
  EXPECT_EQ(archive.records().size(), capacity);
  EXPECT_EQ(archive.dropped(), 1u + 2u * routes - capacity);
  // The RIB itself stays complete — only the historical dump truncates.
  EXPECT_EQ(collector.speaker().loc_rib().route_count(),
            static_cast<std::size_t>(routes));
  obs::Snapshot snap = registry.snapshot(loop.now());
  EXPECT_EQ(snap.value("mon_records_dropped_total", {{"speaker", "rc1"}}),
            static_cast<std::int64_t>(archive.dropped()));
}

}  // namespace
}  // namespace peering::mon

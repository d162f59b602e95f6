// Tests for the obs telemetry subsystem: histogram bucket boundaries,
// label-cardinality enforcement, snapshot/trace determinism across
// same-seed replays, zero-cost toggle-off behaviour, span timing on the
// sim clock, and end-to-end instrumentation through a speaker pair.
#include <gtest/gtest.h>

#include "bgp/rib.h"
#include "bgp/speaker.h"
#include "enforce/control_policy.h"
#include "inet/route_feed.h"
#include "ip/fib_set.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sim/event_loop.h"
#include "sim/stream.h"

namespace peering::obs {
namespace {

TEST(Histogram, BucketBoundariesAtPowersOfTwo) {
  // Bucket 0 holds exactly the value 0; bucket i holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(7), 3);
  EXPECT_EQ(Histogram::bucket_index(8), 4);
  EXPECT_EQ(Histogram::bucket_index((1ull << 20) - 1), 20);
  EXPECT_EQ(Histogram::bucket_index(1ull << 20), 21);
  EXPECT_EQ(Histogram::bucket_index(~0ull), 64);

  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper_bound(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper_bound(64), ~0ull);

  Registry registry;
  Histogram* h = registry.histogram("test_hist");
  for (std::uint64_t v : {0ull, 1ull, 1ull, 2ull, 3ull, 4ull, 1023ull,
                          1024ull}) {
    h->record(v);
  }
  EXPECT_EQ(h->count(), 8u);
  EXPECT_EQ(h->sum(), 0u + 1 + 1 + 2 + 3 + 4 + 1023 + 1024);
  EXPECT_EQ(h->bucket(0), 1u);   // {0}
  EXPECT_EQ(h->bucket(1), 2u);   // {1, 1}
  EXPECT_EQ(h->bucket(2), 2u);   // {2, 3}
  EXPECT_EQ(h->bucket(3), 1u);   // {4}
  EXPECT_EQ(h->bucket(10), 1u);  // {1023}
  EXPECT_EQ(h->bucket(11), 1u);  // {1024}
}

TEST(JsonEscape, NamesCommonControlsAndHexEncodesTheRest) {
  std::string out = "x";
  append_json_escaped(out, "a\"b\\c\nd\te\rf\x01g");
  EXPECT_EQ(out, "xa\\\"b\\\\c\\nd\\te\\rf\\u0001g");
}

TEST(Registry, HandlesAreStableAndShared) {
  Registry registry;
  Counter* a = registry.counter("x_total", {{"peer", "n1"}});
  Counter* b = registry.counter("x_total", {{"peer", "n1"}});
  EXPECT_EQ(a, b);  // same series, same instrument
  // Label order must not matter: canonicalized at registration.
  Gauge* g1 = registry.gauge("y", {{"a", "1"}, {"b", "2"}});
  Gauge* g2 = registry.gauge("y", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(g1, g2);
  // Same name, different kind => different family, no clash.
  EXPECT_NE(static_cast<void*>(registry.counter("z")),
            static_cast<void*>(registry.gauge("z")));
}

TEST(Registry, LabelCardinalityCapCollapsesToOverflow) {
  Registry registry;
  registry.set_label_cap(4);
  for (int i = 0; i < 100; ++i) {
    std::string peer = "n";
    peer += std::to_string(i);
    registry.counter("caps_total", {{"peer", peer}})->inc();
  }
  // 4 real series plus the single overflow series soak up all 100 incs.
  Snapshot snap = registry.snapshot();
  std::int64_t overflow =
      snap.value("caps_total", {{"overflow", "true"}});
  EXPECT_EQ(overflow, 96);
  EXPECT_EQ(snap.total("caps_total"), 100);
  // All post-cap resolutions share the one overflow instrument.
  EXPECT_EQ(registry.counter("caps_total", {{"peer", "n50"}}),
            registry.counter("caps_total", {{"peer", "n99"}}));
}

TEST(Registry, DisabledRegistryIsInertAndStateless) {
  Registry registry(/*enabled=*/false);
  Counter* c = registry.counter("never_total", {{"pop", "x"}});
  Gauge* g = registry.gauge("never_gauge");
  Histogram* h = registry.histogram("never_hist");
  EXPECT_FALSE(c->live());
  EXPECT_FALSE(g->live());
  EXPECT_FALSE(h->live());
  c->add(100);
  g->set(42);
  h->record(7);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), 0u);
  // No series are stored, collectors are refused, the trace stays empty.
  EXPECT_EQ(registry.series_count(), 0u);
  EXPECT_EQ(registry.add_collector([](Registry&) { FAIL(); }), 0u);
  registry.trace().emit(SimTime{}, "cat", "ev");
  EXPECT_EQ(registry.trace().size(), 0u);
  EXPECT_TRUE(registry.snapshot().series.empty());
}

TEST(Registry, GlobalDefaultStartsDisabledAndScopeSwaps) {
  Registry* before = Registry::global();
  EXPECT_FALSE(before->enabled());
  {
    Registry enabled;
    Scope scope(&enabled);
    EXPECT_EQ(Registry::global(), &enabled);
  }
  EXPECT_EQ(Registry::global(), before);
}

TEST(Span, RecordsSimClockThroughEventLoop) {
  Registry registry;
  sim::EventLoop loop;
  SpanMeter meter(&registry, "work", {{"stage", "t"}});
  {
    Span span(meter, &loop);
    loop.run_until(SimTime{} + Duration::micros(5));
  }
  Histogram* sim_ns = meter.sim_ns();
  EXPECT_EQ(sim_ns->count(), 1u);
  EXPECT_EQ(sim_ns->sum(), 5000u);
  EXPECT_EQ(meter.wall_ns()->count(), 1u);
  // The deterministic snapshot carries the sim series but not the
  // wall-clock one; include_timing opts the latter in.
  Snapshot det = registry.snapshot();
  EXPECT_NE(det.find("work_sim_ns", {{"stage", "t"}}), nullptr);
  EXPECT_EQ(det.find("work_wall_ns", {{"stage", "t"}}), nullptr);
  Snapshot timed = registry.snapshot(SimTime{}, {.include_timing = true});
  EXPECT_NE(timed.find("work_wall_ns", {{"stage", "t"}}), nullptr);
}

TEST(Trace, RingBoundsAndOrder) {
  EventTrace trace(3);
  for (int i = 0; i < 5; ++i) {
    trace.emit(SimTime{} + Duration::seconds(i), "t", "e",
               {{"i", std::to_string(i)}});
  }
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.dropped(), 2u);
  EXPECT_EQ(trace.total_emitted(), 5u);
  std::vector<std::uint64_t> seqs;
  trace.for_each([&](const TraceEvent& ev) { seqs.push_back(ev.seq); });
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{3, 4, 5}));
}

/// A scaled-down AMS-IX replay (same shape as bench_amsix_replay): seeded
/// feed into RIB + shared FIB views with per-neighbor counters, churn on
/// the sim clock, enforcement verdicts, trace milestones. Returns the
/// serialized snapshot and trace.
std::pair<std::string, std::string> run_mini_replay() {
  Registry registry;
  Scope scope(&registry);
  sim::EventLoop loop;

  inet::RouteFeedConfig config;
  config.route_count = 3000;
  config.seed = 2019;
  auto feed = inet::generate_feed(config);

  bgp::AttrPool pool;
  bgp::LocRib loc_rib([](bgp::PeerId) { return bgp::PeerDecisionInfo{}; });
  ip::FibSet fib_set;
  std::vector<ip::FibView> fibs;
  Counter* per_neighbor[3];
  for (std::size_t f = 0; f < 3; ++f) {
    fibs.push_back(fib_set.make_view());
    std::string neighbor = "n";
    neighbor += std::to_string(f);
    per_neighbor[f] =
        registry.counter("replay_updates_total", {{"neighbor", neighbor}});
  }

  auto apply = [&](const inet::FeedRoute& r, std::size_t f) {
    if (r.withdraw) {
      loc_rib.withdraw(r.prefix, static_cast<bgp::PeerId>(1 + f), 0);
      fibs[f].remove(r.prefix);
      per_neighbor[f]->inc();
      return;
    }
    bgp::RibRoute route;
    route.prefix = r.prefix;
    route.peer = static_cast<bgp::PeerId>(1 + f);
    route.attrs = pool.intern(r.attrs);
    loc_rib.update(route);
    fibs[f].insert(ip::Route{r.prefix, r.attrs.next_hop,
                             static_cast<int>(f), 0});
    per_neighbor[f]->inc();
  };

  registry.trace().emit(loop.now(), "replay", "load_start");
  for (std::size_t i = 0; i < feed.size(); ++i) apply(feed[i], i % 3);

  auto churn = inet::generate_churn(feed, 500, 7);
  for (std::size_t i = 0; i < churn.size(); ++i) {
    apply(churn[i], i % 3);
    loop.run_for(Duration::millis(46));  // ~21.8 upd/s
  }
  registry.trace().emit(loop.now(), "replay", "churn_done");

  enforce::ControlPlaneEnforcer control;
  control.install_default_rules({47065});
  enforce::ExperimentGrant grant;
  grant.experiment_id = "mini";
  grant.allocated_prefixes = {Ipv4Prefix(Ipv4Address(184, 164, 224, 0), 19)};
  grant.allowed_origin_asns = {61574};
  control.set_grant(grant);
  for (int i = 0; i < 20; ++i) {
    enforce::AnnouncementContext ctx;
    ctx.experiment_id = "mini";
    ctx.pop_id = "mini01";
    ctx.now = loop.now();
    ctx.prefix = i % 4 == 3
                     ? Ipv4Prefix(Ipv4Address(8, 8, 8, 0), 24)
                     : Ipv4Prefix(Ipv4Address(184, 164, 224, 0), 24);
    bgp::PathAttributes attrs;
    attrs.as_path = bgp::AsPath({61574});
    ctx.attrs = bgp::make_attrs(std::move(attrs));
    control.check(ctx);
  }

  registry.gauge("replay_fib_shared_bytes")
      ->set(static_cast<std::int64_t>(fib_set.memory_bytes()));
  registry.gauge("replay_fib_flat_bytes")
      ->set(static_cast<std::int64_t>(fib_set.flat_equivalent_bytes()));

  Snapshot snap = registry.snapshot(loop.now());
  return {snap.to_json(), registry.trace().to_jsonl()};
}

TEST(Determinism, SameSeedReplaysProduceIdenticalExports) {
  auto [json1, trace1] = run_mini_replay();
  auto [json2, trace2] = run_mini_replay();
  EXPECT_EQ(json1, json2);
  EXPECT_EQ(trace1, trace2);
  // The document actually carries the §6 observables.
  EXPECT_NE(json1.find("replay_updates_total"), std::string::npos);
  EXPECT_NE(json1.find("enforce_verdicts_total"), std::string::npos);
  EXPECT_NE(json1.find("replay_fib_shared_bytes"), std::string::npos);
  EXPECT_NE(trace1.find("\"cat\":\"enforce\""), std::string::npos);
}

TEST(Integration, SpeakerPairCountsSessionsAndUpdates) {
  Registry registry;
  Scope scope(&registry);
  sim::EventLoop loop;
  bgp::BgpSpeaker a(&loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  bgp::BgpSpeaker b(&loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  bgp::PeerId ap = a.add_peer({.name = "to-b", .peer_asn = 65002});
  bgp::PeerId bp = b.add_peer({.name = "to-a", .peer_asn = 65001});
  auto pair = sim::StreamChannel::make(&loop, Duration::millis(1));
  a.connect_peer(ap, pair.a);
  b.connect_peer(bp, pair.b);
  loop.run_for(Duration::seconds(5));

  bgp::PathAttributes attrs;
  attrs.origin = bgp::Origin::kIgp;
  a.originate(*Ipv4Prefix::parse("203.0.113.0/24"), attrs);
  loop.run_for(Duration::seconds(5));

  Snapshot snap = registry.snapshot(loop.now());
  EXPECT_EQ(snap.value("bgp_session_transitions_total",
                       {{"speaker", "a"}, {"state", "Established"}}),
            1);
  EXPECT_EQ(snap.value("bgp_updates_out_total", {{"speaker", "a"}}), 1);
  EXPECT_EQ(snap.value("bgp_updates_in_total", {{"speaker", "b"}}), 1);
  EXPECT_EQ(snap.value("bgp_peer_updates_in_total",
                       {{"speaker", "b"}, {"peer", "to-a"}}),
            1);
  // Collector-published gauges appear in the same snapshot.
  EXPECT_EQ(snap.value("bgp_locrib_prefixes", {{"speaker", "b"}}), 1);
  EXPECT_EQ(snap.value("bgp_peer_session_up",
                       {{"speaker", "a"}, {"peer", "to-b"}}),
            1);
  // Session establishment landed in the trace.
  bool saw_session_up = false;
  registry.trace().for_each([&](const TraceEvent& ev) {
    if (ev.category == "bgp" && ev.name == "session_up") saw_session_up = true;
  });
  EXPECT_TRUE(saw_session_up);

  // Prometheus rendering includes the counter with its labels.
  std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("bgp_updates_in_total{speaker=\"b\"} 1"),
            std::string::npos);
}

}  // namespace
}  // namespace peering::obs

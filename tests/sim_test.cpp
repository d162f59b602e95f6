// Tests for the discrete-event core: ordering, determinism, link latency /
// bandwidth / drop-tail behaviour, buffer ownership across hops, reliable
// streams and the lifetimes of loops, callbacks and endpoints.
#include <gtest/gtest.h>

#include <memory>

#include "ip/host.h"
#include "netbase/rand.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "sim/stream.h"

namespace peering::sim {
namespace {

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(Duration::seconds(3), [&] { order.push_back(3); });
  loop.schedule_after(Duration::seconds(1), [&] { order.push_back(1); });
  loop.schedule_after(Duration::seconds(2), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), SimTime() + Duration::seconds(3));
}

TEST(EventLoop, EqualTimesRunFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    loop.schedule_after(Duration::seconds(1), [&order, i] { order.push_back(i); });
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoop, EqualTimesFromCallbacksRunAfterEarlierScheduled) {
  // An event that schedules work at its own timestamp: the new event has a
  // later sequence number, so it runs after everything already queued for
  // that instant — scheduling order is the tiebreak, not heap internals.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(Duration::seconds(1), [&] {
    order.push_back(0);
    loop.schedule_after(Duration(), [&] { order.push_back(3); });
  });
  loop.schedule_after(Duration::seconds(1), [&] { order.push_back(1); });
  loop.schedule_after(Duration::seconds(1), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventLoop, InterleavedTimesKeepPerTimestampFifo) {
  // Pushes at alternating timestamps exercise heap sift paths; within each
  // timestamp the original scheduling order must survive extraction.
  EventLoop loop;
  std::vector<std::pair<int, int>> order;  // (second, scheduling index)
  for (int i = 0; i < 50; ++i) {
    int t = (i * 7) % 5;
    loop.schedule_after(Duration::seconds(t), [&order, t, i] {
      order.emplace_back(t, i);
    });
  }
  loop.run();
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t k = 1; k < order.size(); ++k) {
    EXPECT_LE(order[k - 1].first, order[k].first);
    if (order[k - 1].first == order[k].first) {
      EXPECT_LT(order[k - 1].second, order[k].second);
    }
  }
}

TEST(EventLoop, PastTimesClampToNowAndKeepSchedulingOrder) {
  // schedule_at with a timestamp in the past must run at now(), after
  // events already queued for now — the pipelined speaker's flush batches
  // key events by their nominal SimTime and depend on this (time, seq)
  // FIFO contract even when the nominal time has passed.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(Duration::seconds(2), [&] {
    order.push_back(0);
    loop.schedule_at(SimTime() + Duration::seconds(1),  // already past
                     [&] { order.push_back(2); });
    loop.schedule_at(loop.now(), [&] { order.push_back(3); });
  });
  loop.schedule_after(Duration::seconds(2), [&] { order.push_back(1); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(loop.now(), SimTime() + Duration::seconds(2));
}

TEST(EventLoop, EventsCanScheduleEvents) {
  EventLoop loop;
  int count = 0;
  std::function<void()> tick = [&]() {
    if (++count < 5) loop.schedule_after(Duration::millis(10), tick);
  };
  loop.schedule_after(Duration::millis(10), tick);
  loop.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now().ns(), Duration::millis(50).ns());
}

TEST(EventLoop, RunUntilAdvancesClockWhenIdle) {
  EventLoop loop;
  loop.run_until(SimTime() + Duration::seconds(10));
  EXPECT_EQ(loop.now(), SimTime() + Duration::seconds(10));
}

TEST(EventLoop, RunUntilStopsAtBoundary) {
  EventLoop loop;
  bool late_ran = false;
  loop.schedule_after(Duration::seconds(5), [&] { late_ran = true; });
  loop.run_until(SimTime() + Duration::seconds(2));
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, CallbackThatGrowsTheTableSeesEveryEventInOrder) {
  EventLoop loop;
  std::vector<std::pair<std::int64_t, int>> ran;
  // A capture too large for std::function's inline storage: the running
  // callback must not live in the table it grows.
  std::vector<int> payload(64, 7);
  loop.schedule_after(Duration::millis(1), [&loop, &ran, payload] {
    for (int i = 0; i < 1000; ++i) {
      loop.schedule_after(Duration::millis(i % 7), [&loop, &ran, i] {
        ran.emplace_back(loop.now().ns(), i);
      });
    }
    ran.emplace_back(-1, payload.back() * static_cast<int>(payload.size()));
  });
  EXPECT_EQ(loop.run(), 1001u);
  // The running callback's capture survived the table's growth.
  ASSERT_FALSE(ran.empty());
  EXPECT_EQ(ran.front(), (std::pair<std::int64_t, int>(-1, 7 * 64)));
  // Time order; scheduling order within a time.
  std::vector<std::pair<std::int64_t, int>> expected{ran.front()};
  for (int t = 0; t < 7; ++t)
    for (int i = t; i < 1000; i += 7)
      expected.emplace_back(Duration::millis(1 + t).ns(), i);
  EXPECT_EQ(ran, expected);
}

TEST(EventLoop, DestroyedLoopReleasesPendingCaptures) {
  auto token = std::make_shared<int>(0);
  auto image = std::make_shared<const Bytes>(Bytes{1, 2, 3});
  {
    EventLoop loop;
    for (int i = 0; i < 3; ++i)
      loop.schedule_after(Duration::seconds(i + 1), [token] { ++*token; });
    auto pair = StreamChannel::make(&loop, Duration::millis(1));
    pair.a->send(StreamImage(image));
    EXPECT_EQ(token.use_count(), 4);
    EXPECT_EQ(image.use_count(), 2);
  }
  EXPECT_EQ(*token, 0);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(image.use_count(), 1);
}

TEST(Link, DeliversAfterLatency) {
  EventLoop loop;
  LinkConfig config;
  config.latency = Duration::millis(10);
  Link link(&loop, config);
  SimTime delivered_at;
  link.a_to_b().set_receiver([&](const Bytes&) { delivered_at = loop.now(); });
  link.a_to_b().send(Bytes{1, 2, 3});
  loop.run();
  EXPECT_EQ(delivered_at.ns(), Duration::millis(10).ns());
}

TEST(Link, SerializationDelayAtFiniteBandwidth) {
  EventLoop loop;
  LinkConfig config;
  config.latency = Duration::millis(1);
  config.bandwidth_bps = 8'000'000;  // 1 byte/us
  Link link(&loop, config);
  std::vector<SimTime> deliveries;
  link.a_to_b().set_receiver([&](const Bytes&) { deliveries.push_back(loop.now()); });
  // Two 1000-byte frames: serialization 1ms each, so arrivals at 2ms and 3ms.
  link.a_to_b().send(Bytes(1000, 0));
  link.a_to_b().send(Bytes(1000, 0));
  loop.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].ns(), Duration::millis(2).ns());
  EXPECT_EQ(deliveries[1].ns(), Duration::millis(3).ns());
}

TEST(Link, DropTailWhenQueueFull) {
  EventLoop loop;
  LinkConfig config;
  config.bandwidth_bps = 8'000;  // 1 byte/ms: very slow
  config.queue_limit_bytes = 2000;
  Link link(&loop, config);
  int received = 0;
  link.a_to_b().set_receiver([&](const Bytes&) { ++received; });
  int accepted = 0;
  for (int i = 0; i < 10; ++i)
    if (link.a_to_b().send(Bytes(1000, 0))) ++accepted;
  EXPECT_EQ(accepted, 2);  // queue fits two 1000B frames
  EXPECT_EQ(link.a_to_b().frames_dropped(), 8u);
  loop.run();
  EXPECT_EQ(received, 2);
}

TEST(Link, QueueDrainsOverTime) {
  EventLoop loop;
  LinkConfig config;
  config.bandwidth_bps = 8'000'000;  // 1 byte/us
  config.queue_limit_bytes = 1000;
  Link link(&loop, config);
  link.a_to_b().set_receiver([](const Bytes&) {});
  EXPECT_TRUE(link.a_to_b().send(Bytes(800, 0)));
  EXPECT_FALSE(link.a_to_b().send(Bytes(800, 0)));  // queue full
  loop.run_for(Duration::millis(2));                // drains
  EXPECT_TRUE(link.a_to_b().send(Bytes(800, 0)));
}

TEST(Link, DirectionsAreIndependent) {
  EventLoop loop;
  Link link(&loop, LinkConfig{});
  int a_received = 0, b_received = 0;
  link.a_to_b().set_receiver([&](const Bytes&) { ++b_received; });
  link.b_to_a().set_receiver([&](const Bytes&) { ++a_received; });
  link.a_to_b().send(Bytes{1});
  link.b_to_a().send(Bytes{2});
  link.b_to_a().send(Bytes{3});
  loop.run();
  EXPECT_EQ(b_received, 1);
  EXPECT_EQ(a_received, 2);
}

/// Three links in a row, each receiver handing the frame to the next link:
/// by move (the buffer travels) or by copy (the pre-zero-copy behaviour).
/// Returns (delivery time, frame id) at the far end.
std::vector<std::pair<std::int64_t, int>> run_chain(bool by_move,
                                                    std::size_t* pooled) {
  EventLoop loop;
  Link l1(&loop, LinkConfig{.latency = Duration::micros(10)});
  Link l2(&loop, LinkConfig{.latency = Duration::micros(5),
                            .bandwidth_bps = 8'000'000,
                            .queue_limit_bytes = 6000});
  Link l3(&loop, LinkConfig{.latency = Duration::micros(1)});
  std::vector<std::pair<std::int64_t, int>> arrivals;
  l1.a_to_b().set_receiver([&](Bytes& w) {
    if (by_move)
      l2.a_to_b().send(std::move(w));
    else
      l2.a_to_b().send(static_cast<const Bytes&>(w));
  });
  l2.a_to_b().set_receiver([&](Bytes& w) {
    if (by_move)
      l3.a_to_b().send(std::move(w));
    else
      l3.a_to_b().send(static_cast<const Bytes&>(w));
  });
  l3.a_to_b().set_receiver([&](Bytes& w) {
    arrivals.emplace_back(loop.now().ns(), (w[0] << 8) | w[1]);
  });
  Rng rng(5);
  for (int id = 0; id < 300; ++id) {
    Bytes frame(64 + rng.below(1436), 0);
    frame[0] = static_cast<std::uint8_t>(id >> 8);
    frame[1] = static_cast<std::uint8_t>(id);
    l1.a_to_b().send(std::move(frame));
    // Bursts of ten, then a gap: the bandwidth-limited middle link queues
    // and drops some of each burst.
    if (id % 10 == 9) loop.run_for(Duration::millis(5));
    EXPECT_LE(loop.buffers().size(), BufferPool::kMaxBuffers);
  }
  loop.run();
  *pooled = loop.buffers().size();
  return arrivals;
}

TEST(Link, ThreeLinkChainKeepsTimesAndOrderWithBoundedFreeList) {
  std::size_t pooled_move = 0, pooled_copy = 0;
  const auto moved = run_chain(true, &pooled_move);
  const auto copied = run_chain(false, &pooled_copy);
  EXPECT_EQ(moved, copied);
  EXPECT_GT(moved.size(), 100u);
  EXPECT_LT(moved.size(), 300u) << "the middle link should drop some";
  // Far more buffers than the cap came back (every frame's, delivered or
  // dropped); the free list kept only up to its cap.
  EXPECT_EQ(pooled_move, BufferPool::kMaxBuffers);
  EXPECT_LE(pooled_copy, BufferPool::kMaxBuffers);
}

TEST(Link, ReceiverKeepsTheBufferOrTheLoopRecyclesIt) {
  EventLoop loop;
  Link link(&loop, LinkConfig{});
  bool keep = true;
  Bytes kept;
  const std::uint8_t* delivered = nullptr;
  link.a_to_b().set_receiver([&](Bytes& w) {
    delivered = w.data();
    if (keep) kept = std::move(w);
  });

  // Kept: the receiver holds the sender's own buffer, never a copy.
  Bytes frame{1, 2, 3};
  const std::uint8_t* sent = frame.data();
  link.a_to_b().send(std::move(frame));
  loop.run();
  EXPECT_EQ(kept, (Bytes{1, 2, 3}));
  EXPECT_EQ(delivered, sent);
  EXPECT_EQ(loop.buffers().size(), 0u);

  // Left behind: the buffer returns to the loop's free list, and the next
  // copying send reuses its memory.
  keep = false;
  link.a_to_b().send(Bytes{4, 5, 6});
  loop.run();
  ASSERT_EQ(loop.buffers().size(), 1u);
  const std::uint8_t* recycled = delivered;
  link.a_to_b().send(kept);
  loop.run();
  EXPECT_EQ(delivered, recycled);
  EXPECT_EQ(loop.buffers().size(), 1u);
}

TEST(Link, CorruptedHeaderDropsAtChecksumCorruptedPayloadForwards) {
  // sender -> l1 (flips one byte of every frame) -> tap -> l2 -> router
  // -> l3 -> sink. The tap sees each corrupted frame before the router.
  obs::Registry registry(true);
  obs::Scope scope(&registry);
  EventLoop loop;
  Link l1(&loop, LinkConfig{}), l2(&loop, LinkConfig{}), l3(&loop, LinkConfig{});
  ip::Host router(&loop, "r");
  router.add_attached_interface("in", MacAddress::from_id(2),
                                {Ipv4Address(10, 0, 1, 1), 24}, l2, false);
  router.add_attached_interface("out", MacAddress::from_id(3),
                                {Ipv4Address(10, 0, 2, 1), 24}, l3, true);
  router.set_forwarding(true);
  router.routes().insert(ip::Route{Ipv4Prefix(Ipv4Address(), 0),
                                   Ipv4Address(10, 0, 2, 2), 1, 0});
  router.arp_cache(1).learn(Ipv4Address(10, 0, 2, 2), MacAddress::from_id(4),
                            loop.now());
  l1.a_to_b().set_impairments({.corrupt_probability = 1.0, .seed = 42});

  Bytes corrupted;
  l1.a_to_b().set_receiver([&](Bytes& w) {
    corrupted = w;
    l2.a_to_b().send(std::move(w));
  });
  std::vector<Bytes> forwarded;
  l3.a_to_b().set_receiver([&](Bytes& w) { forwarded.push_back(w); });

  ip::Ipv4Packet packet;
  packet.src = Ipv4Address(10, 0, 1, 2);
  packet.dst = Ipv4Address(198, 51, 100, 1);
  packet.payload = Bytes(30, 0x11);
  const Bytes sent = ether::make_frame(MacAddress::from_id(2),
                                       MacAddress::from_id(1),
                                       ether::EtherType::kIpv4, packet.encode())
                         .encode();
  int header_flips = 0, payload_flips = 0;
  for (int i = 0; i < 200; ++i) {
    forwarded.clear();
    l1.a_to_b().send(sent);
    loop.run();
    std::size_t at = 0;
    while (at < sent.size() && sent[at] == corrupted[at]) ++at;
    ASSERT_LT(at, sent.size());
    if (at >= 14 && at < 34) {
      ++header_flips;
      EXPECT_TRUE(forwarded.empty()) << "header byte " << at;
    } else if (at >= 34) {
      ++payload_flips;
      ASSERT_EQ(forwarded.size(), 1u) << "payload byte " << at;
      EXPECT_NE(forwarded[0][at], sent[at]) << "the flip travels on";
    }
  }
  EXPECT_GT(header_flips, 0);
  EXPECT_GT(payload_flips, 0);
  EXPECT_EQ(registry
                .counter("ether_frames_dropped_total",
                         {{"reason", "bad_checksum"}})
                ->value(),
            static_cast<std::uint64_t>(header_flips));
}

TEST(Stream, DeliversInOrderAfterLatency) {
  EventLoop loop;
  auto pair = StreamChannel::make(&loop, Duration::millis(5));
  std::vector<int> received;
  pair.b->on_data([&](const Bytes& data) { received.push_back(data[0]); });
  pair.a->send(Bytes{1});
  pair.a->send(Bytes{2});
  pair.a->send(Bytes{3});
  loop.run();
  EXPECT_EQ(received, (std::vector<int>{1, 2, 3}));
}

TEST(Stream, BuffersUntilHandlerAttached) {
  EventLoop loop;
  auto pair = StreamChannel::make(&loop, Duration::millis(1));
  pair.a->send(Bytes{42});
  loop.run();
  std::vector<int> received;
  pair.b->on_data([&](const Bytes& data) { received.push_back(data[0]); });
  EXPECT_EQ(received, (std::vector<int>{42}));
}

TEST(Stream, CloseNotifiesPeer) {
  EventLoop loop;
  auto pair = StreamChannel::make(&loop, Duration::millis(1));
  bool closed = false;
  pair.b->on_close([&] { closed = true; });
  pair.a->close();
  loop.run();
  EXPECT_TRUE(closed);
  EXPECT_FALSE(pair.b->open());
  EXPECT_FALSE(pair.b->send(Bytes{1}));
}

std::uint64_t stream_drops(obs::Registry& registry, const char* reason) {
  return registry
      .counter("sim_stream_chunks_dropped_total", {{"reason", reason}})
      ->value();
}

TEST(Stream, DataInFlightAtCloseIsNotDeliveredAfterClose) {
  obs::Registry registry(true);
  obs::Scope scope(&registry);
  EventLoop loop;
  auto pair = StreamChannel::make(&loop, Duration::millis(1));
  int received = 0;
  pair.b->on_data([&](const Bytes&) { ++received; });
  pair.a->send(Bytes{1});
  pair.b->close();  // b closes immediately; a's data arrives later
  loop.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(stream_drops(registry, "closed"), 1u);
  EXPECT_EQ(stream_drops(registry, "released"), 0u);
}

TEST(Stream, ReleasedReceiverGetsNoDelivery) {
  obs::Registry registry(true);
  obs::Scope scope(&registry);
  EventLoop loop;
  auto pair = StreamChannel::make(&loop, Duration::millis(1));
  int received = 0;
  pair.b->on_data([&](const Bytes&) { ++received; });
  pair.a->send(Bytes{1});
  pair.a->send(Bytes{2});
  pair.b.reset();  // the receiver's last reference: its chunks are in flight
  loop.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(stream_drops(registry, "released"), 2u);
}

TEST(Stream, ChunkToADestroyedReceiverNeverReachesALaterEndpoint) {
  obs::Registry registry(true);
  obs::Scope scope(&registry);
  EventLoop loop;
  auto old = StreamChannel::make(&loop, Duration::millis(1));
  ASSERT_TRUE(old.a->send(Bytes{1}));
  old.b.reset();
  EXPECT_FALSE(old.a->send(Bytes{2}));
  // Made while the chunk is in flight.
  auto later = StreamChannel::make(&loop, Duration::millis(1));
  int received = 0;
  later.a->on_data([&](const Bytes&) { ++received; });
  later.b->on_data([&](const Bytes&) { ++received; });
  loop.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(stream_drops(registry, "released"), 1u);
  EXPECT_TRUE(later.a->send(Bytes{3}));
  loop.run();
  EXPECT_EQ(received, 1);
}

TEST(Stream, HandlerMayReleaseItsOwnEndpoint) {
  obs::Registry registry(true);
  obs::Scope scope(&registry);
  EventLoop loop;
  auto pair = StreamChannel::make(&loop, Duration::millis(1));
  int received = 0;
  pair.b->on_data([&](const Bytes&) {
    ++received;
    pair.b.reset();
  });
  pair.a->send(Bytes{1});
  pair.a->send(Bytes{2});
  loop.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(stream_drops(registry, "released"), 1u);

  bool closed = false;
  pair.b = nullptr;
  auto second = StreamChannel::make(&loop, Duration::millis(1));
  second.b->on_close([&] {
    closed = true;
    second.b.reset();
  });
  second.a->close();
  loop.run();
  EXPECT_TRUE(closed);
  EXPECT_EQ(second.b, nullptr);
}

TEST(Stream, EndpointThatOutlivesItsLoopIsDestroyedCleanly) {
  auto loop = std::make_unique<EventLoop>();
  auto pair = StreamChannel::make(loop.get(), Duration::millis(1));
  ASSERT_TRUE(pair.a->send(Bytes{1}));  // still in flight when the loop dies
  loop.reset();
  EXPECT_FALSE(pair.a->send(Bytes{2}));
  pair.a->close();
  EXPECT_FALSE(pair.a->open());
  pair.a.reset();
  pair.b.reset();
}

TEST(Stream, SendsToManyStreamsAtOneInstantDeliverInSendOrder) {
  EventLoop loop;
  std::vector<StreamChannel::Pair> pairs;
  std::vector<int> arrivals;
  for (int i = 0; i < 32; ++i) {
    pairs.push_back(StreamChannel::make(&loop, Duration::millis(1)));
    pairs.back().b->on_data([&arrivals, i](const Bytes& data) {
      arrivals.push_back(i * 10 + data[0]);
    });
  }
  // Two chunks per stream, sent in descending stream order: arrival order
  // must be send order, not stream order.
  std::vector<int> sent;
  for (std::uint8_t round = 0; round < 2; ++round) {
    for (int i = 31; i >= 0; --i) {
      pairs[static_cast<std::size_t>(i)].a->send(Bytes{round});
      sent.push_back(i * 10 + round);
    }
  }
  loop.run();
  EXPECT_EQ(arrivals, sent);
}

TEST(Stream, SharedImageArrivesIntactAfterTheSenderReusesItsScratch) {
  EventLoop loop;
  std::vector<StreamChannel::Pair> pairs;
  std::vector<std::vector<Bytes>> received(32);
  for (std::size_t i = 0; i < received.size(); ++i) {
    pairs.push_back(StreamChannel::make(&loop, Duration::millis(1)));
    pairs.back().b->on_data(
        [&received, i](const Bytes& data) { received[i].push_back(data); });
  }
  auto scratch = std::make_shared<Bytes>();
  for (int b = 0; b < 300; ++b)
    scratch->push_back(static_cast<std::uint8_t>(b));
  const Bytes first = *scratch;
  for (auto& pair : pairs) pair.a->send(StreamImage(scratch));
  // Every chunk in flight holds the image, so the sender sees it is not
  // free to write; once all are delivered it holds the only reference.
  EXPECT_EQ(scratch.use_count(), 1 + static_cast<long>(pairs.size()));
  loop.run();
  EXPECT_EQ(scratch.use_count(), 1);

  // The sender reuses its scratch for the next message.
  scratch->assign(first.size(), 0xEE);
  const Bytes second = *scratch;
  for (auto& pair : pairs) pair.a->send(StreamImage(scratch));
  loop.run();
  for (const auto& chunks : received)
    EXPECT_EQ(chunks, (std::vector<Bytes>{first, second}));
}

}  // namespace
}  // namespace peering::sim

// Unit tests for the exec layer: prefix-hash partitioning, the seeded
// visit permutation, the stage-handoff queues, and the work-queue
// scheduler's parallel_for barrier.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "exec/partition.h"
#include "exec/scheduler.h"
#include "exec/work_queue.h"
#include "netbase/prefix.h"

namespace peering::exec {
namespace {

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }

TEST(PartitionMap, SinglePartitionMapsEverythingToZero) {
  PartitionMap pmap(1);
  EXPECT_EQ(pmap.partitions(), 1u);
  EXPECT_EQ(pmap.of(pfx("0.0.0.0/0")), 0u);
  EXPECT_EQ(pmap.of(pfx("203.0.113.0/24")), 0u);
}

TEST(PartitionMap, ZeroPartitionsClampsToOne) {
  PartitionMap pmap(0);
  EXPECT_EQ(pmap.partitions(), 1u);
}

TEST(PartitionMap, AssignmentIsDeterministicAndInRange) {
  PartitionMap a(4), b(4);
  for (int i = 0; i < 1000; ++i) {
    Ipv4Prefix p(Ipv4Address(10, static_cast<std::uint8_t>(i >> 8),
                             static_cast<std::uint8_t>(i), 0),
                 24);
    std::uint32_t part = a.of(p);
    EXPECT_LT(part, 4u);
    EXPECT_EQ(part, b.of(p));  // depends only on (prefix, count)
  }
}

TEST(PartitionMap, LengthParticipatesInTheHash) {
  // A /16 and a /24 at the same base address may differ; across many bases
  // they must not systematically collide.
  PartitionMap pmap(8);
  int differing = 0;
  for (int i = 0; i < 256; ++i) {
    Ipv4Address base(10, static_cast<std::uint8_t>(i), 0, 0);
    if (pmap.of(Ipv4Prefix(base, 16)) != pmap.of(Ipv4Prefix(base, 24)))
      ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(PartitionMap, ConsecutivePrefixesSpreadAcrossPartitions) {
  // Full-avalanche hash: a run of consecutive /24s (the common table
  // shape) must touch every partition, not stripe into a few.
  PartitionMap pmap(4);
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 1024; ++i) {
    Ipv4Prefix p(Ipv4Address(184, static_cast<std::uint8_t>(i >> 8),
                             static_cast<std::uint8_t>(i), 0),
                 24);
    ++hits[pmap.of(p)];
  }
  for (int h : hits) EXPECT_GT(h, 1024 / 8);  // within 2x of even
}

TEST(SeededOrder, IsAPermutationAndSeedStable) {
  auto order = seeded_order(16, 42);
  ASSERT_EQ(order.size(), 16u);
  std::set<std::uint32_t> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 16u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 15u);
  EXPECT_EQ(order, seeded_order(16, 42));
  EXPECT_NE(order, seeded_order(16, 43));
}

TEST(SeededOrder, HandlesDegenerateSizes) {
  EXPECT_TRUE(seeded_order(0, 7).empty());
  EXPECT_EQ(seeded_order(1, 7), (std::vector<std::uint32_t>{0}));
}

TEST(BoundedQueue, FifoSingleThread) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.try_pop(), std::optional<int>(1));
  EXPECT_EQ(q.try_pop(), std::optional<int>(2));
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

TEST(BoundedQueue, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  q.try_pop();
  EXPECT_TRUE(q.try_push(3));
}

TEST(BoundedQueue, CloseDrainsThenReturnsNullopt) {
  BoundedQueue<int> q(4);
  q.try_push(7);
  q.close();
  EXPECT_FALSE(q.push(8));  // pushes fail after close
  EXPECT_EQ(q.pop(), std::optional<int>(7));
  EXPECT_EQ(q.pop(), std::nullopt);  // drained + closed: no block
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(1);
  std::thread consumer([&q] { EXPECT_EQ(q.pop(), std::nullopt); });
  q.close();
  consumer.join();
}

TEST(BoundedQueue, TransfersAcrossThreads) {
  BoundedQueue<int> q(8);
  constexpr int kItems = 10000;
  std::thread producer([&q] {
    for (int i = 0; i < kItems; ++i) EXPECT_TRUE(q.push(i));
    q.close();
  });
  long long sum = 0;
  int count = 0;
  while (auto item = q.pop()) {
    sum += *item;
    ++count;
  }
  producer.join();
  EXPECT_EQ(count, kItems);
  EXPECT_EQ(sum, static_cast<long long>(kItems) * (kItems - 1) / 2);
}

TEST(Scheduler, ZeroWorkersRunsInlineInIndexOrder) {
  Scheduler sched(0);
  EXPECT_EQ(sched.workers(), 0u);
  std::vector<std::size_t> visited;
  sched.parallel_for(5, [&](std::size_t i) { visited.push_back(i); });
  EXPECT_EQ(visited, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ParallelForCoversEveryIndexExactlyOnce) {
  Scheduler sched(3);
  EXPECT_EQ(sched.workers(), 3u);
  constexpr std::size_t kCount = 2000;
  std::vector<std::atomic<int>> hits(kCount);
  sched.parallel_for(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Scheduler, ParallelForIsABarrier) {
  // Every write made inside fn must be visible after parallel_for returns.
  Scheduler sched(2);
  std::vector<int> out(512, 0);
  for (int round = 0; round < 20; ++round) {
    sched.parallel_for(out.size(),
                       [&](std::size_t i) { out[i] = round + 1; });
    for (int v : out) ASSERT_EQ(v, round + 1);
  }
}

TEST(Scheduler, ReusableAcrossBatches) {
  Scheduler sched(2);
  std::atomic<long long> total{0};
  for (int round = 0; round < 50; ++round) {
    sched.parallel_for(round, [&](std::size_t i) {
      total.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
    });
  }
  long long expected = 0;
  for (int round = 0; round < 50; ++round)
    expected += static_cast<long long>(round) * (round - 1) / 2;
  EXPECT_EQ(total.load(), expected);
}

}  // namespace
}  // namespace peering::exec

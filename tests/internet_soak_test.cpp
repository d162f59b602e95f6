// ISSUE 10: soak determinism and closure at test scale. The internet-scale
// soak harness (src/inet/soak.h) must be a deterministic world: the same
// feed + churn schedule replayed twice ends in byte-identical Loc-RIB
// fingerprints at every PoP, byte-identical monitor streams, and identical
// fault/churn schedules. And the closed churn schedule really closes: a
// churned world settles to exactly the state of a fresh-converged
// reference world (diff_locrib, attribute content included).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "faults/invariants.h"
#include "inet/route_feed.h"
#include "inet/soak.h"

namespace peering {
namespace {

/// 50k routes x 3 PoPs with all churn ingredients active inside a short
/// simulated window: two beacon waves, storms, background noise, and two
/// backbone session flaps.
soak::SoakConfig test_config() {
  soak::SoakConfig config;
  config.pops = {"amsterdam01", "seattle01", "phoenix01"};
  config.table.route_count = 50'000;
  config.churn.duration = Duration::seconds(60);
  config.churn.beacon_interval = Duration::seconds(20);
  config.session_flaps = 2;
  return config;
}

TEST(InternetSoak, SameSeedReplayProducesByteIdenticalWorlds) {
  const soak::SoakConfig config = test_config();
  std::vector<inet::FeedRoute> feed = inet::generate_full_table(config.table);
  inet::ChurnSchedule schedule =
      inet::generate_churn_schedule(feed.size(), config.churn);
  ASSERT_GT(schedule.withdraws, 0u);

  auto first = std::make_unique<soak::SoakHarness>(config, &feed, &schedule);
  first->run();
  auto second = std::make_unique<soak::SoakHarness>(config, &feed, &schedule);
  second->run();

  const soak::SoakReport first_report = first->report();
  const soak::SoakReport second_report = second->report();
  ASSERT_TRUE(first_report.converged_initial);
  ASSERT_TRUE(first_report.converged_post_churn);
  ASSERT_TRUE(second_report.converged_initial);
  ASSERT_TRUE(second_report.converged_post_churn);

  // Byte-identical end state at every PoP, and identical replay artifacts.
  ASSERT_EQ(first->pop_count(), second->pop_count());
  for (std::size_t pop = 0; pop < first->pop_count(); ++pop)
    EXPECT_EQ(first->locrib_fingerprint(pop),
              second->locrib_fingerprint(pop))
        << "pop " << first->config().pops[pop];
  EXPECT_EQ(first->locrib_fingerprint(), second->locrib_fingerprint());
  EXPECT_EQ(first->monitor_fingerprint(), second->monitor_fingerprint());
  EXPECT_EQ(first->fault_log(), second->fault_log());
  EXPECT_EQ(first->schedule().log(), second->schedule().log());

  // The worlds did the same work, not just reached the same place.
  EXPECT_EQ(first_report.churn_events, second_report.churn_events);
  EXPECT_EQ(first_report.faults_scheduled, second_report.faults_scheduled);
  EXPECT_EQ(first_report.updates_out, second_report.updates_out);
  EXPECT_EQ(first_report.locrib_samples, second_report.locrib_samples);
  EXPECT_EQ(first_report.fib_samples, second_report.fib_samples);
  EXPECT_EQ(first_report.ttl_p99_ns, second_report.ttl_p99_ns);
  EXPECT_GT(first_report.locrib_samples, 0u);
}

TEST(InternetSoak, ChurnedWorldSettlesToFreshConvergedReference) {
  soak::SoakConfig config = test_config();
  config.table.route_count = 8'000;
  std::vector<inet::FeedRoute> feed = inet::generate_full_table(config.table);
  inet::ChurnSchedule schedule =
      inet::generate_churn_schedule(feed.size(), config.churn);

  soak::SoakHarness churned(config, &feed, &schedule);
  churned.run();

  soak::SoakConfig ref_config = config;
  ref_config.churn_enabled = false;
  ref_config.session_flaps = 0;
  soak::SoakHarness reference(ref_config, &feed, &schedule);
  reference.run();

  ASSERT_TRUE(churned.report().converged_post_churn);
  ASSERT_TRUE(reference.report().converged_initial);

  faults::InvariantReport diff;
  for (std::size_t pop = 0; pop < churned.pop_count(); ++pop)
    faults::InvariantChecker::diff_locrib(churned.speaker(pop),
                                          reference.speaker(pop),
                                          config.pops[pop], diff);
  EXPECT_GT(diff.checks, 0u);
  EXPECT_TRUE(diff.ok()) << diff.str();
}

}  // namespace
}  // namespace peering

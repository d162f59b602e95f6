// The traced run's per-layer ledger, built from outside the program: after
// each timed burst or packet window the benchmark replays the same inputs
// through each layer's public functions on private instances and times
// every call, recording one span per burst or window with one child span
// per step and per layer replay.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "bgp/message.h"
#include "bgp/rib.h"
#include "enforce/control_policy.h"
#include "enforce/data_enforcer.h"
#include "ip/fib_set.h"

namespace perfbench {

struct LayerTotals {
  std::uint64_t updates = 0;
  std::uint64_t announces = 0;
  std::uint64_t routes = 0;
  std::uint64_t burst_ns = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t intern_ns = 0;
  std::uint64_t rib_ns = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t community_ns = 0;
  std::uint64_t community_calls = 0;
  std::uint64_t control_ns = 0;
  std::uint64_t control_calls = 0;
  std::uint64_t packets = 0;
  std::uint64_t demux_ns = 0;
  std::uint64_t lpm_ns = 0;
  std::uint64_t lpm_calls = 0;
  std::uint64_t filter_ns = 0;
  std::uint64_t filter_calls = 0;
  std::uint64_t codec_ns = 0;

  /// Replayed layer time per update over the traced burst time per update.
  double attributed_share() const;
};

class Ledger {
 public:
  /// Builds private layer instances mirroring `world` (grants, neighbor
  /// tables preloaded into private RIBs). Construct after setup.
  Ledger(World& world, const std::vector<inet::FeedRoute>& table,
         const std::vector<std::vector<bgp::PathAttributes>>& neighbor_attrs);
  ~Ledger();

  /// Records the burst span of one churn step timed as [start, injected,
  /// end] and replays the step through each control-plane layer.
  void burst(const Step& step, std::uint64_t start, std::uint64_t injected,
             std::uint64_t end);
  /// Records the span of one frame window and replays its frames through
  /// each data-plane layer.
  void frame_window(const std::vector<Frame>& frames, std::size_t begin,
                    std::size_t count, std::uint64_t start, std::uint64_t end);

  const LayerTotals& totals() const { return totals_; }
  const SpanLog& spans() const { return spans_; }

 private:
  struct Private;
  World* world_;
  std::unique_ptr<Private> p_;
  LayerTotals totals_;
  SpanLog spans_;
  std::uint64_t next_burst_ = 1;
  /// Folds every replay's result, so no call can be optimised away.
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench

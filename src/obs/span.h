// Scoped span timers keyed to BOTH clocks the platform runs on:
//
//  * the sim virtual clock — deterministic, meaningful for work that spans
//    events (session establishment, convergence, a replay's churn window);
//  * the wall clock — nondeterministic, meaningful for CPU cost of work
//    inside one event (per-update processing).
//
// A SpanMeter resolves the pair of histograms once (`<name>_sim_ns`
// deterministic, `<name>_wall_ns` timing-tagged and therefore excluded
// from deterministic snapshots); a Span is the cheap RAII measurement.
// Under a disabled registry the meter holds no-op histograms and Span
// skips the clock reads entirely.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>

#include "obs/metrics.h"
#include "sim/event_loop.h"

namespace peering::obs {

class SpanMeter {
 public:
  SpanMeter() = default;
  SpanMeter(Registry* registry, std::string_view name,
            const Labels& labels = {}) {
    std::string base(name);
    sim_ns_ = registry->histogram(base + "_sim_ns", labels);
    wall_ns_ = registry->timing_histogram(base + "_wall_ns", labels);
    live_ = sim_ns_->live() || wall_ns_->live();
  }

  bool live() const { return live_; }
  Histogram* sim_ns() const { return sim_ns_; }
  Histogram* wall_ns() const { return wall_ns_; }

 private:
  Histogram* sim_ns_ = Registry::nop_histogram();
  Histogram* wall_ns_ = Registry::nop_histogram();
  bool live_ = false;
};

class Span {
 public:
  /// Starts timing immediately. `loop` may be null (wall clock only).
  Span(const SpanMeter& meter, const sim::EventLoop* loop)
      : meter_(&meter), loop_(loop) {
    if (meter.live()) {
      if (loop_) sim_start_ = loop_->now();
      wall_start_ = std::chrono::steady_clock::now();
    }
  }
  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Records and disarms early (before scope exit).
  void finish() {
    if (!meter_ || !meter_->live()) {
      meter_ = nullptr;
      return;
    }
    auto wall_end = std::chrono::steady_clock::now();
    auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       wall_end - wall_start_)
                       .count();
    meter_->wall_ns()->record(
        wall_ns < 0 ? 0 : static_cast<std::uint64_t>(wall_ns));
    if (loop_) {
      auto sim_ns = (loop_->now() - sim_start_).ns();
      meter_->sim_ns()->record(
          sim_ns < 0 ? 0 : static_cast<std::uint64_t>(sim_ns));
    }
    meter_ = nullptr;
  }

 private:
  const SpanMeter* meter_ = nullptr;
  const sim::EventLoop* loop_ = nullptr;
  SimTime sim_start_;
  std::chrono::steady_clock::time_point wall_start_;
};

}  // namespace peering::obs

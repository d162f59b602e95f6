#include "sim/link.h"

namespace peering::sim {

LinkDirection::LinkDirection(EventLoop* loop, const LinkConfig& config,
                             const std::string& direction)
    : loop_(loop), config_(config), impairment_rng_(1) {
  obs::Registry* registry = obs::Registry::global();
  const obs::Labels labels = {{"link", config_.name}, {"dir", direction}};
  dropped_counter_ =
      registry->counter("sim_link_frames_dropped_total", labels);
  corrupted_counter_ =
      registry->counter("sim_link_frames_corrupted_total", labels);
}

void LinkDirection::set_impairments(const LinkImpairments& imp) {
  impairments_ = imp;
  impairment_rng_ = Rng(imp.seed);
}

void LinkDirection::clear_impairments() { impairments_ = LinkImpairments{}; }

bool LinkDirection::drop(Bytes&& frame) {
  ++frames_dropped_;
  dropped_counter_->inc();
  loop_->buffers().release(std::move(frame));
  return false;
}

std::uint32_t LinkDirection::park(Bytes&& frame) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.push_back(std::move(frame));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    in_flight_[slot] = std::move(frame);
  }
  return slot;
}

void LinkDirection::deliver(std::uint32_t slot) {
  Bytes frame = std::move(in_flight_[slot]);
  free_slots_.push_back(slot);
  receiver_(frame);
  loop_->buffers().release(std::move(frame));
}

bool LinkDirection::send(const Bytes& frame) {
  Bytes copy = loop_->buffers().acquire();
  copy.assign(frame.begin(), frame.end());
  return send(std::move(copy));
}

bool LinkDirection::send(Bytes&& frame) {
  if (!receiver_) return drop(std::move(frame));
  if (impairments_.drop_probability > 0.0 &&
      impairment_rng_.chance(impairments_.drop_probability)) {
    return drop(std::move(frame));
  }
  if (!frame.empty() && impairments_.corrupt_probability > 0.0 &&
      impairment_rng_.chance(impairments_.corrupt_probability)) {
    frame[impairment_rng_.below(frame.size())] ^= 0xFF;
    ++frames_corrupted_;
    corrupted_counter_->inc();
  }
  Duration latency = config_.latency;
  if (impairments_.jitter.ns() > 0) {
    latency = latency + Duration::nanos(static_cast<std::int64_t>(
                  impairment_rng_.below(
                      static_cast<std::uint64_t>(impairments_.jitter.ns()) +
                      1)));
  }

  const std::size_t size = frame.size();
  if (config_.bandwidth_bps == 0) {
    // Infinite bandwidth: only propagation latency applies.
    ++frames_sent_;
    bytes_sent_ += size;
    const std::uint32_t slot = park(std::move(frame));
    loop_->schedule_after(latency, [this, slot]() { deliver(slot); });
    return true;
  }

  // Drop-tail: reject if the queue of not-yet-serialized bytes is full.
  const SimTime now = loop_->now();
  if (tx_free_ < now) {
    tx_free_ = now;
    queued_bytes_ = 0;
  }
  if (queued_bytes_ + size > config_.queue_limit_bytes)
    return drop(std::move(frame));

  const Duration serialization =
      Duration::nanos(static_cast<std::int64_t>(size) * 8 * 1'000'000'000 /
                      static_cast<std::int64_t>(config_.bandwidth_bps));
  tx_free_ = tx_free_ + serialization;
  queued_bytes_ += size;
  ++frames_sent_;
  bytes_sent_ += size;
  // The queue drains when serialization completes; delivery happens one
  // propagation latency later.
  loop_->schedule_at(tx_free_, [this, size]() {
    if (queued_bytes_ >= size) queued_bytes_ -= size;
  });
  const std::uint32_t slot = park(std::move(frame));
  loop_->schedule_at(tx_free_ + latency, [this, slot]() { deliver(slot); });
  return true;
}

}  // namespace peering::sim

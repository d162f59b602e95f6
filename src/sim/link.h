// Point-to-point simulated links carrying opaque frames (serialized Ethernet
// in practice). A link models propagation latency, serialization at a
// configured bandwidth, and a finite drop-tail queue — enough to reproduce
// the paper's backbone-throughput behaviour (§6) and to carry real protocol
// traffic between PoPs, neighbors, and experiments.
//
// Each direction additionally accepts a (seeded, deterministic) impairment
// profile — random loss, byte corruption, latency jitter — so the fault
// harness (src/faults) can degrade a link mid-run and later restore it.
//
// A link owns each frame from send() to delivery. The receiver gets the
// buffer mutably and may keep it (move from it: a router rewrites the
// headers in place and sends the same buffer on); a buffer it leaves
// behind returns to the event loop's BufferPool.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "netbase/bytes.h"
#include "netbase/rand.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"

namespace peering::sim {

/// Receives frames delivered by a link endpoint. The handler may move the
/// buffer away to forward it; otherwise the link recycles it on return.
using FrameHandler = std::function<void(Bytes&)>;

struct LinkConfig {
  Duration latency = Duration::micros(100);
  /// Bits per second; 0 means infinite (no serialization delay).
  std::uint64_t bandwidth_bps = 0;
  /// Maximum bytes queued awaiting serialization before drop-tail kicks in.
  std::size_t queue_limit_bytes = 512 * 1024;
  std::string name = "link";
};

/// A deterministic degradation profile for one link direction. All
/// randomness comes from the direction's own splitmix64 stream, seeded when
/// the impairments are installed, so same-seed runs drop/corrupt/jitter the
/// exact same frames.
struct LinkImpairments {
  /// Probability in [0, 1] that a frame is dropped before queueing.
  double drop_probability = 0.0;
  /// Probability in [0, 1] that one byte of the frame is flipped in flight.
  double corrupt_probability = 0.0;
  /// Extra per-frame delay drawn uniformly from [0, jitter].
  Duration jitter = Duration::nanos(0);
  /// Seed for the impairment random stream.
  std::uint64_t seed = 1;
};

/// One direction of a link. Tracks its own serialization horizon and queue
/// occupancy; drops when the queue is full (drop-tail).
class LinkDirection {
 public:
  LinkDirection(EventLoop* loop, const LinkConfig& config,
                const std::string& direction);

  void set_receiver(FrameHandler handler) { receiver_ = std::move(handler); }

  /// Offers a frame for transmission, taking ownership of the buffer.
  /// Returns false if the frame was dropped because the queue was full (or
  /// an installed impairment dropped it).
  bool send(Bytes&& frame);
  /// Copies `frame` into a recycled buffer and sends that.
  bool send(const Bytes& frame);

  /// Installs a degradation profile; replaces any existing one and reseeds
  /// the impairment stream from `imp.seed`.
  void set_impairments(const LinkImpairments& imp);
  /// Restores the pristine direction (no loss / corruption / jitter).
  void clear_impairments();
  const LinkImpairments& impairments() const { return impairments_; }

  /// Shrinks (or restores) the drop-tail queue bound for this direction.
  void set_queue_limit(std::size_t bytes) { config_.queue_limit_bytes = bytes; }

  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  /// Counts a dropped frame and recycles its buffer; returns false.
  bool drop(Bytes&& frame);
  void deliver(std::uint32_t slot);

  EventLoop* loop_;
  LinkConfig config_;
  FrameHandler receiver_;
  /// Frames in flight. A delivery event captures only its slot, so it
  /// fits std::function's inline storage and allocates nothing.
  SlotTable<Bytes> parked_;
  LinkImpairments impairments_;
  Rng impairment_rng_;
  /// Time at which the transmitter becomes free (serialization horizon).
  SimTime tx_free_;
  std::size_t queued_bytes_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
  // Resolved once against the registry installed at construction time
  // (satellite of ISSUE 5: frames_dropped_ was invisible to telemetry).
  obs::Counter* dropped_counter_;
  obs::Counter* corrupted_counter_;
};

/// A full-duplex point-to-point link: two directions sharing a config.
class Link {
 public:
  Link(EventLoop* loop, const LinkConfig& config)
      : a_to_b_(loop, config, "a2b"),
        b_to_a_(loop, config, "b2a"),
        config_(config) {}

  LinkDirection& a_to_b() { return a_to_b_; }
  LinkDirection& b_to_a() { return b_to_a_; }
  const LinkConfig& config() const { return config_; }

 private:
  LinkDirection a_to_b_;
  LinkDirection b_to_a_;
  LinkConfig config_;
};

}  // namespace peering::sim

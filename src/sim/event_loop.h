// Deterministic discrete-event simulation core. All protocol machinery in
// the library (link transmission, ARP, BGP timers, enforcement windows) is
// driven by a single EventLoop, so an entire multi-PoP PEERING deployment
// executes reproducibly inside one process.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "netbase/bytes.h"
#include "netbase/time.h"

namespace peering::obs {
class Counter;
}

namespace peering::sim {

class StreamEndpoint;

/// An immutable chunk of stream bytes. One image may ride on many streams
/// at once: every receiver reads the same buffer, nobody copies it.
using StreamImage = std::shared_ptr<const Bytes>;

/// Stream chunks in flight on one event loop. A chunk waits in a slot
/// until its delivery event, which captures only this table and the slot:
/// the closure fits std::function's inline storage and allocates nothing.
/// The table lives as long as the loop, so a slot outlives every event
/// that names it, whichever endpoints are gone by then. The delivery logic
/// lives with StreamEndpoint (sim/stream.cpp).
class StreamTable {
  friend class StreamEndpoint;

  struct Chunk {
    std::weak_ptr<StreamEndpoint> to;
    /// Null: the sender closed the stream.
    StreamImage data;
    /// Counts the chunk if its receiver is gone when it arrives (resolved
    /// by the sender: the receiver's own handle died with it).
    obs::Counter* released = nullptr;
  };

  std::uint32_t park(Chunk chunk);
  void deliver(std::uint32_t slot);

  std::vector<Chunk> chunks_;
  std::vector<std::uint32_t> free_;
};

/// A bounded free list of wire buffers. Links move frames between hops
/// without copying; a buffer the last receiver does not keep comes back
/// here and carries the next frame, so steady-state forwarding allocates
/// nothing. One pool serves every link of an event loop: a frame that
/// enters on one link and leaves on another must return to the same list.
class BufferPool {
 public:
  /// Buffers kept at most; a release beyond this frees the buffer.
  static constexpr std::size_t kMaxBuffers = 64;
  /// Larger buffers are freed rather than kept.
  static constexpr std::size_t kMaxBufferBytes = 16 * 1024;

  /// An empty buffer, with recycled capacity when one is free.
  Bytes acquire() {
    if (free_.empty()) return Bytes();
    Bytes buf = std::move(free_.back());
    free_.pop_back();
    return buf;
  }

  void release(Bytes&& buf) {
    if (buf.capacity() == 0 || buf.capacity() > kMaxBufferBytes ||
        free_.size() >= kMaxBuffers)
      return;
    buf.clear();
    if (free_.capacity() == 0) free_.reserve(kMaxBuffers);
    free_.push_back(std::move(buf));
  }

  std::size_t size() const { return free_.size(); }

 private:
  std::vector<Bytes> free_;
};

class EventLoop {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (clamped to now if in the
  /// past). Events at equal times run in scheduling order (FIFO), which keeps
  /// runs deterministic.
  void schedule_at(SimTime at, Callback fn) {
    if (at < now_) at = now_;
    queue_.push(Event{at, seq_++, std::move(fn)});
  }

  /// Schedules `fn` to run `delay` after the current time.
  void schedule_after(Duration delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs events until the queue is empty or `limit` events have executed.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX) {
    std::size_t executed = 0;
    while (!queue_.empty() && executed < limit) {
      step();
      ++executed;
    }
    return executed;
  }

  /// Runs events with timestamps <= `until`, then advances the clock to
  /// exactly `until` (even if idle). Returns the number of events executed.
  std::size_t run_until(SimTime until) {
    std::size_t executed = 0;
    while (!queue_.empty() && queue_.top().at <= until) {
      step();
      ++executed;
    }
    if (now_ < until) now_ = until;
    return executed;
  }

  /// Convenience: run_until(now + d).
  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

  /// The wire-buffer free list shared by every link on this loop.
  BufferPool& buffers() { return buffers_; }

  /// In-flight chunks of every stream on this loop.
  StreamTable& streams() { return streams_; }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    Callback fn;

    /// Strict priority: earlier time first; FIFO by sequence within a time.
    bool before(const Event& other) const {
      return at != other.at ? at < other.at : seq < other.seq;
    }
  };

  /// Min-heap over (at, seq). Hand-rolled instead of std::priority_queue so
  /// pop_min() can move the element out of the heap — std::priority_queue
  /// only exposes a const top(), which forces a const_cast to avoid copying
  /// the std::function. The (time, seq) order makes the extraction sequence
  /// total, so heap-internal tie-breaks can't affect determinism.
  class EventHeap {
   public:
    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }
    const Event& top() const { return items_.front(); }

    void push(Event ev) {
      items_.push_back(std::move(ev));
      sift_up(items_.size() - 1);
    }

    /// Removes and returns the minimum element.
    Event pop_min() {
      Event min = std::move(items_.front());
      if (items_.size() > 1) {
        items_.front() = std::move(items_.back());
        items_.pop_back();
        sift_down(0);
      } else {
        items_.pop_back();
      }
      return min;
    }

   private:
    void sift_up(std::size_t i) {
      while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!items_[i].before(items_[parent])) break;
        std::swap(items_[i], items_[parent]);
        i = parent;
      }
    }

    void sift_down(std::size_t i) {
      const std::size_t n = items_.size();
      while (true) {
        std::size_t smallest = i;
        std::size_t left = 2 * i + 1;
        std::size_t right = left + 1;
        if (left < n && items_[left].before(items_[smallest])) smallest = left;
        if (right < n && items_[right].before(items_[smallest]))
          smallest = right;
        if (smallest == i) break;
        std::swap(items_[i], items_[smallest]);
        i = smallest;
      }
    }

    std::vector<Event> items_;
  };

  void step() {
    // Extract before running: the callback may schedule new events, which
    // mutates the heap.
    Event ev = queue_.pop_min();
    now_ = ev.at;
    ev.fn();
  }

  SimTime now_;
  std::uint64_t seq_ = 0;
  EventHeap queue_;
  BufferPool buffers_;
  StreamTable streams_;
};

}  // namespace peering::sim

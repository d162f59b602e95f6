// Deterministic discrete-event simulation core. All protocol machinery in
// the library (link transmission, ARP, BGP timers, enforcement windows) is
// driven by a single EventLoop, so an entire multi-PoP PEERING deployment
// executes reproducibly inside one process.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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

/// Values parked until an event takes them, by slot: a vector plus a free
/// list. Taking a value frees its slot for the next park, so the table is
/// as large as the most values ever parked at once.
template <typename T>
class SlotTable {
 public:
  /// Constructs the value in its slot from `args`.
  template <typename... Args>
  std::uint32_t park(Args&&... args) {
    if (free_.empty()) {
      values_.emplace_back(std::in_place, std::forward<Args>(args)...);
      return static_cast<std::uint32_t>(values_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    values_[slot].emplace(std::forward<Args>(args)...);
    free_.pop_back();
    return slot;
  }

  /// Moves the value out and frees its slot.
  T take(std::uint32_t slot) {
    T value = std::move(*values_[slot]);
    values_[slot].reset();
    free_.push_back(slot);
    return value;
  }

 private:
  /// Empty while the slot is free.
  std::vector<std::optional<T>> values_;
  std::vector<std::uint32_t> free_;
};

/// The streams of one event loop: every endpoint made on the loop, by id,
/// and the chunks in flight between them. A chunk waits in a slot until its
/// delivery event, which captures only this table and the slot: the
/// closure fits std::function's inline storage and allocates nothing. The
/// chunk names its receiver by id, so delivery is one index, no reference
/// count. Ids are never reused: a destroyed endpoint's entry stays null, so
/// a chunk still in flight to it never reaches an endpoint made later. The
/// table lives as long as the loop and detaches the endpoints that outlive
/// it. The delivery logic lives with StreamEndpoint (sim/stream.cpp).
class StreamTable {
 public:
  StreamTable() = default;
  StreamTable(const StreamTable&) = delete;
  StreamTable& operator=(const StreamTable&) = delete;
  ~StreamTable();

 private:
  friend class StreamEndpoint;
  friend class StreamChannel;

  struct Chunk {
    std::uint32_t to = 0;
    /// Null: the sender closed the stream.
    StreamImage data;
    /// Counts the chunk if its receiver is gone when it arrives (resolved
    /// by the sender: the receiver's own handle died with it).
    obs::Counter* released = nullptr;
  };

  /// Registers an endpoint; returns its id.
  std::uint32_t attach(StreamEndpoint* end);
  void deliver(std::uint32_t slot);

  /// By id; null once the endpoint is destroyed.
  std::vector<StreamEndpoint*> endpoints_;
  SlotTable<Chunk> chunks_;
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
  /// runs deterministic. The Callback is constructed from `fn` in the slot
  /// it waits in, so scheduling moves no std::function.
  template <typename F>
  void schedule_at(SimTime at, F&& fn) {
    if (at < now_) at = now_;
    queue_.push(Event{at, seq_++, callbacks_.park(std::forward<F>(fn))});
  }

  /// Schedules `fn` to run `delay` after the current time.
  template <typename F>
  void schedule_after(Duration delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
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
  /// A queued event: its place in the (time, seq) order and the slot its
  /// callback waits in. Plain data, so the heap moves 24 bytes per swap.
  struct Event {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;

    /// Strict priority: earlier time first; FIFO by sequence within a time.
    bool before(const Event& other) const {
      return at != other.at ? at < other.at : seq < other.seq;
    }
  };

  /// Min-heap over (at, seq). The (time, seq) order makes the extraction
  /// sequence total, so heap-internal tie-breaks can't affect determinism.
  class EventHeap {
   public:
    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }
    const Event& top() const { return items_.front(); }

    void push(Event ev) {
      items_.push_back(ev);
      sift_up(items_.size() - 1);
    }

    /// Removes and returns the minimum element.
    Event pop_min() {
      const Event min = items_.front();
      items_.front() = items_.back();
      items_.pop_back();
      if (!items_.empty()) sift_down(0);
      return min;
    }

   private:
    // Both sifts move the displaced element once, into the hole it ends
    // in, instead of swapping at every level.
    void sift_up(std::size_t i) {
      const Event ev = items_[i];
      while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!ev.before(items_[parent])) break;
        items_[i] = items_[parent];
        i = parent;
      }
      items_[i] = ev;
    }

    void sift_down(std::size_t i) {
      const std::size_t n = items_.size();
      const Event ev = items_[i];
      while (true) {
        std::size_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && items_[child + 1].before(items_[child])) ++child;
        if (!items_[child].before(ev)) break;
        items_[i] = items_[child];
        i = child;
      }
      items_[i] = ev;
    }

    std::vector<Event> items_;
  };

  void step() {
    // Take the callback and free its slot before running it: the callback
    // may schedule new events, which park in the table.
    const Event ev = queue_.pop_min();
    now_ = ev.at;
    const Callback fn = callbacks_.take(ev.slot);
    fn();
  }

  SimTime now_;
  std::uint64_t seq_ = 0;
  EventHeap queue_;
  BufferPool buffers_;
  StreamTable streams_;
  // Callbacks of queued events. Destroyed before the stream table: a
  // pending callback may hold the last reference to an endpoint, which
  // unregisters from the table.
  SlotTable<Callback> callbacks_;
};

}  // namespace peering::sim

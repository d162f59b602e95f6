// Stage-handoff queues for the pipelined speaker.
//
// BoundedQueue<T> is a mutex/condvar MPMC queue with close() semantics: the
// work-queue scheduler feeds its workers through one, and any future
// cross-thread stage handoff (input decode -> decision on a live transport)
// uses the same primitive. push() blocks while full (backpressure instead
// of unbounded growth), pop() blocks while empty, and close() wakes
// everyone: producers see push() == false, consumers drain what is left and
// then see nullopt.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace peering::exec {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full. Returns false (item dropped) once closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. False when full or closed.
  bool try_push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty. nullopt once closed AND drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop. nullopt when currently empty (closed or not).
  std::optional<T> try_pop() {
    std::optional<T> item;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (items_.empty()) return std::nullopt;
      item = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return item;
  }

  /// Wakes all blocked producers and consumers; pushes fail from now on,
  /// pops drain the remaining items then return nullopt.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace peering::exec

// A bounded FIFO that keeps the most recent `capacity` items, oldest first:
// the storage behind the event trace and the control-plane enforcer's
// attribution log. Once full it overwrites in place, so its memory stays
// fixed however many items pass through.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace peering::obs {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return items_.size(); }
  /// The `i`-th held item, oldest first.
  const T& operator[](std::size_t i) const {
    return items_[(head_ + i) % items_.size()];
  }

  /// Appends `item`; returns true if that evicted the oldest item. Needs a
  /// positive capacity.
  bool push(T item) {
    if (items_.size() < capacity_) {
      items_.push_back(std::move(item));
      return false;
    }
    items_[head_] = std::move(item);
    head_ = (head_ + 1) % capacity_;
    return true;
  }

  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<T> items_;  // grows to capacity_, then cycles
  std::size_t head_ = 0;  // index of the oldest item once full
};

}  // namespace peering::obs

// Bounded structured-event trace ring. Components emit small key/value
// events (session transitions, enforcement verdicts, churn milestones)
// stamped with the sim virtual clock and a monotone sequence number; the
// ring keeps the most recent `capacity` events and counts what it dropped.
// Export is JSON-lines, one event per line, in arrival order — and because
// every field is either caller-provided or sim-derived, two same-seed runs
// export byte-identical files.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netbase/time.h"
#include "obs/ring.h"

namespace peering::obs {

/// Appends `s` to `out` as the body of a JSON string: quotes and
/// backslashes escaped, \n \t \r by name, other control bytes as \u00XX.
/// Every JSON writer in the tree (trace lines, metric snapshots, monitor
/// records) escapes through it.
void append_json_escaped(std::string& out, std::string_view s);

struct TraceEvent {
  std::uint64_t seq = 0;  // 1-based, monotone across the ring's lifetime
  SimTime at;
  std::string category;  // "bgp", "enforce", "vbgp", ...
  std::string name;      // event name within the category
  std::vector<std::pair<std::string, std::string>> fields;
};

class EventTrace {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  explicit EventTrace(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  std::size_t capacity() const { return ring_.capacity(); }
  /// Resizing clears the ring.
  void set_capacity(std::size_t capacity);

  void emit(SimTime at, std::string_view category, std::string_view name,
            std::initializer_list<
                std::pair<std::string_view, std::string_view>>
                fields = {});

  /// Events currently held, oldest first.
  std::size_t size() const { return ring_.size(); }
  /// Events evicted to honor the capacity bound.
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t total_emitted() const { return next_seq_ - 1; }

  /// Visits held events oldest-first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < ring_.size(); ++i) fn(ring_[i]);
  }

  /// JSON-lines export, oldest event first.
  std::string to_jsonl() const;

  void clear();

 private:
  bool enabled_ = true;
  Ring<TraceEvent> ring_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dropped_ = 0;
};

}  // namespace peering::obs

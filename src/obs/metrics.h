// obs::Registry: the platform-wide telemetry registry (ISSUE 4, §5–§6 of
// the paper). Three instrument kinds — Counter, Gauge, and a base-2
// log-bucketed Histogram — are registered under a metric name plus a small
// label set (pop / peer / experiment / rule / ...). Call sites resolve an
// instrument ONCE (a map lookup) and keep the returned pointer; the hot
// path is then a single integer add, no hashing, no locking. Instruments
// are plain integers: the platform is single-threaded.
//
// Determinism contract: every instrument value is an integer, instruments
// are snapshotted in canonical (kind, name, sorted-labels) order, and
// wall-clock ("timing") series are tagged so the default snapshot excludes
// them. Two same-seed simulation runs therefore produce byte-identical
// Snapshot::to_json() / to_prometheus() documents — the property the
// AMS-IX replay bench and CI gate rely on.
//
// Toggle: a disabled Registry hands out shared no-op instruments (one per
// kind, live() == false) and stores no series, so components constructed
// under the default registry cost one pointer indirection and a
// predictable branch per event. The process-global default registry
// starts disabled; benches and tests install an enabled one with
// obs::Scope before constructing the components they observe.
//
// Cardinality: each metric family (kind + name) holds at most
// label_cap() distinct label sets; past the cap, new label sets collapse
// into a single {"overflow"="true"} series so a misbehaving experiment
// cannot balloon the registry.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netbase/time.h"
#include "obs/trace.h"

namespace peering::obs {

/// Label set: (key, value) pairs. Canonicalized (sorted by key) at
/// registration; order given by the caller does not matter.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotone event count. `add` on a live counter is one integer add; on
/// the shared no-op instrument it is a predictable branch and nothing else.
class Counter {
 public:
  void add(std::uint64_t n) {
    if (live_) value_ += n;
  }
  void inc() { add(1); }
  std::uint64_t value() const { return value_; }
  /// False only for the shared no-op instrument of a disabled registry.
  bool live() const { return live_; }

 private:
  friend class Registry;
  std::uint64_t value_ = 0;
  bool live_ = true;
};

/// Point-in-time level (bytes held, sessions up, ...). Signed.
class Gauge {
 public:
  void set(std::int64_t v) {
    if (live_) value_ = v;
  }
  void add(std::int64_t n) {
    if (live_) value_ += n;
  }
  std::int64_t value() const { return value_; }
  bool live() const { return live_; }

 private:
  friend class Registry;
  std::int64_t value_ = 0;
  bool live_ = true;
};

/// Base-2 log-bucketed histogram of non-negative integer samples.
/// Bucket 0 holds the value 0; bucket i (1..64) holds values with
/// bit_width == i, i.e. the range [2^(i-1), 2^i - 1]. Recording costs a
/// bit_width plus three integer adds — cheap enough for per-lookup use.
class Histogram {
 public:
  static constexpr int kBucketCount = 65;  // value 0 + one per bit width

  static int bucket_index(std::uint64_t v) {
    return v == 0 ? 0 : std::bit_width(v);
  }
  /// Inclusive upper bound of bucket i (used for the Prometheus `le`).
  static std::uint64_t bucket_upper_bound(int i) {
    if (i <= 0) return 0;
    if (i >= 64) return ~0ull;
    return (1ull << i) - 1;
  }

  void record(std::uint64_t v) {
    if (!live_) return;
    ++count_;
    sum_ += v;
    ++buckets_[bucket_index(v)];
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  /// q-quantile (q in [0,1]) estimated by linear interpolation inside the
  /// log2 bucket holding the target rank. 0 when empty.
  std::uint64_t quantile(double q) const;
  std::uint64_t bucket(int i) const { return buckets_[i]; }
  bool live() const { return live_; }
  /// True for wall-clock-valued histograms: excluded from deterministic
  /// snapshots (see SnapshotOptions::include_timing).
  bool timing() const { return timing_; }

 private:
  friend class Registry;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t buckets_[kBucketCount] = {};
  bool live_ = true;
  bool timing_ = false;
};

/// One series in a snapshot. Values are integers only.
struct SeriesData {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  std::string name;
  Labels labels;  // canonical (key-sorted)
  Kind kind = Kind::kCounter;
  bool timing = false;
  std::int64_t value = 0;    // counter / gauge
  std::uint64_t count = 0;   // histogram
  std::uint64_t sum = 0;     // histogram
  /// Non-empty buckets as (inclusive upper bound, count), ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;

  /// q-quantile of a histogram series (see Histogram::quantile). 0 for
  /// counters/gauges and empty histograms.
  std::uint64_t quantile(double q) const;
};

struct SnapshotOptions {
  /// Include wall-clock ("timing") histograms. Off by default: the default
  /// snapshot is deterministic across same-seed runs.
  bool include_timing = false;
};

/// A consistent, ordered copy of every live series. Rendering is pure.
struct Snapshot {
  SimTime at;
  std::vector<SeriesData> series;

  /// Pretty-printed JSON document (stable field order, integers only).
  std::string to_json() const;
  /// Prometheus text exposition (counters/gauges/cumulative histograms).
  std::string to_prometheus() const;

  const SeriesData* find(std::string_view name,
                         const Labels& labels = {}) const;
  /// Value of an exact (name, labels) counter/gauge series, or `fallback`.
  std::int64_t value(std::string_view name, const Labels& labels = {},
                     std::int64_t fallback = 0) const;
  /// Sum of a counter/gauge family's values across all label sets.
  std::int64_t total(std::string_view name) const;
};

class Registry {
 public:
  static constexpr std::size_t kDefaultLabelCap = 256;

  explicit Registry(bool enabled = true) : enabled_(enabled) {
    trace_.set_enabled(enabled);
  }
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Whether instrument registration is live. Flipping affects only
  /// instruments resolved afterwards — existing handles keep their state.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) {
    enabled_ = on;
    trace_.set_enabled(on);
  }

  /// Max distinct label sets per metric family before overflow collapse.
  std::size_t label_cap() const { return label_cap_; }
  void set_label_cap(std::size_t cap) { label_cap_ = cap; }

  /// Resolve-or-create. Pointers are stable for the registry's lifetime;
  /// cache them. On a disabled registry these return the shared no-op
  /// instrument of the matching kind.
  Counter* counter(std::string_view name, const Labels& labels = {});
  Gauge* gauge(std::string_view name, const Labels& labels = {});
  Histogram* histogram(std::string_view name, const Labels& labels = {});
  /// A histogram carrying wall-clock durations: tagged so deterministic
  /// snapshots skip it.
  Histogram* timing_histogram(std::string_view name,
                              const Labels& labels = {});

  /// Collectors run at snapshot time to publish derived state (struct
  /// counters, memory accounting) as gauges. Returns a token for
  /// remove_collector; components deregister in their destructors.
  /// No-op (returns 0) on a disabled registry.
  std::uint64_t add_collector(std::function<void(Registry&)> fn);
  void remove_collector(std::uint64_t token);

  /// Bounded structured-event trace ring attached to this registry.
  EventTrace& trace() { return trace_; }
  const EventTrace& trace() const { return trace_; }

  /// Runs collectors, then copies every series in canonical order.
  Snapshot snapshot(SimTime at = SimTime{},
                    const SnapshotOptions& opts = {});

  std::size_t series_count() const { return series_.size(); }

  /// Process-global default registry. Starts disabled: a platform run
  /// without telemetry pays only the no-op instruments. Components capture
  /// global() at construction, so install an enabled registry (via Scope)
  /// BEFORE constructing the components to observe.
  static Registry* global();
  /// Swaps the global registry; returns the previous one (never null).
  static Registry* install(Registry* registry);

  /// Shared no-op instruments (live() == false, mutators discard).
  static Counter* nop_counter();
  static Gauge* nop_gauge();
  static Histogram* nop_histogram();

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Series {
    std::string name;
    Labels labels;
    Kind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  /// Finds or creates the series slot; nullptr means "use the overflow
  /// series" was itself just created, never happens — returns the slot.
  Series* resolve(Kind kind, std::string_view name, const Labels& labels,
                  bool timing);

  bool enabled_;
  std::size_t label_cap_ = kDefaultLabelCap;
  // Canonical key ("k<name>\x1f<labels>") -> series. std::map gives the
  // deterministic snapshot order for free; creation is cold-path only.
  std::map<std::string, Series> series_;
  std::map<std::string, std::size_t> family_sizes_;  // "k<name>" -> series
  // Instrument storage: deques for pointer stability.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<std::pair<std::uint64_t, std::function<void(Registry&)>>>
      collectors_;
  std::uint64_t next_collector_token_ = 1;
  EventTrace trace_;
};

/// RAII install of a registry as the process-global default.
class Scope {
 public:
  explicit Scope(Registry* registry) : previous_(Registry::install(registry)) {}
  ~Scope() { Registry::install(previous_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Registry* previous_;
};

}  // namespace peering::obs

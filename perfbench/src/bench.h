// Shared types of the benchmark: options, metrics, the workload inputs and
// the span recorder of the traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bgp/attributes.h"
#include "inet/route_feed.h"
#include "netbase/bytes.h"
#include "netbase/mac.h"
#include "netbase/prefix.h"
#include "world.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Correctness ledger: every operation the benchmark attempts (update
/// injected, frame sent, check made) and every one whose result was wrong.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> first_failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_failures.size() < 10) first_failures.push_back(what);
  }
  void count(std::uint64_t n) { attempted += n; }
};

/// One injected UPDATE of a churn round.
struct Step {
  int neighbor = -1;    // source neighbor, or
  int experiment = -1;  // source experiment
  Bytes wire;
  Ipv4Prefix prefix;
  bool withdraw = false;
  /// Experiment announcements only: the enforcement engine must reject it.
  bool hostile = false;
  /// Experiment announcements only: neighbors (indexes) it must reach.
  std::vector<int> reach;
};

/// A closed round: replaying every step leaves every Loc-RIB as it was.
struct Round {
  std::vector<Step> steps;
  std::vector<Ipv4Prefix> touched;
};

/// One pre-encoded frame and where it must come out.
struct Frame {
  enum class Source : std::uint8_t { kNeighbor, kExperiment };
  enum class Sink : std::uint8_t { kNone, kNeighbor, kExperiment };
  Source source = Source::kNeighbor;
  int source_index = 0;
  Bytes wire;
  Sink sink = Sink::kNone;
  int sink_index = 0;
  MacAddress want_dst;
  MacAddress want_src;
  Ipv4Address dst;
  std::uint8_t protocol = 0;
  std::uint16_t ident = 0;
  /// Egress frames: the experiment whose filter runs, and the neighbor
  /// view the demux selects (layer replays).
  int filter_experiment = -1;
  int view_neighbor = -1;
};

/// In-memory span store of the traced run, written out when the run ends.
class SpanLog {
 public:
  static constexpr std::size_t kCap = 1'000'000;
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t burst;
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  /// Records a span; returns its id (0 when the store is full).
  std::uint64_t add(std::uint64_t parent, std::uint64_t burst, const char* name,
                    std::uint64_t start_ns, std::uint64_t end_ns);
  std::size_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  /// One JSON object per line. Returns false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

int run(const Options& options);

/// Names and units of the metrics each mode prints, in print order.
std::vector<std::pair<std::string, std::string>> end_to_end_metric_names();
std::vector<std::pair<std::string, std::string>> per_layer_metric_names();
std::vector<std::string> workload_names();

}  // namespace perfbench

// Heap allocation counters: the benchmark binary replaces the global
// operator new/delete with counting versions, so a phase can report
// allocations and bytes per update or per packet. The counts are a
// deterministic cost proxy: same seed, same work, same counts.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;

  AllocCounts operator-(const AllocCounts& o) const {
    return {allocs - o.allocs, bytes - o.bytes};
  }
};

/// Totals since process start (the benchmark is single-threaded; the
/// counters are still atomic so library threads could not corrupt them).
AllocCounts alloc_counts();

}  // namespace perfbench

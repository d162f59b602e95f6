// Timing helpers of the benchmark: windowed statistics and host
// normalisation against a fixed reference kernel.
//
// Every timed phase is cut into windows of a fixed amount of work. Right
// after each window the benchmark runs the reference kernel; the window's
// wall time and every latency sample inside it are scaled by
// kKernelNominalNs / kernel_ns, so a host that is slow for a while (CPU
// steal, frequency drops, a noisy neighbour) slows the kernel by about the
// same factor and the scaled figure stays put.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Value at quantile q in [0, 1] of `values` (linear interpolation between
/// closest ranks, as numpy's default). Sorts a copy. 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The reference kernel: builds a private node-based hash table (one heap
/// node per key, chained buckets) and probes it, half hits and half misses,
/// then frees it. Pointer chasing, hash probes and the allocator are what
/// the platform's per-update and per-packet paths spend their time on, so
/// the kernel slows down with the host the way the program does. Its work
/// is fixed forever: a later commit that changed it would change every
/// normalised figure.
class RefKernel {
 public:
  /// Runs the kernel once; returns its wall time in ns.
  std::uint64_t run();

 private:
  std::uint64_t sink_ = 0;
};

/// Moves the process to the allowed CPU on which the kernel runs fastest
/// and keeps it there. On a shared host one vCPU is often much slower than
/// the others for a while (a busy neighbour on its core); starting a phase
/// there would slow every window beyond what the kernel can correct.
/// Returns the chosen CPU, or -1 if the affinity cannot be read or set.
int pin_to_fastest_cpu(RefKernel& kernel);

/// Wall time the kernel is scaled to: about its median time on the 4-vCPU
/// Xeon KVM host the benchmark was tuned on, so normalised figures read like
/// wall times there. Fixed once; only ratios matter.
inline constexpr double kKernelNominalNs = 200'000.0;

/// One timed window: its work count, raw wall time and the adjacent
/// kernel time, plus the latency samples taken inside it.
struct Window {
  std::uint64_t work = 0;
  std::uint64_t raw_ns = 0;
  std::uint64_t kernel_ns = 0;
  std::vector<double> samples;  // raw ns

  double factor() const {
    return kernel_ns == 0 ? 1.0 : kKernelNominalNs / static_cast<double>(kernel_ns);
  }
  double norm_ns() const { return static_cast<double>(raw_ns) * factor(); }
};

/// Collects the windows of one phase and reduces them.
class WindowSet {
 public:
  void add(Window w) { windows_.push_back(std::move(w)); }
  const std::vector<Window>& windows() const { return windows_; }
  bool empty() const { return windows_.empty(); }

  /// Work per second: window work over the median normalised window time,
  /// for windows of the same work (the phase keeps window work fixed).
  double rate_per_s() const;
  /// Median over windows of each window's normalised time per unit of
  /// work, in ns.
  double median_ns_per_work() const;
  /// Latency percentile q: samples are scaled by their window's factor and
  /// pooled into groups of at least `min_group` consecutive samples; q is
  /// taken inside each group and the median across groups is returned.
  double latency_quantile(double q, std::size_t min_group = 1000) const;
  /// Number of latency samples across all windows.
  std::size_t sample_count() const;
  /// Median raw window time, ns (reported so a reader can check that
  /// normalisation hid nothing).
  double raw_window_p50_ns() const;
  /// Median kernel time, ns.
  double kernel_p50_ns() const;

 private:
  std::vector<Window> windows_;
};

}  // namespace perfbench

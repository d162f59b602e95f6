// Self-tests of the benchmark's own helpers: the windowed statistics and
// the reference normalisation. Exits non-zero on the first failure.
//
//   perfbench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "stats.h"

namespace {

int failures = 0;

void expect_near(double got, double want, double tol, const char* what) {
  if (std::fabs(got - want) <= tol) return;
  std::fprintf(stderr, "FAIL %s: got %.9g want %.9g\n", what, got, want);
  ++failures;
}

using perfbench::Window;
using perfbench::WindowSet;

void quantiles() {
  expect_near(perfbench::quantile({}, 0.5), 0.0, 0, "empty quantile");
  expect_near(perfbench::median({3, 1, 2}), 2.0, 0, "odd median");
  expect_near(perfbench::median({4, 1, 3, 2}), 2.5, 0, "even median");
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  expect_near(perfbench::quantile(v, 0.99), 100.0, 1e-9, "p99 of 1..101");
  expect_near(perfbench::quantile(v, 0.0), 1.0, 0, "p0");
  expect_near(perfbench::quantile(v, 1.0), 101.0, 0, "p100");
  expect_near(perfbench::quantile({10, 20}, 0.25), 12.5, 1e-12, "interpolation");
}

/// A window of `work` units whose samples are 1..n ns scaled by `slow`,
/// followed by a kernel that took nominal * `slow`.
Window window(int n, double slow) {
  Window w;
  w.work = static_cast<std::uint64_t>(n);
  for (int i = 1; i <= n; ++i) w.samples.push_back(i * slow);
  w.raw_ns = static_cast<std::uint64_t>(std::llround(slow * n * (n + 1) / 2));
  w.kernel_ns = static_cast<std::uint64_t>(std::llround(perfbench::kKernelNominalNs * slow));
  return w;
}

void windowed() {
  // Median across windows: the outlier window does not move the rate.
  WindowSet set;
  for (double slow : {1.0, 1.0, 1.0}) set.add(window(1000, slow));
  Window outlier = window(1000, 1.0);
  outlier.raw_ns *= 5;
  set.add(outlier);
  set.add(window(1000, 1.0));
  const double per_work = 1000.0 * 1001 / 2 / 1000;
  expect_near(set.median_ns_per_work(), per_work, 1e-9, "median ns per work");
  expect_near(set.rate_per_s(), 1e9 / per_work, 1e-3, "rate");
  // Percentiles inside each >=1000-sample group, median across groups.
  expect_near(set.latency_quantile(0.5), 500.5, 1e-9, "windowed p50");
  expect_near(set.latency_quantile(0.99), 990.01, 1e-9, "windowed p99");
  expect_near(static_cast<double>(set.sample_count()), 5000, 0, "sample count");
  // Small windows pool until a group holds 1000 samples.
  WindowSet small;
  for (int i = 0; i < 10; ++i) small.add(window(100, 1.0));
  expect_near(small.latency_quantile(0.5), 50.5, 1e-9, "pooled p50");
}

void normalisation() {
  // A synthetic slowdown applied to a window and its adjacent kernel
  // cancels: every normalised figure equals the unslowed one.
  for (double slow : {0.5, 1.7, 3.0}) {
    WindowSet base, slowed;
    for (int i = 0; i < 3; ++i) {
      base.add(window(1000, 1.0));
      slowed.add(window(1000, slow));
    }
    expect_near(slowed.median_ns_per_work(), base.median_ns_per_work(), 1e-3,
                "normalised window time");
    expect_near(slowed.latency_quantile(0.99), base.latency_quantile(0.99), 1e-6,
                "normalised p99");
    expect_near(slowed.raw_window_p50_ns() / base.raw_window_p50_ns(), slow, 1e-3,
                "raw window keeps the slowdown");
  }
  // Mixed: one slow stretch among fast ones changes nothing either.
  WindowSet mixed;
  mixed.add(window(1000, 1.0));
  mixed.add(window(1000, 2.5));
  mixed.add(window(1000, 1.0));
  expect_near(mixed.latency_quantile(0.5), 500.5, 1e-6, "mixed p50");
}

void kernel_runs() {
  perfbench::RefKernel kernel;
  const std::uint64_t t = kernel.run();
  if (t == 0) {
    std::fprintf(stderr, "FAIL kernel took no time\n");
    ++failures;
  }
}

}  // namespace

int main() {
  quantiles();
  windowed();
  normalisation();
  kernel_runs();
  if (failures) {
    std::fprintf(stderr, "%d self-test failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}

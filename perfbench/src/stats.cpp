#include "stats.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {
constexpr std::uint64_t kKeys = 2'000;
constexpr std::uint64_t kProbes = 4'000;

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

std::uint64_t RefKernel::run() {
  const std::uint64_t start = now_ns();
  std::uint64_t found = 0;
  {
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    for (std::uint64_t i = 0; i < kKeys; ++i) table[mix(i)] = i;
    // Even probes hit (keys 0..1999), odd probes miss (keys from 2000 up).
    for (std::uint64_t i = 0; i < kProbes; ++i) {
      auto it = table.find(mix(i % 2 == 0 ? i / 2 : kKeys + i));
      if (it != table.end()) found += it->second;
    }
  }
  sink_ += found;
  return now_ns() - start;
}

int pin_to_fastest_cpu(RefKernel& kernel) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  // Widen back to every online CPU a previous call may have narrowed to.
  cpu_set_t all;
  CPU_ZERO(&all);
  const int online = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  for (int c = 0; c < online && c < CPU_SETSIZE; ++c) CPU_SET(c, &all);
  if (CPU_COUNT(&allowed) == 1 && sched_setaffinity(0, sizeof all, &all) == 0)
    allowed = all;
  int best = -1;
  double best_ns = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    std::vector<double> times;
    for (int i = 0; i < 25; ++i) times.push_back(static_cast<double>(kernel.run()));
    const double t = median(std::move(times));
    if (best < 0 || t < best_ns) {
      best = c;
      best_ns = t;
    }
  }
  if (best < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? best : -1;
}

double WindowSet::rate_per_s() const {
  const double per_work = median_ns_per_work();
  return per_work <= 0.0 ? 0.0 : 1e9 / per_work;
}

double WindowSet::median_ns_per_work() const {
  std::vector<double> v;
  v.reserve(windows_.size());
  for (const auto& w : windows_)
    if (w.work > 0) v.push_back(w.norm_ns() / static_cast<double>(w.work));
  return median(std::move(v));
}

double WindowSet::latency_quantile(double q, std::size_t min_group) const {
  std::vector<double> per_group;
  std::vector<double> group;
  for (const auto& w : windows_) {
    const double f = w.factor();
    for (double s : w.samples) group.push_back(s * f);
    if (group.size() >= min_group) {
      per_group.push_back(quantile(group, q));
      group.clear();
    }
  }
  // A trailing partial group joins the reduction only when nothing else
  // reached the minimum size.
  if (per_group.empty() && !group.empty())
    per_group.push_back(quantile(group, q));
  return median(std::move(per_group));
}

std::size_t WindowSet::sample_count() const {
  std::size_t n = 0;
  for (const auto& w : windows_) n += w.samples.size();
  return n;
}

double WindowSet::raw_window_p50_ns() const {
  std::vector<double> v;
  for (const auto& w : windows_) v.push_back(static_cast<double>(w.raw_ns));
  return median(std::move(v));
}

double WindowSet::kernel_p50_ns() const {
  std::vector<double> v;
  for (const auto& w : windows_) v.push_back(static_cast<double>(w.kernel_ns));
  return median(std::move(v));
}

}  // namespace perfbench

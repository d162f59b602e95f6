// Deterministic pseudo-random number generation (splitmix64). Every workload
// generator takes an explicit seed so benchmark and test runs are exactly
// reproducible.
#pragma once

#include <cstdint>

namespace peering {

/// splitmix64 step as a pure function: full avalanche, so consecutive keys
/// hash far apart. Rng::next() returns mix64 of its state before advancing
/// it; the export-group fingerprint hashes with it too.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Next 64-bit value (splitmix64).
  std::uint64_t next() {
    std::uint64_t z = mix64(state_);
    state_ += 0x9e3779b97f4a7c15ull;
    return z;
  }

  /// Uniform value in [0, bound). Precondition: bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  /// Uniform value in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) / 9007199254740992.0;
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

 private:
  std::uint64_t state_;
};

}  // namespace peering

// A small eBPF-like packet-filter virtual machine: the data-plane
// enforcement mechanism of vBGP (§3.3 uses eBPF in the authors'
// deployment). Programs are sequences of simple instructions with
// forward-only jumps (so termination is guaranteed by construction, as in
// real BPF), can read packet bytes, and can consume from stateful token
// buckets for rate limiting. A validator rejects malformed programs before
// they are loaded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ip/ipv4.h"
#include "netbase/prefix.h"
#include "netbase/result.h"
#include "netbase/time.h"

namespace peering::enforce {

enum class FilterOp : std::uint8_t {
  /// acc = packet[k .. k+3] big-endian (0 if out of bounds -> drop branch
  /// is taken via kJmpOob semantics: loads past the end yield 0).
  kLoadWord,
  /// acc = packet[k] (single byte).
  kLoadByte,
  /// acc = packet length.
  kLoadLen,
  /// acc = k.
  kLoadImm,
  /// acc = acc & k.
  kAnd,
  /// acc = acc >> k.
  kRshift,
  /// if (acc == k) jump +jt else +jf.
  kJmpEq,
  /// if (acc > k) jump +jt else +jf (unsigned).
  kJmpGt,
  /// if (acc & k) jump +jt else +jf.
  kJmpSet,
  /// Consume `k` units from token bucket `aux`; jump +jt if tokens were
  /// available, +jf if the bucket is empty (rate exceeded).
  kTokenBucket,
  /// Return PASS.
  kRetPass,
  /// Return DROP.
  kRetDrop,
};

struct FilterInsn {
  FilterOp op = FilterOp::kRetDrop;
  std::uint32_t k = 0;
  std::uint8_t jt = 0;
  std::uint8_t jf = 0;
  /// Auxiliary operand (token bucket index).
  std::uint16_t aux = 0;
};

enum class FilterAction : std::uint8_t { kPass, kDrop };

/// A token bucket refilled continuously at `rate_per_sec`, capped at
/// `burst` tokens.
struct TokenBucketConfig {
  double rate_per_sec = 0;
  double burst = 0;
};

/// Mutable per-filter state: token bucket fill levels.
class FilterState {
 public:
  explicit FilterState(std::vector<TokenBucketConfig> buckets);

  /// Attempts to consume `amount` tokens from bucket `index` at time `now`.
  bool consume(std::size_t index, double amount, SimTime now);

  std::size_t bucket_count() const { return buckets_.size(); }
  double tokens(std::size_t index) const { return buckets_[index].tokens; }

 private:
  struct Bucket {
    TokenBucketConfig config;
    double tokens = 0;
    SimTime last_refill;
  };
  std::vector<Bucket> buckets_;
};

/// A validated, loadable program.
class PacketFilter {
 public:
  /// Validates `program`: nonempty, bounded length, all jumps strictly
  /// forward and in range, terminating instruction reachable fall-through.
  static Result<PacketFilter> load(std::vector<FilterInsn> program);

  /// Runs the program over a packet's raw bytes.
  FilterAction run(std::span<const std::uint8_t> packet, SimTime now,
                   FilterState& state) const;

  std::uint64_t packets_passed() const { return passed_; }
  std::uint64_t packets_dropped() const { return dropped_; }

 private:
  explicit PacketFilter(std::vector<FilterInsn> program)
      : program_(std::move(program)) {}

  std::vector<FilterInsn> program_;
  mutable std::uint64_t passed_ = 0;
  mutable std::uint64_t dropped_ = 0;
};

/// Fluent program builder with the offsets of an IPv4-over-nothing packet
/// (the data plane hands the filter the IP packet, not the frame).
class FilterBuilder {
 public:
  FilterBuilder& load_word(std::uint32_t offset);
  FilterBuilder& load_byte(std::uint32_t offset);
  FilterBuilder& load_src_ip() { return load_word(12); }
  FilterBuilder& load_len();
  FilterBuilder& and_(std::uint32_t mask);
  FilterBuilder& rshift(std::uint32_t bits);
  /// Jump offsets are resolved relative to the *next* instruction.
  FilterBuilder& jmp_eq(std::uint32_t k, std::uint8_t jt, std::uint8_t jf);
  FilterBuilder& jmp_gt(std::uint32_t k, std::uint8_t jt, std::uint8_t jf);
  FilterBuilder& token_bucket(std::uint16_t bucket, std::uint32_t cost,
                              std::uint8_t jt, std::uint8_t jf);
  FilterBuilder& ret_pass();
  FilterBuilder& ret_drop();

  std::vector<FilterInsn> take() { return std::move(program_); }

 private:
  std::vector<FilterInsn> program_;
};

/// Compiles the standard vBGP source-address verification program: PASS iff
/// the packet's source address falls inside one of `allocations`, otherwise
/// DROP (anti-spoofing, §4.7: "cannot ... source traffic using address
/// space that is not part of the experiment's allocation").
Result<PacketFilter> build_source_check_filter(
    const std::vector<Ipv4Prefix>& allocations);

/// Same as build_source_check_filter but additionally meters packet bytes
/// against token bucket 0 (per-experiment rate limiting).
Result<PacketFilter> build_source_check_and_rate_filter(
    const std::vector<Ipv4Prefix>& allocations);

}  // namespace peering::enforce

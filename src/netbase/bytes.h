// Bounds-checked big-endian (network byte order) serialization primitives.
// All wire formats in the library (Ethernet, ARP, IPv4, ICMP, BGP) are
// encoded and decoded through ByteWriter / ByteReader, so out-of-bounds
// access is structurally impossible: every read reports failure instead of
// touching memory outside the buffer.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "netbase/result.h"

namespace peering {

using Bytes = std::vector<std::uint8_t>;

/// Appends big-endian encoded integers and raw bytes to a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }
  /// Adopts an existing buffer and appends to it; take() hands it back.
  /// Lets encoders build directly into a caller's accumulation buffer.
  explicit ByteWriter(Bytes&& adopt) : buf_(std::move(adopt)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void raw(const Bytes& data) { raw(std::span<const std::uint8_t>(data)); }

  /// Writes a 16-bit big-endian length at a previously reserved position.
  /// Used for BGP message/attribute length fields that are only known after
  /// the body has been serialized.
  std::size_t reserve_u16() {
    std::size_t pos = buf_.size();
    u16(0);
    return pos;
  }
  void patch_u16(std::size_t pos, std::uint16_t v) {
    buf_[pos] = static_cast<std::uint8_t>(v >> 8);
    buf_[pos + 1] = static_cast<std::uint8_t>(v);
  }

  std::size_t size() const { return buf_.size(); }
  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Sequentially consumes big-endian integers and raw byte runs from a
/// read-only view. Every accessor reports failure (without advancing) when
/// fewer bytes remain than requested.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit ByteReader(const Bytes& data)
      : data_(std::span<const std::uint8_t>(data)) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool empty() const { return remaining() == 0; }

  Result<std::uint8_t> u8() {
    if (remaining() < 1) return Error("u8: buffer underrun");
    return data_[pos_++];
  }
  Result<std::uint16_t> u16() {
    if (remaining() < 2) return Error("u16: buffer underrun");
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8) |
                      static_cast<std::uint16_t>(data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  Result<std::uint32_t> u32() {
    if (remaining() < 4) return Error("u32: buffer underrun");
    std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                      (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                      (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                      static_cast<std::uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  Result<std::uint64_t> u64() {
    auto hi = u32();
    if (!hi) return hi.error();
    auto lo = u32();
    if (!lo) return lo.error();
    return (static_cast<std::uint64_t>(*hi) << 32) | *lo;
  }

  /// Returns a view of the next n bytes and advances past them.
  Result<std::span<const std::uint8_t>> raw(std::size_t n) {
    if (remaining() < n) return Error("raw: buffer underrun");
    auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  /// Copies the next n bytes into an owned buffer.
  Result<Bytes> bytes(std::size_t n) {
    auto view = raw(n);
    if (!view) return view.error();
    return Bytes(view->begin(), view->end());
  }

  /// Skips n bytes.
  Status skip(std::size_t n) {
    if (remaining() < n) return Error("skip: buffer underrun");
    pos_ += n;
    return Status::Ok();
  }

  /// Returns a sub-reader over the next n bytes and advances past them.
  /// Used for length-delimited substructures (BGP path attributes).
  Result<ByteReader> sub(std::size_t n) {
    auto view = raw(n);
    if (!view) return view.error();
    return ByteReader(*view);
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Renders bytes as lowercase hex, two digits per byte (debugging aid).
std::string to_hex(std::span<const std::uint8_t> data);

}  // namespace peering

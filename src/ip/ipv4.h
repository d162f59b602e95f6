// IPv4 header representation and wire codec (RFC 791, no options, no
// fragmentation — the simulated links carry whole datagrams).
//
// Ipv4Header is the one header validator: it checks a datagram in place
// over the wire buffer. Routers forward through it (decrement_ttl rewrites
// the TTL and checksum in place); Ipv4Packet::decode builds the owned
// struct on top of it for the slow paths.
#pragma once

#include <cstdint>
#include <span>

#include "netbase/bytes.h"
#include "netbase/ip.h"
#include "netbase/result.h"

namespace peering::ip {

/// IP protocol numbers used in the simulation.
enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

/// An IPv4 header validated in place: at least 20 bytes, correct header
/// checksum, version 4, IHL 5 (no options), and a total length between 20
/// and the buffer size. Errors carry an ether::DropReason code. Borrows
/// the buffer; bytes past total_length() (link padding) are not part of
/// the datagram.
class Ipv4Header {
 public:
  static constexpr std::size_t kLength = 20;

  static Result<Ipv4Header> parse(std::span<const std::uint8_t> data);

  std::uint8_t tos() const { return data_[1]; }
  std::uint16_t total_length() const { return u16_at(2); }
  std::uint16_t identification() const { return u16_at(4); }
  std::uint8_t ttl() const { return data_[8]; }
  std::uint8_t protocol() const { return data_[9]; }
  Ipv4Address src() const { return Ipv4Address(u32_at(12)); }
  Ipv4Address dst() const { return Ipv4Address(u32_at(16)); }

  /// The datagram: header and payload, without link padding.
  std::span<const std::uint8_t> datagram() const {
    return data_.first(total_length());
  }
  std::span<const std::uint8_t> payload() const {
    return datagram().subspan(kLength);
  }

 private:
  std::uint16_t u16_at(std::size_t at) const {
    return static_cast<std::uint16_t>((data_[at] << 8) | data_[at + 1]);
  }
  std::uint32_t u32_at(std::size_t at) const {
    return (static_cast<std::uint32_t>(u16_at(at)) << 16) | u16_at(at + 2);
  }

  std::span<const std::uint8_t> data_;
};

/// Decrements the TTL of the validated header at the start of `header` and
/// updates its checksum incrementally (RFC 1624, eqn. 3). The result equals
/// a full recomputation. Precondition: `header.size() >= 20` and TTL > 0.
void decrement_ttl(std::span<std::uint8_t> header);

struct Ipv4Packet {
  std::uint8_t dscp = 0;
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  Ipv4Address src;
  Ipv4Address dst;
  Bytes payload;

  /// Serializes with a freshly computed header checksum (ECN 0, DF set).
  Bytes encode() const;
  /// Appends the serialized packet to `out`.
  void encode_append(Bytes& out) const;

  /// Parses and validates the header (Ipv4Header::parse).
  static Result<Ipv4Packet> decode(std::span<const std::uint8_t> data);

  std::size_t total_length() const { return 20 + payload.size(); }
};

/// RFC 1071 ones-complement checksum over `data`.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

}  // namespace peering::ip

// ICMP (RFC 792): echo, destination-unreachable, and time-exceeded. Routers
// in the simulation generate TTL-exceeded errors sourced from the inbound
// interface's *primary* address — the property PEERING's network controller
// goes out of its way to preserve (§5), and which traceroute relies on.
#pragma once

#include <cstdint>

#include "ip/ipv4.h"
#include "netbase/bytes.h"
#include "netbase/result.h"

namespace peering::ip {

enum class IcmpType : std::uint8_t {
  kEchoReply = 0,
  kDestUnreachable = 3,
  kEchoRequest = 8,
  kTimeExceeded = 11,
};

struct IcmpMessage {
  IcmpType type = IcmpType::kEchoRequest;
  std::uint8_t code = 0;
  /// For echo: (identifier << 16) | sequence. For errors: unused (zero).
  std::uint32_t rest = 0;
  /// For echo: user data. For errors: offending IP header + first 8 payload
  /// bytes, per RFC 792.
  Bytes body;

  Bytes encode() const;
  static Result<IcmpMessage> decode(std::span<const std::uint8_t> data);

  std::uint16_t echo_id() const { return static_cast<std::uint16_t>(rest >> 16); }
  std::uint16_t echo_seq() const { return static_cast<std::uint16_t>(rest); }
};

/// Builds an echo request with the given id/sequence and payload.
IcmpMessage make_echo_request(std::uint16_t id, std::uint16_t seq, Bytes data);

/// Builds the reply matching `request`.
IcmpMessage make_echo_reply(const IcmpMessage& request);

/// Builds a time-exceeded (TTL) error quoting the offending datagram's
/// wire bytes (header + first 8 payload bytes).
IcmpMessage make_time_exceeded(std::span<const std::uint8_t> offending);

/// Builds a destination-unreachable error (code 0 net, 1 host, 3 port).
IcmpMessage make_unreachable(std::span<const std::uint8_t> offending,
                             std::uint8_t code);

/// Wraps an ICMP message in an IPv4 packet from src to dst.
Ipv4Packet wrap_icmp(const IcmpMessage& msg, Ipv4Address src, Ipv4Address dst,
                     std::uint8_t ttl = 64);

}  // namespace peering::ip

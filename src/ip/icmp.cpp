#include "ip/icmp.h"

#include <algorithm>

namespace peering::ip {

Bytes IcmpMessage::encode() const {
  ByteWriter w(8 + body.size());
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(code);
  std::size_t checksum_pos = w.reserve_u16();
  w.u32(rest);
  w.raw(body);
  Bytes out = w.take();
  std::uint16_t checksum = internet_checksum(out);
  out[checksum_pos] = static_cast<std::uint8_t>(checksum >> 8);
  out[checksum_pos + 1] = static_cast<std::uint8_t>(checksum);
  return out;
}

Result<IcmpMessage> IcmpMessage::decode(std::span<const std::uint8_t> data) {
  if (data.size() < 8) return Error("icmp: truncated");
  if (internet_checksum(data) != 0) return Error("icmp: bad checksum");
  IcmpMessage msg;
  msg.type = static_cast<IcmpType>(data[0]);
  msg.code = data[1];
  msg.rest = (static_cast<std::uint32_t>(data[4]) << 24) |
             (static_cast<std::uint32_t>(data[5]) << 16) |
             (static_cast<std::uint32_t>(data[6]) << 8) |
             static_cast<std::uint32_t>(data[7]);
  msg.body.assign(data.begin() + 8, data.end());
  return msg;
}

IcmpMessage make_echo_request(std::uint16_t id, std::uint16_t seq, Bytes data) {
  IcmpMessage msg;
  msg.type = IcmpType::kEchoRequest;
  msg.rest = (static_cast<std::uint32_t>(id) << 16) | seq;
  msg.body = std::move(data);
  return msg;
}

IcmpMessage make_echo_reply(const IcmpMessage& request) {
  IcmpMessage msg = request;
  msg.type = IcmpType::kEchoReply;
  return msg;
}

namespace {
Bytes quote_offending(std::span<const std::uint8_t> wire) {
  return Bytes(wire.begin(),
               wire.begin() + std::min<std::size_t>(wire.size(), 28));
}
}  // namespace

IcmpMessage make_time_exceeded(std::span<const std::uint8_t> offending) {
  IcmpMessage msg;
  msg.type = IcmpType::kTimeExceeded;
  msg.code = 0;  // TTL exceeded in transit
  msg.body = quote_offending(offending);
  return msg;
}

IcmpMessage make_unreachable(std::span<const std::uint8_t> offending,
                             std::uint8_t code) {
  IcmpMessage msg;
  msg.type = IcmpType::kDestUnreachable;
  msg.code = code;
  msg.body = quote_offending(offending);
  return msg;
}


Ipv4Packet wrap_icmp(const IcmpMessage& msg, Ipv4Address src, Ipv4Address dst,
                     std::uint8_t ttl) {
  Ipv4Packet pkt;
  pkt.protocol = static_cast<std::uint8_t>(IpProto::kIcmp);
  pkt.src = src;
  pkt.dst = dst;
  pkt.ttl = ttl;
  pkt.payload = msg.encode();
  return pkt;
}

}  // namespace peering::ip

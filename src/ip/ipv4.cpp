#include "ip/ipv4.h"

#include "ether/frame.h"

namespace peering::ip {

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i]) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

namespace {
Error reject(const char* what, ether::DropReason reason) {
  return Error(what, static_cast<int>(reason));
}
}  // namespace

Result<Ipv4Header> Ipv4Header::parse(std::span<const std::uint8_t> data) {
  using ether::DropReason;
  if (data.size() < kLength)
    return reject("ipv4: truncated header", DropReason::kTruncated);
  if (internet_checksum(data.first(kLength)) != 0)
    return reject("ipv4: bad header checksum", DropReason::kBadChecksum);
  if ((data[0] >> 4) != 4)
    return reject("ipv4: not version 4", DropReason::kBadVersion);
  if ((data[0] & 0xf) != 5)
    return reject("ipv4: options unsupported", DropReason::kOptions);
  Ipv4Header header;
  header.data_ = data;
  if (header.total_length() < kLength || header.total_length() > data.size())
    return reject("ipv4: bad total length", DropReason::kBadLength);
  return header;
}

void decrement_ttl(std::span<std::uint8_t> header) {
  // The TTL shares a 16-bit word with the protocol. RFC 1624 eqn. 3:
  // HC' = ~(~HC + ~m + m'), in ones-complement arithmetic.
  const std::uint32_t old_word =
      (static_cast<std::uint32_t>(header[8]) << 8) | header[9];
  header[8] = static_cast<std::uint8_t>(header[8] - 1);
  const std::uint32_t new_word =
      (static_cast<std::uint32_t>(header[8]) << 8) | header[9];
  const std::uint32_t old_checksum =
      (static_cast<std::uint32_t>(header[10]) << 8) | header[11];
  std::uint32_t sum = (~old_checksum & 0xffff) + (~old_word & 0xffff) + new_word;
  sum = (sum & 0xffff) + (sum >> 16);
  sum = (sum & 0xffff) + (sum >> 16);
  const auto checksum = static_cast<std::uint16_t>(~sum);
  header[10] = static_cast<std::uint8_t>(checksum >> 8);
  header[11] = static_cast<std::uint8_t>(checksum);
}

void Ipv4Packet::encode_append(Bytes& out) const {
  const std::size_t start = out.size();
  ByteWriter w(std::move(out));
  w.u8((4u << 4) | 5u);  // version 4, IHL 5 (no options)
  w.u8(dscp << 2);
  w.u16(static_cast<std::uint16_t>(total_length()));
  w.u16(identification);
  w.u16(0x4000);  // flags: DF set, no fragmentation modeled
  w.u8(ttl);
  w.u8(protocol);
  std::size_t checksum_pos = w.reserve_u16();
  w.u32(src.value());
  w.u32(dst.value());
  out = w.take();
  std::uint16_t checksum = internet_checksum(
      std::span<const std::uint8_t>(out).subspan(start, Ipv4Header::kLength));
  out[checksum_pos] = static_cast<std::uint8_t>(checksum >> 8);
  out[checksum_pos + 1] = static_cast<std::uint8_t>(checksum);
  out.insert(out.end(), payload.begin(), payload.end());
}

Bytes Ipv4Packet::encode() const {
  Bytes out;
  out.reserve(total_length());
  encode_append(out);
  return out;
}

Result<Ipv4Packet> Ipv4Packet::decode(std::span<const std::uint8_t> data) {
  auto header = Ipv4Header::parse(data);
  if (!header) return header.error();
  Ipv4Packet pkt;
  pkt.dscp = header->tos() >> 2;
  pkt.identification = header->identification();
  // Flags/fragment offset ignored (DF-only model).
  pkt.ttl = header->ttl();
  pkt.protocol = header->protocol();
  pkt.src = header->src();
  pkt.dst = header->dst();
  pkt.payload.assign(header->payload().begin(), header->payload().end());
  return pkt;
}

}  // namespace peering::ip

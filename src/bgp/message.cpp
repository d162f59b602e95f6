#include "bgp/message.h"

#include <algorithm>

namespace peering::bgp {

namespace {

constexpr std::size_t kHeaderSize = 19;
constexpr std::size_t kMaxMessageSize = 4096;
// Bodies of the fixed parts: OPEN's version, AS, hold time, BGP
// identifier and parameter length; UPDATE's two length fields.
constexpr std::size_t kOpenFixedBody = 10;
constexpr std::size_t kUpdateFixedBody = 4;

/// Encodes one prefix (with optional ADD-PATH id) into NLRI wire format:
/// [path-id (4B, optional)] length (1B) | address bytes (ceil(len/8)).
void encode_nlri_entry(ByteWriter& w, const NlriEntry& entry, bool add_path) {
  if (add_path) w.u32(entry.path_id);
  w.u8(entry.prefix.length());
  std::uint32_t addr = entry.prefix.address().value();
  int bytes = (entry.prefix.length() + 7) / 8;
  for (int i = 0; i < bytes; ++i)
    w.u8(static_cast<std::uint8_t>(addr >> (24 - 8 * i)));
}

Result<NlriEntry> decode_nlri_entry(ByteReader& r, bool add_path) {
  NlriEntry entry;
  if (add_path) {
    auto id = r.u32();
    if (!id) return Error("nlri: truncated path id", 10);
    entry.path_id = *id;
  }
  auto len = r.u8();
  if (!len) return Error("nlri: truncated length", 10);
  if (*len > 32) return Error("nlri: prefix length > 32", 10);
  int bytes = (*len + 7) / 8;
  std::uint32_t addr = 0;
  for (int i = 0; i < bytes; ++i) {
    auto b = r.u8();
    if (!b) return Error("nlri: truncated prefix", 10);
    addr |= static_cast<std::uint32_t>(*b) << (24 - 8 * i);
  }
  entry.prefix = Ipv4Prefix(Ipv4Address(addr), *len);
  return entry;
}

}  // namespace

void OpenMessage::add_four_byte_asn(Asn real_asn) {
  ByteWriter w;
  w.u32(real_asn);
  capabilities.push_back(
      {static_cast<std::uint8_t>(CapabilityCode::kFourByteAsn), w.take()});
}

void OpenMessage::add_addpath_ipv4(AddPathMode mode) {
  ByteWriter w;
  w.u16(1);  // AFI: IPv4
  w.u8(1);   // SAFI: unicast
  w.u8(static_cast<std::uint8_t>(mode));
  capabilities.push_back(
      {static_cast<std::uint8_t>(CapabilityCode::kAddPath), w.take()});
}

std::optional<Asn> OpenMessage::four_byte_asn() const {
  for (const auto& cap : capabilities) {
    if (cap.code != static_cast<std::uint8_t>(CapabilityCode::kFourByteAsn))
      continue;
    ByteReader r(cap.value);
    auto asn = r.u32();
    if (asn) return *asn;
  }
  return std::nullopt;
}

AddPathMode OpenMessage::addpath_ipv4() const {
  for (const auto& cap : capabilities) {
    if (cap.code != static_cast<std::uint8_t>(CapabilityCode::kAddPath))
      continue;
    ByteReader r(cap.value);
    while (r.remaining() >= 4) {
      auto afi = r.u16();
      auto safi = r.u8();
      auto mode = r.u8();
      if (afi && safi && mode && *afi == 1 && *safi == 1)
        return static_cast<AddPathMode>(*mode & 3);
    }
  }
  return AddPathMode::kNone;
}

Bytes OpenMessage::encode_body() const {
  ByteWriter w;
  w.u8(version);
  w.u16(asn > 0xffff ? static_cast<std::uint16_t>(kAsTrans)
                     : static_cast<std::uint16_t>(asn));
  w.u16(hold_time);
  w.u32(router_id.value());
  // Optional parameters: one capabilities parameter (type 2) per capability.
  ByteWriter params;
  for (const auto& cap : capabilities) {
    params.u8(2);  // parameter type: capabilities
    params.u8(static_cast<std::uint8_t>(cap.value.size() + 2));
    params.u8(cap.code);
    params.u8(static_cast<std::uint8_t>(cap.value.size()));
    params.raw(cap.value);
  }
  w.u8(static_cast<std::uint8_t>(params.size()));
  w.raw(params.bytes());
  return w.take();
}

Result<OpenMessage> OpenMessage::decode_body(
    std::span<const std::uint8_t> data) {
  ByteReader r(data);
  OpenMessage msg;
  auto version = r.u8();
  if (!version) return Error("open: truncated", 0);
  if (*version != 4) return Error("open: unsupported version", 1);
  msg.version = *version;
  auto asn = r.u16();
  auto hold = r.u16();
  auto router_id = r.u32();
  auto params_len = r.u8();
  if (!asn || !hold || !router_id || !params_len)
    return Error("open: truncated", 0);
  if (*hold != 0 && *hold < 3) return Error("open: bad hold time", 6);
  msg.asn = *asn;
  msg.hold_time = *hold;
  msg.router_id = Ipv4Address(*router_id);
  auto params = r.sub(*params_len);
  if (!params) return Error("open: truncated parameters", 0);
  while (!params->empty()) {
    auto type = params->u8();
    auto len = params->u8();
    if (!type || !len) return Error("open: truncated parameter", 0);
    auto body = params->sub(*len);
    if (!body) return Error("open: truncated parameter body", 0);
    if (*type != 2) continue;  // ignore non-capability parameters
    while (!body->empty()) {
      auto code = body->u8();
      auto clen = body->u8();
      if (!code || !clen) return Error("open: truncated capability", 0);
      auto value = body->bytes(*clen);
      if (!value) return Error("open: truncated capability value", 0);
      msg.capabilities.push_back({*code, std::move(*value)});
    }
  }
  return msg;
}

Bytes UpdateMessage::encode_body(const UpdateCodecOptions& options) const {
  ByteWriter w;
  ByteWriter withdrawn_writer;
  for (const auto& entry : withdrawn)
    encode_nlri_entry(withdrawn_writer, entry, options.add_path);
  w.u16(static_cast<std::uint16_t>(withdrawn_writer.size()));
  w.raw(withdrawn_writer.bytes());

  Bytes attr_bytes;
  if (attributes) attr_bytes = encode_attributes(*attributes, options.attrs);
  w.u16(static_cast<std::uint16_t>(attr_bytes.size()));
  w.raw(attr_bytes);

  for (const auto& entry : nlri) encode_nlri_entry(w, entry, options.add_path);
  return w.take();
}

Result<UpdateMessage> UpdateMessage::decode_body(
    std::span<const std::uint8_t> data, const UpdateCodecOptions& options) {
  ByteReader r(data);
  UpdateMessage msg;
  auto withdrawn_len = r.u16();
  if (!withdrawn_len) return Error("update: truncated", 1);
  auto withdrawn = r.sub(*withdrawn_len);
  if (!withdrawn) return Error("update: truncated withdrawn", 1);
  while (!withdrawn->empty()) {
    auto entry = decode_nlri_entry(*withdrawn, options.add_path);
    if (!entry) return entry.error();
    msg.withdrawn.push_back(*entry);
  }
  auto attrs_len = r.u16();
  if (!attrs_len) return Error("update: truncated attr length", 1);
  auto attr_bytes = r.raw(*attrs_len);
  if (!attr_bytes) return Error("update: truncated attributes", 1);
  if (*attrs_len > 0) {
    auto attrs = decode_attributes(*attr_bytes, options.attrs);
    if (!attrs) return attrs.error();
    msg.attributes = std::move(*attrs);
  }
  while (!r.empty()) {
    auto entry = decode_nlri_entry(r, options.add_path);
    if (!entry) return entry.error();
    msg.nlri.push_back(*entry);
  }
  if (!msg.nlri.empty() && !msg.attributes)
    return Error("update: NLRI without attributes", 3);
  return msg;
}

Bytes NotificationMessage::encode_body() const {
  ByteWriter w(2 + data.size());
  w.u8(static_cast<std::uint8_t>(code));
  w.u8(subcode);
  w.raw(data);
  return w.take();
}

Result<NotificationMessage> NotificationMessage::decode_body(
    std::span<const std::uint8_t> data) {
  if (data.size() < 2) return Error("notification: truncated");
  NotificationMessage msg;
  msg.code = static_cast<NotificationCode>(data[0]);
  msg.subcode = data[1];
  msg.data.assign(data.begin() + 2, data.end());
  return msg;
}

std::string NotificationMessage::str() const {
  static const char* names[] = {"?",           "header-error", "open-error",
                                "update-error", "hold-expired", "fsm-error",
                                "cease"};
  unsigned idx = static_cast<unsigned>(code);
  const char* name = idx < 7 ? names[idx] : "?";
  return std::string(name) + "/" + std::to_string(subcode);
}

Bytes RouteRefreshMessage::encode_body() const {
  ByteWriter w(4);
  w.u16(afi);
  w.u8(0);  // reserved
  w.u8(safi);
  return w.take();
}

Result<RouteRefreshMessage> RouteRefreshMessage::decode_body(
    std::span<const std::uint8_t> data) {
  if (data.size() != 4) return Error("route-refresh: bad length");
  RouteRefreshMessage msg;
  msg.afi = static_cast<std::uint16_t>((data[0] << 8) | data[1]);
  msg.safi = data[3];
  return msg;
}

Bytes frame_message(MessageType type, const Bytes& body) {
  ByteWriter w(kHeaderSize + body.size());
  for (int i = 0; i < 16; ++i) w.u8(0xff);
  w.u16(static_cast<std::uint16_t>(kHeaderSize + body.size()));
  w.u8(static_cast<std::uint8_t>(type));
  w.raw(body);
  return w.take();
}

Bytes encode_update_from_cached(const Bytes& attr_bytes,
                                const std::vector<NlriEntry>& nlri,
                                const UpdateCodecOptions& options) {
  // Header + empty-withdrawn length + attr length + attrs + NLRI (path id
  // plus up to 5 prefix bytes each).
  ByteWriter w(kHeaderSize + 4 + attr_bytes.size() + nlri.size() * 9);
  for (int i = 0; i < 16; ++i) w.u8(0xff);
  std::size_t length_at = w.reserve_u16();
  w.u8(static_cast<std::uint8_t>(MessageType::kUpdate));
  w.u16(0);  // no withdrawn routes
  w.u16(static_cast<std::uint16_t>(attr_bytes.size()));
  w.raw(attr_bytes);
  for (const auto& entry : nlri) encode_nlri_entry(w, entry, options.add_path);
  w.patch_u16(length_at, static_cast<std::uint16_t>(w.size()));
  return w.take();
}

Bytes encode_update_spliced(const Bytes& attr_bytes, std::size_t nh_offset,
                            Ipv4Address next_hop,
                            const std::vector<NlriEntry>& nlri,
                            const UpdateCodecOptions& options) {
  Bytes wire;
  encode_update_spliced_into(wire, attr_bytes, nh_offset, next_hop, nlri,
                             options);
  return wire;
}

void encode_update_spliced_into(Bytes& out, const Bytes& attr_bytes,
                                std::size_t nh_offset, Ipv4Address next_hop,
                                const std::vector<NlriEntry>& nlri,
                                const UpdateCodecOptions& options) {
  ByteWriter w(std::move(out));
  const std::size_t start = w.size();
  for (int i = 0; i < 16; ++i) w.u8(0xff);
  std::size_t length_at = w.reserve_u16();
  w.u8(static_cast<std::uint8_t>(MessageType::kUpdate));
  w.u16(0);  // no withdrawn routes
  w.u16(static_cast<std::uint16_t>(attr_bytes.size()));
  w.raw(attr_bytes);
  if (nh_offset != kNoNextHopOffset) {
    // Layout: header (19) + withdrawn-len (2) + attr-len (2) + attrs.
    const std::size_t at = start + kHeaderSize + 4 + nh_offset;
    w.patch_u16(at, static_cast<std::uint16_t>(next_hop.value() >> 16));
    w.patch_u16(at + 2, static_cast<std::uint16_t>(next_hop.value()));
  }
  for (const auto& entry : nlri) encode_nlri_entry(w, entry, options.add_path);
  w.patch_u16(length_at, static_cast<std::uint16_t>(w.size() - start));
  out = w.take();
}

void encode_withdrawals_into(Bytes& out, std::span<const NlriEntry> withdrawn,
                             const UpdateCodecOptions& options) {
  ByteWriter w(std::move(out));
  const std::size_t start = w.size();
  for (int i = 0; i < 16; ++i) w.u8(0xff);
  std::size_t length_at = w.reserve_u16();
  w.u8(static_cast<std::uint8_t>(MessageType::kUpdate));
  std::size_t withdrawn_at = w.reserve_u16();
  for (const auto& entry : withdrawn)
    encode_nlri_entry(w, entry, options.add_path);
  w.patch_u16(withdrawn_at,
              static_cast<std::uint16_t>(w.size() - withdrawn_at - 2));
  w.u16(0);  // no path attributes
  w.patch_u16(length_at, static_cast<std::uint16_t>(w.size() - start));
  out = w.take();
}

Bytes encode_message(const BgpMessage& message,
                     const UpdateCodecOptions& options) {
  if (const auto* open = std::get_if<OpenMessage>(&message))
    return frame_message(MessageType::kOpen, open->encode_body());
  if (const auto* update = std::get_if<UpdateMessage>(&message))
    return frame_message(MessageType::kUpdate, update->encode_body(options));
  if (const auto* notification = std::get_if<NotificationMessage>(&message))
    return frame_message(MessageType::kNotification,
                         notification->encode_body());
  if (const auto* refresh = std::get_if<RouteRefreshMessage>(&message))
    return frame_message(MessageType::kRouteRefresh, refresh->encode_body());
  return frame_message(MessageType::kKeepalive, {});
}

void MessageDecoder::feed(std::span<const std::uint8_t> data) {
  // Compact the buffer occasionally to bound memory.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 64 * 1024) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

Result<std::optional<BgpMessage>> MessageDecoder::poll() {
  error_code_ = NotificationCode::kMessageHeaderError;
  std::size_t available = buffer_.size() - consumed_;
  if (available < kHeaderSize) return std::optional<BgpMessage>{};
  std::span<const std::uint8_t> view(buffer_.data() + consumed_, available);
  // Validate the marker.
  for (int i = 0; i < 16; ++i) {
    if (view[static_cast<std::size_t>(i)] != 0xff)
      return Error("header: bad marker", 1);
  }
  std::uint16_t length = static_cast<std::uint16_t>((view[16] << 8) | view[17]);
  if (length < kHeaderSize || length > kMaxMessageSize)
    return Error("header: bad length", 2);
  if (available < length) return std::optional<BgpMessage>{};
  std::uint8_t type = view[18];
  auto body = view.subspan(kHeaderSize, length - kHeaderSize);
  consumed_ += length;
  // A message shorter than its type's fixed part has a bad length
  // (RFC 4271 §6.1): OPEN needs 29 bytes, UPDATE 23.
  if ((type == static_cast<std::uint8_t>(MessageType::kOpen) &&
       body.size() < kOpenFixedBody) ||
      (type == static_cast<std::uint8_t>(MessageType::kUpdate) &&
       body.size() < kUpdateFixedBody))
    return Error("header: message shorter than its fixed part", 2);

  switch (static_cast<MessageType>(type)) {
    case MessageType::kOpen: {
      auto msg = OpenMessage::decode_body(body);
      if (!msg) {
        error_code_ = NotificationCode::kOpenMessageError;
        return msg.error();
      }
      return std::optional<BgpMessage>(std::move(*msg));
    }
    case MessageType::kUpdate: {
      auto msg = UpdateMessage::decode_body(body, options_);
      if (!msg) {
        error_code_ = NotificationCode::kUpdateMessageError;
        return msg.error();
      }
      return std::optional<BgpMessage>(std::move(*msg));
    }
    case MessageType::kNotification: {
      // Too short to carry a code: a length error of the header class.
      auto msg = NotificationMessage::decode_body(body);
      if (!msg) return Error(msg.error().message, 2);
      return std::optional<BgpMessage>(std::move(*msg));
    }
    case MessageType::kKeepalive: {
      if (!body.empty()) return Error("keepalive: nonempty body", 2);
      return std::optional<BgpMessage>(KeepaliveMessage{});
    }
    case MessageType::kRouteRefresh: {
      auto msg = RouteRefreshMessage::decode_body(body);
      if (!msg) return Error(msg.error().message, 2);
      return std::optional<BgpMessage>(std::move(*msg));
    }
  }
  return Error("header: unknown message type", 3);
}

}  // namespace peering::bgp

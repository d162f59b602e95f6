// BGP-4 messages (RFC 4271) with the capabilities PEERING relies on:
// 4-octet AS numbers (RFC 6793) and ADD-PATH (RFC 7911), the mechanism vBGP
// uses to expose every neighbor's route to every experiment over a single
// session. Includes an incremental wire decoder for the TCP byte stream.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "bgp/attributes.h"
#include "bgp/types.h"
#include "netbase/bytes.h"
#include "netbase/prefix.h"
#include "netbase/result.h"

namespace peering::bgp {

enum class MessageType : std::uint8_t {
  kOpen = 1,
  kUpdate = 2,
  kNotification = 3,
  kKeepalive = 4,
  kRouteRefresh = 5,
};

/// Capability codes (RFC 5492 registry subset).
enum class CapabilityCode : std::uint8_t {
  kMultiprotocol = 1,
  kRouteRefresh = 2,
  kFourByteAsn = 65,
  kAddPath = 69,
};

struct Capability {
  std::uint8_t code = 0;
  Bytes value;

  bool operator==(const Capability&) const = default;
};

/// ADD-PATH per-AFI/SAFI mode bits.
enum class AddPathMode : std::uint8_t {
  kNone = 0,
  kReceive = 1,
  kSend = 2,
  kBoth = 3,
};

struct OpenMessage {
  std::uint8_t version = 4;
  /// The 2-byte "My Autonomous System" field value; kAsTrans if the real
  /// ASN does not fit.
  Asn asn = 0;
  std::uint16_t hold_time = 90;
  Ipv4Address router_id;
  std::vector<Capability> capabilities;

  /// Appends a 4-octet-AS capability advertising `asn`.
  void add_four_byte_asn(Asn asn);
  /// Appends an ADD-PATH capability for IPv4 unicast with the given mode.
  void add_addpath_ipv4(AddPathMode mode);

  /// Extracts the 4-octet ASN if the capability is present.
  std::optional<Asn> four_byte_asn() const;
  /// Extracts the IPv4-unicast ADD-PATH mode (kNone if absent).
  AddPathMode addpath_ipv4() const;

  Bytes encode_body() const;
  static Result<OpenMessage> decode_body(std::span<const std::uint8_t> data);

  bool operator==(const OpenMessage&) const = default;
};

/// A prefix in an UPDATE, with its ADD-PATH identifier (meaningful only on
/// sessions that negotiated ADD-PATH; 0 otherwise).
struct NlriEntry {
  std::uint32_t path_id = 0;
  Ipv4Prefix prefix;

  bool operator==(const NlriEntry&) const = default;
};

/// Per-session codec state for UPDATE bodies.
struct UpdateCodecOptions {
  AttrCodecOptions attrs;
  /// True when ADD-PATH was negotiated in the encoding direction: every
  /// NLRI (and withdrawn route) is prefixed with a 4-byte path identifier.
  bool add_path = false;
};

struct UpdateMessage {
  std::vector<NlriEntry> withdrawn;
  /// Attributes; may be empty for withdraw-only updates.
  std::optional<PathAttributes> attributes;
  std::vector<NlriEntry> nlri;

  Bytes encode_body(const UpdateCodecOptions& options) const;
  static Result<UpdateMessage> decode_body(std::span<const std::uint8_t> data,
                                           const UpdateCodecOptions& options);

  bool operator==(const UpdateMessage&) const = default;
};

/// NOTIFICATION error codes (RFC 4271 §4.5).
enum class NotificationCode : std::uint8_t {
  kMessageHeaderError = 1,
  kOpenMessageError = 2,
  kUpdateMessageError = 3,
  kHoldTimerExpired = 4,
  kFsmError = 5,
  kCease = 6,
};

struct NotificationMessage {
  NotificationCode code = NotificationCode::kCease;
  std::uint8_t subcode = 0;
  Bytes data;

  Bytes encode_body() const;
  static Result<NotificationMessage> decode_body(
      std::span<const std::uint8_t> data);
  std::string str() const;

  bool operator==(const NotificationMessage&) const = default;
};

struct KeepaliveMessage {
  bool operator==(const KeepaliveMessage&) const = default;
};

/// ROUTE-REFRESH (RFC 2918): asks the peer to resend its Adj-RIB-Out.
/// PEERING's configuration pushes rely on this to apply new policy to
/// already-learned routes without resetting sessions (§5).
struct RouteRefreshMessage {
  std::uint16_t afi = 1;  // IPv4
  std::uint8_t safi = 1;  // unicast

  Bytes encode_body() const;
  static Result<RouteRefreshMessage> decode_body(
      std::span<const std::uint8_t> data);

  bool operator==(const RouteRefreshMessage&) const = default;
};

using BgpMessage = std::variant<OpenMessage, UpdateMessage,
                                NotificationMessage, KeepaliveMessage,
                                RouteRefreshMessage>;

/// Frames `body` with the BGP header (marker, length, type).
Bytes frame_message(MessageType type, const Bytes& body);

/// Appends a complete UPDATE for advertised NLRI onto `out`, framed from
/// pre-encoded path-attribute bytes (the AttrPool encode cache): the hot
/// transmit path of BgpSpeaker's export drain, which accumulates every
/// message for a peer into one coalesced send buffer. A per-neighbor
/// next-hop is patched into the framed message at `nh_offset` (the
/// NEXT_HOP value offset inside `attr_bytes`, from AttrPool::encoded); the
/// cached template is never modified. Pass bgp::kNoNextHopOffset to skip
/// the patch.
void encode_update_spliced_into(Bytes& out, const Bytes& attr_bytes,
                                std::size_t nh_offset, Ipv4Address next_hop,
                                const std::vector<NlriEntry>& nlri,
                                const UpdateCodecOptions& options);

/// Appends a withdraw-only UPDATE for `withdrawn` onto `out`: the same
/// bytes encode_message produces for it, with no intermediate buffer.
void encode_withdrawals_into(Bytes& out, std::span<const NlriEntry> withdrawn,
                             const UpdateCodecOptions& options);

/// Serializes a full message.
Bytes encode_message(const BgpMessage& message,
                     const UpdateCodecOptions& options);

/// Incremental decoder: feed stream bytes, poll complete messages out.
/// Options are mutable because ADD-PATH/4-byte-ASN are negotiated by the
/// OPEN exchange, after the decoder is constructed.
class MessageDecoder {
 public:
  void set_options(const UpdateCodecOptions& options) { options_ = options; }
  const UpdateCodecOptions& options() const { return options_; }

  /// Appends received bytes to the internal buffer.
  void feed(std::span<const std::uint8_t> data);

  /// Returns the next complete message, std::nullopt if more bytes are
  /// needed, or an Error for an unrecoverable framing/parse failure (the
  /// session should send a NOTIFICATION and close). The Error's code is
  /// the NOTIFICATION subcode (RFC 4271 §4.5); error_code() is its code.
  Result<std::optional<BgpMessage>> poll();

  /// NOTIFICATION code of the last error poll() returned: the class of
  /// message it was found in — header (also the fixed-size bodies),
  /// OPEN, or UPDATE.
  NotificationCode error_code() const { return error_code_; }

 private:
  Bytes buffer_;
  std::size_t consumed_ = 0;
  UpdateCodecOptions options_;
  NotificationCode error_code_ = NotificationCode::kMessageHeaderError;
};

}  // namespace peering::bgp

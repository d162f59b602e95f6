// Ethernet II frame representation and wire codec. vBGP's per-packet
// delegation is encoded entirely in these headers: the destination MAC of a
// frame from an experiment selects the egress neighbor, and the source MAC
// of a frame delivered to an experiment identifies the ingress neighbor.
//
// FrameView is the one header parser: it validates a frame in place over
// the wire buffer. The forwarding path reads and rewrites headers through
// it without copying; EthernetFrame::decode builds the owned struct on top
// of it for the slow paths (ARP, local delivery).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "netbase/bytes.h"
#include "netbase/mac.h"
#include "netbase/result.h"
#include "obs/metrics.h"

namespace peering::ether {

/// EtherType values used by the simulation.
enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
  kVlan = 0x8100,
};

/// Why a malformed frame was dropped: the `reason` label of
/// `ether_frames_dropped_total`. The header parsers (FrameView here,
/// ip::Ipv4Header above) report one in their Error's `code`.
enum class DropReason : int {
  kTruncated = 1,
  kBadChecksum,
  kBadVersion,
  kOptions,
  kBadLength,
};
inline constexpr int kDropReasonCount = 5;
const char* drop_reason_name(DropReason reason);

/// `ether_frames_dropped_total{reason}` counters, resolved once against
/// the registry installed at construction.
class DropCounters {
 public:
  DropCounters();
  /// Counts one frame a header parser rejected with `parse_error`.
  void count(const Error& parse_error) {
    by_reason_[static_cast<std::size_t>(parse_error.code - 1)]->inc();
  }

 private:
  std::array<obs::Counter*, kDropReasonCount> by_reason_;
};

/// An Ethernet II header validated in place: destination and source MAC,
/// an optional single 802.1Q tag, and the ethertype. Borrows the buffer,
/// so it is valid only while the buffer's bytes stay where they are.
class FrameView {
 public:
  static constexpr std::size_t kHeaderLength = 14;
  static constexpr std::size_t kVlanTagLength = 4;

  /// Validates the header of `wire`; every error is DropReason::kTruncated.
  static Result<FrameView> parse(std::span<const std::uint8_t> wire);

  MacAddress dst() const { return mac_at(0); }
  MacAddress src() const { return mac_at(6); }
  std::uint16_t ethertype() const { return ethertype_; }
  bool is(EtherType type) const {
    return ethertype_ == static_cast<std::uint16_t>(type);
  }
  bool has_vlan() const { return header_length_ != kHeaderLength; }
  /// The tag's 12-bit VLAN ID (0 when untagged).
  std::uint16_t vlan_id() const { return vlan_id_; }
  std::size_t header_length() const { return header_length_; }
  std::span<const std::uint8_t> payload() const {
    return wire_.subspan(header_length_);
  }

 private:
  MacAddress mac_at(std::size_t at) const {
    return MacAddress(wire_[at], wire_[at + 1], wire_[at + 2], wire_[at + 3],
                      wire_[at + 4], wire_[at + 5]);
  }

  std::span<const std::uint8_t> wire_;
  std::uint16_t ethertype_ = 0;
  std::uint16_t vlan_id_ = 0;
  std::size_t header_length_ = kHeaderLength;
};

/// Rewrites the destination and source MAC of the frame in `wire` in place.
/// Precondition: `wire` holds at least a header (a parsed FrameView).
void rewrite_macs(Bytes& wire, MacAddress dst, MacAddress src);

/// Reshapes the frame `view` was parsed from into an untagged frame whose
/// payload is exactly its first `payload_length` bytes: strips an 802.1Q
/// tag and trailing padding. Invalidates `view`. Precondition:
/// `payload_length <= view.payload().size()`.
void untag_and_trim(Bytes& wire, const FrameView& view,
                    std::size_t payload_length);

struct EthernetFrame {
  MacAddress dst;
  MacAddress src;
  std::uint16_t ethertype = 0;
  /// Present iff the frame carries an 802.1Q tag (used by the backbone's
  /// provisioned VLANs, §4.3.1). Only the 12-bit VLAN ID is modeled.
  bool has_vlan = false;
  std::uint16_t vlan_id = 0;
  Bytes payload;

  /// Serializes to wire bytes (no FCS; links are reliable).
  Bytes encode() const;

  /// Parses wire bytes, including an optional single 802.1Q tag.
  static Result<EthernetFrame> decode(std::span<const std::uint8_t> data);
};

/// Convenience constructor for an untagged frame.
EthernetFrame make_frame(MacAddress dst, MacAddress src, EtherType type,
                         Bytes payload);

}  // namespace peering::ether

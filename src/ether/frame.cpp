#include "ether/frame.h"

#include <algorithm>

namespace peering::ether {

const char* drop_reason_name(DropReason reason) {
  switch (reason) {
    case DropReason::kTruncated:
      return "truncated";
    case DropReason::kBadChecksum:
      return "bad_checksum";
    case DropReason::kBadVersion:
      return "bad_version";
    case DropReason::kOptions:
      return "options";
    case DropReason::kBadLength:
      return "bad_length";
  }
  return "unknown";
}

DropCounters::DropCounters() {
  obs::Registry* registry = obs::Registry::global();
  for (int i = 0; i < kDropReasonCount; ++i) {
    by_reason_[static_cast<std::size_t>(i)] = registry->counter(
        "ether_frames_dropped_total",
        {{"reason", drop_reason_name(static_cast<DropReason>(i + 1))}});
  }
}

namespace {
Error truncated(const char* what) {
  return Error(what, static_cast<int>(DropReason::kTruncated));
}

std::uint16_t u16_at(std::span<const std::uint8_t> wire, std::size_t at) {
  return static_cast<std::uint16_t>((wire[at] << 8) | wire[at + 1]);
}
}  // namespace

Result<FrameView> FrameView::parse(std::span<const std::uint8_t> wire) {
  if (wire.size() < 6) return truncated("ether: truncated dst");
  if (wire.size() < 12) return truncated("ether: truncated src");
  if (wire.size() < kHeaderLength) return truncated("ether: truncated ethertype");
  FrameView view;
  view.wire_ = wire;
  view.ethertype_ = u16_at(wire, 12);
  if (view.ethertype_ == static_cast<std::uint16_t>(EtherType::kVlan)) {
    if (wire.size() < 16) return truncated("ether: truncated vlan tag");
    if (wire.size() < kHeaderLength + kVlanTagLength)
      return truncated("ether: truncated inner ethertype");
    view.vlan_id_ = u16_at(wire, 14) & 0x0fff;
    view.ethertype_ = u16_at(wire, 16);
    view.header_length_ = kHeaderLength + kVlanTagLength;
  }
  return view;
}

void rewrite_macs(Bytes& wire, MacAddress dst, MacAddress src) {
  std::copy(dst.bytes().begin(), dst.bytes().end(), wire.begin());
  std::copy(src.bytes().begin(), src.bytes().end(), wire.begin() + 6);
}

void untag_and_trim(Bytes& wire, const FrameView& view,
                    std::size_t payload_length) {
  const std::size_t header = view.header_length();
  wire.resize(header + payload_length);
  if (view.has_vlan()) {
    // Drop the 4-byte tag; the inner ethertype moves up into its place.
    wire.erase(wire.begin() + 12,
               wire.begin() + 12 + FrameView::kVlanTagLength);
  }
}

Bytes EthernetFrame::encode() const {
  ByteWriter w(18 + payload.size());
  w.raw(std::span<const std::uint8_t>(dst.bytes()));
  w.raw(std::span<const std::uint8_t>(src.bytes()));
  if (has_vlan) {
    w.u16(static_cast<std::uint16_t>(EtherType::kVlan));
    w.u16(vlan_id & 0x0fff);
  }
  w.u16(ethertype);
  w.raw(payload);
  return w.take();
}

Result<EthernetFrame> EthernetFrame::decode(
    std::span<const std::uint8_t> data) {
  auto view = FrameView::parse(data);
  if (!view) return view.error();
  EthernetFrame frame;
  frame.dst = view->dst();
  frame.src = view->src();
  frame.ethertype = view->ethertype();
  frame.has_vlan = view->has_vlan();
  frame.vlan_id = view->vlan_id();
  frame.payload.assign(view->payload().begin(), view->payload().end());
  return frame;
}

EthernetFrame make_frame(MacAddress dst, MacAddress src, EtherType type,
                         Bytes payload) {
  EthernetFrame frame;
  frame.dst = dst;
  frame.src = src;
  frame.ethertype = static_cast<std::uint16_t>(type);
  frame.payload = std::move(payload);
  return frame;
}

}  // namespace peering::ether

#include "endpoints.h"

#include "ether/arp.h"

namespace perfbench {

namespace {
constexpr std::size_t kHeader = 19;
constexpr std::uint8_t kOpen = 1;
constexpr std::uint8_t kUpdate = 2;
constexpr std::uint8_t kNotification = 3;
constexpr std::uint8_t kKeepalive = 4;
}  // namespace

WireSession::WireSession(std::shared_ptr<sim::StreamEndpoint> stream,
                         bgp::Asn asn, Ipv4Address router_id, bool addpath)
    : stream_(std::move(stream)),
      asn_(asn),
      router_id_(router_id),
      addpath_(addpath) {
  stream_->on_data([this](const Bytes& data) { receive(data); });
}

void WireSession::receive(const Bytes& data) {
  bytes_rx_ += data.size();
  std::span<const std::uint8_t> view(data);
  if (!carry_.empty()) {
    carry_.insert(carry_.end(), data.begin(), data.end());
    view = std::span<const std::uint8_t>(carry_);
  }
  std::size_t at = 0;
  while (view.size() - at >= kHeader) {
    const std::size_t len =
        (static_cast<std::size_t>(view[at + 16]) << 8) | view[at + 17];
    if (len < kHeader || view.size() - at < len) break;
    handle(view.subspan(at, len));
    at += len;
  }
  if (!carry_.empty()) {
    carry_.erase(carry_.begin(), carry_.begin() + static_cast<long>(at));
  } else if (at < view.size()) {
    carry_.assign(view.begin() + static_cast<long>(at), view.end());
  }
}

void WireSession::handle(std::span<const std::uint8_t> msg) {
  switch (msg[18]) {
    case kUpdate:
      ++updates_rx_;
      if (handler_) handler_(msg);
      return;
    case kKeepalive:
      established_ = true;
      stream_->send(bgp::encode_message(bgp::KeepaliveMessage{}, tx_options_));
      return;
    case kNotification:
      ++notifications_rx_;
      return;
    case kOpen: {
      bgp::MessageDecoder decoder;
      decoder.feed(msg);
      auto result = decoder.poll();
      bgp::AddPathMode remote = bgp::AddPathMode::kNone;
      if (result.ok() && result->has_value() &&
          std::holds_alternative<bgp::OpenMessage>(**result))
        remote = std::get<bgp::OpenMessage>(**result).addpath_ipv4();
      bgp::OpenMessage open;
      open.asn = asn_;
      open.router_id = router_id_;
      open.add_four_byte_asn(asn_);
      if (addpath_) open.add_addpath_ipv4(bgp::AddPathMode::kBoth);
      const bool negotiated = addpath_ && remote != bgp::AddPathMode::kNone;
      tx_options_.add_path = negotiated;
      rx_options_.add_path = negotiated;
      stream_->send(bgp::encode_message(open, tx_options_));
      stream_->send(bgp::encode_message(bgp::KeepaliveMessage{}, tx_options_));
      return;
    }
    default:
      return;
  }
}

void ReceivedTable::apply(std::span<const std::uint8_t> msg,
                          const bgp::UpdateCodecOptions& options) {
  bgp::MessageDecoder decoder;
  decoder.set_options(options);
  decoder.feed(msg);
  auto result = decoder.poll();
  if (!result.ok() || !result->has_value() ||
      !std::holds_alternative<bgp::UpdateMessage>(**result)) {
    decode_error = true;
    return;
  }
  ++updates;
  const auto& update = std::get<bgp::UpdateMessage>(**result);
  for (const auto& w : update.withdrawn) routes.erase({w.prefix, w.path_id});
  if (update.attributes)
    for (const auto& n : update.nlri)
      routes[{n.prefix, n.path_id}] = *update.attributes;
}

FrameEndpoint::FrameEndpoint(sim::Link& link, MacAddress mac,
                             std::vector<Ipv4Address> addresses)
    : link_(&link), mac_(mac), addresses_(std::move(addresses)) {
  link.a_to_b().set_receiver([this](const Bytes& wire) { receive(wire); });
}

void FrameEndpoint::announce(Ipv4Address target) {
  auto request = ether::make_arp_request(mac_, addresses_.front(), target);
  send(ether::make_frame(MacAddress::broadcast(), mac_, ether::EtherType::kArp,
                         request.encode())
           .encode());
}

void FrameEndpoint::receive(const Bytes& wire) {
  if (wire.size() < 14) return;
  const auto type = static_cast<std::uint16_t>((wire[12] << 8) | wire[13]);
  if (type == static_cast<std::uint16_t>(ether::EtherType::kArp)) {
    auto frame = ether::EthernetFrame::decode(wire);
    if (!frame) return;
    auto arp = ether::ArpMessage::decode(frame->payload);
    if (!arp || arp->op != ether::ArpOp::kRequest) return;
    for (Ipv4Address a : addresses_) {
      if (a != arp->target_ip) continue;
      auto reply = ether::make_arp_reply(*arp, mac_, a);
      send(ether::make_frame(arp->sender_mac, mac_, ether::EtherType::kArp,
                             reply.encode())
               .encode());
      return;
    }
    return;
  }
  ++frames_rx_;
  if (handler_) handler_(wire);
}

}  // namespace perfbench

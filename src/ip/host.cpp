#include "ip/host.h"

#include "netbase/log.h"

namespace peering::ip {

Host::Host(sim::EventLoop* loop, std::string name)
    : loop_(loop), name_(std::move(name)) {}

ether::NetIf& Host::add_interface(const std::string& if_name, MacAddress mac) {
  auto nif = std::make_unique<ether::NetIf>(name_ + "/" + if_name, mac);
  int index = static_cast<int>(interfaces_.size());
  nif->on_frame([this, index](Bytes& wire, const ether::FrameView& frame) {
    handle_frame(index, wire, frame);
  });
  interfaces_.push_back(std::move(nif));
  arp_caches_.emplace_back();
  return *interfaces_.back();
}

int Host::add_attached_interface(const std::string& if_name, MacAddress mac,
                                 ether::InterfaceAddress addr, sim::Link& link,
                                 bool side_a, bool promiscuous) {
  auto& nif = add_interface(if_name, mac);
  nif.add_address(addr);
  nif.set_promiscuous(promiscuous);
  nif.attach(link, side_a);
  int index = interface_count() - 1;
  routes_.insert(Route{addr.subnet(), Ipv4Address(), index, 0});
  return index;
}

int Host::interface_index(const std::string& if_name) const {
  const std::string full = name_ + "/" + if_name;
  for (std::size_t i = 0; i < interfaces_.size(); ++i) {
    if (interfaces_[i]->name() == full || interfaces_[i]->name() == if_name)
      return static_cast<int>(i);
  }
  return -1;
}

bool Host::owns_address(Ipv4Address addr) const {
  for (const auto& nif : interfaces_)
    if (nif->owns_address(addr)) return true;
  return false;
}

bool Host::send_packet(Ipv4Packet packet) {
  auto route = routes_.lookup(packet.dst);
  if (!route || route->interface < 0 ||
      route->interface >= interface_count()) {
    ++no_route_drops_;
    return false;
  }
  if (packet.src.is_zero())
    packet.src = interface(route->interface).primary_address();
  Ipv4Address gateway =
      route->next_hop.is_zero() ? packet.dst : route->next_hop;
  transmit(route->interface, gateway, packet);
  return true;
}

bool Host::ping(Ipv4Address dst, std::uint16_t id, std::uint16_t seq) {
  Ipv4Packet pkt;
  pkt.protocol = static_cast<std::uint8_t>(IpProto::kIcmp);
  pkt.dst = dst;
  pkt.payload = make_echo_request(id, seq, {}).encode();
  return send_packet(std::move(pkt));
}

void Host::handle_frame(int if_index, Bytes& wire,
                        const ether::FrameView& frame) {
  if (frame.is(ether::EtherType::kArp)) {
    auto msg = ether::ArpMessage::decode(frame.payload());
    if (msg) handle_arp(if_index, *msg);
    return;
  }
  if (!frame.is(ether::EtherType::kIpv4)) return;
  auto header = parse_ipv4(frame);
  if (!header) return;
  if (owns_address(header->dst())) {
    deliver_local(if_index, wire);
    return;
  }
  if (forwarding_) forward(if_index, wire, frame, *header);
}

std::optional<Ipv4Header> Host::parse_ipv4(const ether::FrameView& frame) {
  auto header = Ipv4Header::parse(frame.payload());
  if (header) return *header;
  drops_.count(header.error());
  LOG_WARN("host", name_ << ": malformed IPv4: " << header.error().message);
  return std::nullopt;
}

void Host::handle_arp(int if_index, const ether::ArpMessage& msg) {
  auto& nif = interface(if_index);
  // Learn the sender binding opportunistically.
  if (!msg.sender_ip.is_zero()) {
    arp_caches_[if_index].learn(msg.sender_ip, msg.sender_mac, loop_->now());
    flush_pending(if_index, msg.sender_ip, msg.sender_mac);
  }
  if (msg.op == ether::ArpOp::kRequest && nif.owns_address(msg.target_ip)) {
    auto reply = ether::make_arp_reply(msg, nif.mac(), msg.target_ip);
    send_frame(if_index, ether::make_frame(msg.sender_mac, nif.mac(),
                                           ether::EtherType::kArp,
                                           reply.encode()));
  }
}

void Host::deliver_local(int if_index, const Bytes& wire) {
  auto frame = ether::EthernetFrame::decode(wire);
  if (!frame) return;
  auto packet = Ipv4Packet::decode(frame->payload);
  if (!packet) return;
  ++packets_delivered_;
  if (packet->protocol == static_cast<std::uint8_t>(IpProto::kIcmp)) {
    respond_echo(if_index, *packet);
  }
  if (packet_handler_) packet_handler_(*packet, if_index, *frame);
}

void Host::respond_echo(int if_index, const Ipv4Packet& packet) {
  auto msg = IcmpMessage::decode(packet.payload);
  if (!msg || msg->type != IcmpType::kEchoRequest) return;
  Ipv4Packet reply = wrap_icmp(make_echo_reply(*msg), packet.dst, packet.src);
  (void)if_index;
  send_packet(std::move(reply));
}

std::span<std::uint8_t> Host::forward_in_place(
    Bytes& wire, const ether::FrameView& frame, const Ipv4Header& header) {
  ether::untag_and_trim(wire, frame, header.total_length());
  auto datagram =
      std::span<std::uint8_t>(wire).subspan(ether::FrameView::kHeaderLength);
  decrement_ttl(datagram);
  return datagram;
}

void Host::forward(int in_if, Bytes& wire, const ether::FrameView& frame,
                   const Ipv4Header& header) {
  if (header.ttl() <= 1) {
    ++ttl_exceeded_sent_;
    send_icmp_error(in_if, header.src(),
                    make_time_exceeded(header.datagram()));
    return;
  }
  const Ipv4Address src = header.src();
  const Ipv4Address dst = header.dst();
  auto datagram = forward_in_place(wire, frame, header);
  auto route = routes_.lookup(dst);
  if (!route || route->interface < 0 ||
      route->interface >= interface_count()) {
    ++no_route_drops_;
    send_icmp_error(in_if, src, make_unreachable(datagram, 0));
    return;
  }
  ++packets_forwarded_;
  Ipv4Address gateway = route->next_hop.is_zero() ? dst : route->next_hop;
  transmit_frame(route->interface, gateway, std::move(wire));
}

void Host::send_icmp_error(int in_if, Ipv4Address to,
                           const IcmpMessage& error) {
  // RFC 1812: source the error from the interface the offending packet
  // arrived on — its primary address. PEERING's network controller exists
  // in part to keep this address correct (§5).
  Ipv4Address src = interface(in_if).primary_address();
  if (src.is_zero()) return;
  send_packet(wrap_icmp(error, src, to));
}

void Host::transmit(int if_index, Ipv4Address gateway,
                    const Ipv4Packet& packet) {
  // An untagged IPv4 frame; transmit_frame writes the MACs.
  Bytes wire = loop_->buffers().acquire();
  wire.assign(ether::FrameView::kHeaderLength, 0);
  wire[12] = static_cast<std::uint8_t>(
      static_cast<std::uint16_t>(ether::EtherType::kIpv4) >> 8);
  wire[13] = static_cast<std::uint8_t>(ether::EtherType::kIpv4);
  packet.encode_append(wire);
  transmit_frame(if_index, gateway, std::move(wire));
}

void Host::transmit_frame(int if_index, Ipv4Address gateway, Bytes&& wire) {
  auto mac = arp_caches_[if_index].lookup(gateway, loop_->now());
  if (!mac) {
    arp_resolve(if_index, gateway, std::move(wire));
    return;
  }
  auto& nif = interface(if_index);
  ether::rewrite_macs(wire, *mac, nif.mac());
  nif.send(std::move(wire));
}

void Host::arp_resolve(int if_index, Ipv4Address target, Bytes&& wire) {
  auto key = std::make_pair(if_index, target);
  bool first = pending_[key].empty();
  pending_[key].push_back({std::move(wire), loop_->now()});
  if (!first) return;  // a request is already in flight

  auto& nif = interface(if_index);
  auto request =
      ether::make_arp_request(nif.mac(), nif.primary_address(), target);
  send_frame(if_index,
             ether::make_frame(MacAddress::broadcast(), nif.mac(),
                               ether::EtherType::kArp, request.encode()));

  // Drop queued packets if resolution does not complete within 1s.
  loop_->schedule_after(Duration::seconds(1), [this, key]() {
    auto it = pending_.find(key);
    if (it != pending_.end() && !it->second.empty()) {
      LOG_DEBUG("host", name_ << ": ARP timeout for " << key.second.str()
                              << ", dropping " << it->second.size()
                              << " packets");
      pending_.erase(it);
    }
  });
}

void Host::flush_pending(int if_index, Ipv4Address resolved, MacAddress mac) {
  auto it = pending_.find(std::make_pair(if_index, resolved));
  if (it == pending_.end()) return;
  auto queue = std::move(it->second);
  pending_.erase(it);
  auto& nif = interface(if_index);
  for (auto& entry : queue) {
    ether::rewrite_macs(entry.wire, mac, nif.mac());
    nif.send(std::move(entry.wire));
  }
}

void Host::send_frame(int if_index, const ether::EthernetFrame& frame) {
  interface(if_index).send(frame);
}

}  // namespace peering::ip

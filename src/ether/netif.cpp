#include "ether/netif.h"

#include <algorithm>

#include "netbase/log.h"

namespace peering::ether {

void NetIf::remove_address(Ipv4Address addr) {
  addresses_.erase(
      std::remove_if(addresses_.begin(), addresses_.end(),
                     [&](const InterfaceAddress& a) { return a.address == addr; }),
      addresses_.end());
}

bool NetIf::owns_address(Ipv4Address addr) const {
  return std::any_of(addresses_.begin(), addresses_.end(),
                     [&](const InterfaceAddress& a) { return a.address == addr; });
}

void NetIf::attach(sim::Link& link, bool side_a) {
  tx_ = side_a ? &link.a_to_b() : &link.b_to_a();
  auto& rx = side_a ? link.b_to_a() : link.a_to_b();
  rx.set_receiver([this](Bytes& wire) { receive(wire); });
}

bool NetIf::send(const EthernetFrame& frame) {
  if (!tx_) return false;
  return tx_->send(frame.encode());
}

bool NetIf::send(Bytes&& wire) {
  if (!tx_) return false;
  return tx_->send(std::move(wire));
}

void NetIf::receive(Bytes& wire) {
  auto frame = FrameView::parse(wire);
  if (!frame) {
    drops_.count(frame.error());
    LOG_WARN("netif", name_ << ": dropping malformed frame: "
                            << frame.error().message);
    return;
  }
  const MacAddress dst = frame->dst();
  if (!promiscuous_ && dst != mac_ && !dst.is_broadcast()) {
    ++frames_filtered_;
    return;
  }
  ++frames_received_;
  if (handler_) handler_(wire, *frame);
}

}  // namespace peering::ether

#include "ether/switch.h"

namespace peering::ether {

std::size_t Switch::attach(sim::Link& link, bool side_a) {
  // The switch transmits on the direction facing away from it and receives
  // on the direction facing toward it.
  sim::LinkDirection* tx = side_a ? &link.a_to_b() : &link.b_to_a();
  sim::LinkDirection* rx = side_a ? &link.b_to_a() : &link.a_to_b();
  std::size_t port = ports_.size();
  ports_.push_back(tx);
  rx->set_receiver([this, port](Bytes& wire) { receive(port, wire); });
  return port;
}

void Switch::receive(std::size_t in_port, Bytes& wire) {
  auto frame = FrameView::parse(wire);
  if (!frame) return;
  const MacAddress dst = frame->dst();
  mac_table_[frame->src()] = in_port;

  if (!dst.is_broadcast()) {
    auto it = mac_table_.find(dst);
    if (it != mac_table_.end()) {
      if (it->second != in_port) {
        ports_[it->second]->send(std::move(wire));
        ++frames_forwarded_;
      }
      return;
    }
  }
  // Flood a copy to every port except the ingress.
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    if (p == in_port) continue;
    ports_[p]->send(wire);
  }
  ++frames_flooded_;
}

}  // namespace peering::ether

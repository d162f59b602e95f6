// A learning Ethernet switch: the IXP fabric. PEERING PoPs at IXPs reach
// tens to hundreds of neighbor routers across a shared layer-2 switch; the
// switch floods unknown/broadcast destinations and learns source MACs.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "ether/frame.h"
#include "sim/link.h"

namespace peering::ether {

class Switch {
 public:
  explicit Switch(std::string name) : name_(std::move(name)) {}

  /// Attaches one side of `link` as a new switch port; returns port index.
  std::size_t attach(sim::Link& link, bool side_a);

  std::uint64_t frames_forwarded() const { return frames_forwarded_; }
  std::uint64_t frames_flooded() const { return frames_flooded_; }

 private:
  void receive(std::size_t in_port, Bytes& wire);

  std::string name_;
  std::vector<sim::LinkDirection*> ports_;
  std::unordered_map<MacAddress, std::size_t> mac_table_;
  std::uint64_t frames_forwarded_ = 0;
  std::uint64_t frames_flooded_ = 0;
};

}  // namespace peering::ether

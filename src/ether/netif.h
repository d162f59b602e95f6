// Virtual network interfaces. A NetIf owns a MAC address, an ordered list of
// IP addresses (the first is the primary — the source used for locally
// generated ICMP errors, which PEERING's network controller must keep
// correct, §5), and a wiring to one side of a simulated link.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ether/frame.h"
#include "netbase/ip.h"
#include "netbase/mac.h"
#include "netbase/prefix.h"
#include "sim/link.h"

namespace peering::ether {

struct InterfaceAddress {
  Ipv4Address address;
  std::uint8_t prefix_length = 24;

  Ipv4Prefix subnet() const { return Ipv4Prefix(address, prefix_length); }
};

class NetIf {
 public:
  /// Receives each accepted frame: the wire buffer (the handler may move it
  /// away, e.g. to forward it) and its header, validated in place.
  using Handler = std::function<void(Bytes& wire, const FrameView& frame)>;

  NetIf(std::string name, MacAddress mac) : name_(std::move(name)), mac_(mac) {}

  const std::string& name() const { return name_; }
  MacAddress mac() const { return mac_; }

  /// Address management. The first address in the list is the primary; the
  /// order is observable (ICMP sourcing) and preserved.
  void add_address(InterfaceAddress addr) { addresses_.push_back(addr); }
  void remove_address(Ipv4Address addr);
  const std::vector<InterfaceAddress>& addresses() const { return addresses_; }
  /// Primary address, or 0.0.0.0 when unnumbered.
  Ipv4Address primary_address() const {
    return addresses_.empty() ? Ipv4Address() : addresses_.front().address;
  }
  bool owns_address(Ipv4Address addr) const;

  /// Accept frames whose destination MAC is not ours. vBGP's experiment-
  /// facing interface runs promiscuous: frames addressed to per-neighbor
  /// virtual MACs must reach the demultiplexer.
  void set_promiscuous(bool on) { promiscuous_ = on; }
  bool promiscuous() const { return promiscuous_; }

  /// Wires this interface to one side of `link`. side_a selects which
  /// direction transmits.
  void attach(sim::Link& link, bool side_a);

  /// Handler invoked for every accepted inbound frame.
  void on_frame(Handler handler) { handler_ = std::move(handler); }

  /// Transmits a frame. Returns false if unattached or dropped by the link.
  bool send(const EthernetFrame& frame);
  /// Transmits a ready wire frame, handing the buffer to the link.
  bool send(Bytes&& wire);

  std::uint64_t frames_received() const { return frames_received_; }
  std::uint64_t frames_filtered() const { return frames_filtered_; }

 private:
  void receive(Bytes& wire);

  std::string name_;
  MacAddress mac_;
  std::vector<InterfaceAddress> addresses_;
  bool promiscuous_ = false;
  sim::LinkDirection* tx_ = nullptr;
  Handler handler_;
  DropCounters drops_;
  std::uint64_t frames_received_ = 0;
  std::uint64_t frames_filtered_ = 0;
};

}  // namespace peering::ether

// A complete little IPv4 host/router stack on top of NetIf: ARP resolution
// with pending-packet queues, local delivery, optional forwarding with TTL
// handling and ICMP error generation. Experiments, neighbor routers, and
// backbone compute nodes in the simulation are all Hosts; the vBGP router
// builds its specialized demultiplexing data plane from the same parts.
//
// Forwarding never copies a frame: the headers are validated in place
// (ether::FrameView, Ipv4Header), the TTL and MACs are rewritten in the
// received buffer, and that buffer moves on to the egress link. Only the
// slow paths build owned structs: ARP, ICMP errors and local delivery.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ether/arp.h"
#include "ether/netif.h"
#include "ip/icmp.h"
#include "ip/ipv4.h"
#include "ip/routing_table.h"
#include "sim/event_loop.h"

namespace peering::ip {

class Host {
 public:
  /// Invoked for packets addressed to this host. `in_if` is the index of the
  /// receiving interface; `frame` gives layer-2 context (vBGP experiments
  /// read the source MAC to attribute ingress traffic to a neighbor).
  using PacketHandler =
      std::function<void(const Ipv4Packet&, int in_if,
                         const ether::EthernetFrame& frame)>;

  Host(sim::EventLoop* loop, std::string name);
  virtual ~Host() = default;

  const std::string& name() const { return name_; }
  sim::EventLoop* loop() const { return loop_; }

  /// Creates an interface owned by this host and wires its frame handler.
  ether::NetIf& add_interface(const std::string& if_name, MacAddress mac);

  /// Convenience: creates an interface, assigns an address, attaches it to
  /// `link`, and installs the connected-subnet route. Returns the interface
  /// index.
  int add_attached_interface(const std::string& if_name, MacAddress mac,
                             ether::InterfaceAddress addr, sim::Link& link,
                             bool side_a, bool promiscuous = false);

  ether::NetIf& interface(int index) { return *interfaces_[index]; }
  const ether::NetIf& interface(int index) const { return *interfaces_[index]; }
  int interface_count() const { return static_cast<int>(interfaces_.size()); }
  /// Index of the interface with the given name, or -1.
  int interface_index(const std::string& if_name) const;

  RoutingTable& routes() { return routes_; }
  const RoutingTable& routes() const { return routes_; }

  /// Enables packet forwarding between interfaces (router behaviour).
  void set_forwarding(bool on) { forwarding_ = on; }

  void on_packet(PacketHandler handler) { packet_handler_ = std::move(handler); }

  /// Routes and transmits a locally originated packet. Returns false when no
  /// route exists or the egress interface is invalid.
  bool send_packet(Ipv4Packet packet);

  /// Sends an ICMP echo request to `dst` from this host's best source.
  bool ping(Ipv4Address dst, std::uint16_t id, std::uint16_t seq);

  /// True if any interface owns `addr`.
  bool owns_address(Ipv4Address addr) const;

  ether::ArpCache& arp_cache(int if_index) { return arp_caches_[if_index]; }

  std::uint64_t packets_forwarded() const { return packets_forwarded_; }
  std::uint64_t packets_delivered() const { return packets_delivered_; }
  std::uint64_t packets_dropped_no_route() const { return no_route_drops_; }
  std::uint64_t icmp_ttl_exceeded_sent() const { return ttl_exceeded_sent_; }

 protected:
  /// Frame dispatch; subclasses (the vBGP router) override to interpose on
  /// the data plane before standard processing. `wire` may be moved away
  /// (forwarded); `frame` is its header, validated in place.
  virtual void handle_frame(int if_index, Bytes& wire,
                            const ether::FrameView& frame);

  /// ARP input processing: answer requests for owned addresses, learn
  /// bindings, flush pending queues. Subclasses extend to answer for
  /// virtual next-hop addresses.
  virtual void handle_arp(int if_index, const ether::ArpMessage& msg);

  /// Validates the IPv4 header of an IPv4 frame in place. A malformed one
  /// is counted in `ether_frames_dropped_total{reason}` and yields nullopt.
  std::optional<Ipv4Header> parse_ipv4(const ether::FrameView& frame);

  /// Local delivery of an IPv4 frame addressed to this host (slow path:
  /// decodes owned structs for the packet handler).
  void deliver_local(int if_index, const Bytes& wire);

  /// Forwarding's in-place rewrite: reshapes `wire` into an untagged frame
  /// carrying exactly the datagram, and decrements its TTL (incremental
  /// checksum). Returns the datagram. Invalidates `frame` and `header`.
  /// Precondition: header.ttl() > 1.
  static std::span<std::uint8_t> forward_in_place(
      Bytes& wire, const ether::FrameView& frame, const Ipv4Header& header);

  /// Emits the IPv4 frame in `wire` (an untagged frame, as left by
  /// forward_in_place) out of `if_index` toward `gateway`: rewrites its
  /// MACs in place and moves the buffer to the link, or parks it while ARP
  /// resolution is in flight.
  void transmit_frame(int if_index, Ipv4Address gateway, Bytes&& wire);

  /// Sends ICMP `error` to `to`, sourced from the primary address of
  /// interface `in_if`.
  void send_icmp_error(int in_if, Ipv4Address to, const IcmpMessage& error);

  /// Emits a raw frame out of `if_index`.
  void send_frame(int if_index, const ether::EthernetFrame& frame);

  sim::EventLoop* loop_;
  std::string name_;

 private:
  /// Emits `packet` out of `if_index` toward `gateway` (transmit_frame on a
  /// freshly encoded frame).
  void transmit(int if_index, Ipv4Address gateway, const Ipv4Packet& packet);
  /// Forwards a transit frame using the main table.
  void forward(int in_if, Bytes& wire, const ether::FrameView& frame,
               const Ipv4Header& header);
  void arp_resolve(int if_index, Ipv4Address target, Bytes&& wire);
  void flush_pending(int if_index, Ipv4Address resolved, MacAddress mac);
  void respond_echo(int if_index, const Ipv4Packet& packet);

  std::vector<std::unique_ptr<ether::NetIf>> interfaces_;
  std::vector<ether::ArpCache> arp_caches_;
  RoutingTable routes_;
  bool forwarding_ = false;
  PacketHandler packet_handler_;
  /// `ether_frames_dropped_total{reason}` for malformed IPv4 headers.
  ether::DropCounters drops_;

  struct Pending {
    Bytes wire;  // the whole frame; its MACs are written at flush
    SimTime queued_at;
  };
  std::map<std::pair<int, Ipv4Address>, std::deque<Pending>> pending_;

  std::uint64_t packets_forwarded_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t no_route_drops_ = 0;
  std::uint64_t ttl_exceeded_sent_ = 0;
};

}  // namespace peering::ip

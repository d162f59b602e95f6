// The benchmark's side of every session and link. These stand in for the
// neighbors' and experiments' routers: they speak just enough BGP and
// Ethernet to keep the platform's sessions and ARP state alive, inject
// pre-encoded bytes and frames, and capture what the platform emits so the
// benchmark can check it. They do the least work they can, so the time the
// benchmark measures is the platform's.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "bgp/message.h"
#include "ether/frame.h"
#include "netbase/bytes.h"
#include "netbase/ip.h"
#include "netbase/mac.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "sim/stream.h"

namespace perfbench {

using namespace peering;

/// A BGP speaker reduced to what a benchmark needs: answers OPEN, echoes
/// KEEPALIVEs (so hold timers never expire however far the simulated clock
/// runs), sends pre-encoded UPDATEs, and hands each received UPDATE to an
/// optional handler as raw message bytes. Messages are framed from the
/// 19-byte header only; nothing is decoded unless the handler does it.
class WireSession {
 public:
  using UpdateHandler = std::function<void(std::span<const std::uint8_t>)>;

  WireSession(std::shared_ptr<sim::StreamEndpoint> stream, bgp::Asn asn,
              Ipv4Address router_id, bool addpath);
  WireSession(const WireSession&) = delete;
  WireSession& operator=(const WireSession&) = delete;

  bool established() const { return established_; }
  /// Options UPDATEs we send must be encoded with (path ids iff ADD-PATH
  /// was negotiated in our sending direction).
  const bgp::UpdateCodecOptions& tx_options() const { return tx_options_; }
  /// Options UPDATEs we receive are encoded with.
  const bgp::UpdateCodecOptions& rx_options() const { return rx_options_; }

  void send(const Bytes& wire) { stream_->send(wire); }
  void on_update(UpdateHandler handler) { handler_ = std::move(handler); }

  std::uint64_t updates_received() const { return updates_rx_; }
  std::uint64_t bytes_received() const { return bytes_rx_; }
  std::uint64_t notifications_received() const { return notifications_rx_; }

 private:
  void receive(const Bytes& data);
  void handle(std::span<const std::uint8_t> msg);

  std::shared_ptr<sim::StreamEndpoint> stream_;
  bgp::Asn asn_;
  Ipv4Address router_id_;
  bool addpath_;
  bgp::UpdateCodecOptions tx_options_;
  bgp::UpdateCodecOptions rx_options_;
  UpdateHandler handler_;
  Bytes carry_;  // partial message left over from the last delivery
  bool established_ = false;
  std::uint64_t updates_rx_ = 0;
  std::uint64_t bytes_rx_ = 0;
  std::uint64_t notifications_rx_ = 0;
};

/// Decodes every UPDATE of one recorded stream and applies it to a
/// (prefix, path id) -> attributes table, the state a receiving router
/// would hold. Used after timing, on recorded bytes.
struct ReceivedTable {
  struct Key {
    Ipv4Prefix prefix;
    std::uint32_t path_id;
    auto operator<=>(const Key&) const = default;
  };
  std::map<Key, bgp::PathAttributes> routes;
  std::uint64_t updates = 0;
  bool decode_error = false;

  void apply(std::span<const std::uint8_t> msg,
             const bgp::UpdateCodecOptions& options);
};

/// The benchmark's end of one Ethernet link: owns a MAC and a set of IPv4
/// addresses, answers ARP requests for them, sends pre-encoded frames and
/// hands every other received frame, undecoded, to a handler.
class FrameEndpoint {
 public:
  using FrameHandler = std::function<void(std::span<const std::uint8_t>)>;

  /// Attaches to side b of `link` (the platform's interface takes side a).
  FrameEndpoint(sim::Link& link, MacAddress mac,
                std::vector<Ipv4Address> addresses);
  FrameEndpoint(const FrameEndpoint&) = delete;
  FrameEndpoint& operator=(const FrameEndpoint&) = delete;

  MacAddress mac() const { return mac_; }
  void send(const Bytes& wire) { link_->b_to_a().send(wire); }
  /// Broadcasts a who-has for `target` (lets the router learn our MAC).
  void announce(Ipv4Address target);
  void on_frame(FrameHandler handler) { handler_ = std::move(handler); }

  std::uint64_t frames_received() const { return frames_rx_; }

 private:
  void receive(const Bytes& wire);

  sim::Link* link_;
  MacAddress mac_;
  std::vector<Ipv4Address> addresses_;
  FrameHandler handler_;
  std::uint64_t frames_rx_ = 0;
};

}  // namespace perfbench

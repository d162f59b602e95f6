// Reliable, in-order byte-stream channel: the control-plane transport for
// BGP sessions (a TCP stand-in). The simulated network's control-plane links
// are lossless, so the channel only needs ordering, latency, and connection
// lifecycle (open/close/reset) — which is exactly what the BGP FSM consumes.
//
// A chunk in flight is a StreamImage parked in the event loop's
// StreamTable, addressed to its receiver's endpoint id; its delivery event
// captures only the slot. A sender that fans one message out to many
// streams writes it once into an image and sends that image on each of
// them, so a member send copies nothing and allocates nothing.
//
// Lifetime: either side of a pair, and the loop, may be destroyed first.
// Data sent to a destroyed endpoint is dropped (and counted); an endpoint
// whose loop is gone sends nothing. A handler may release the last
// reference to its own endpoint: nothing touches the endpoint after a
// handler returns.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "netbase/bytes.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"

namespace peering::sim {

/// One side of an established stream. Obtain pairs via StreamChannel::make.
class StreamEndpoint {
 public:
  using DataHandler = std::function<void(const Bytes&)>;
  using CloseHandler = std::function<void()>;

  StreamEndpoint() = default;
  StreamEndpoint(const StreamEndpoint&) = delete;
  StreamEndpoint& operator=(const StreamEndpoint&) = delete;
  ~StreamEndpoint();

  /// Registers the receive callback. Data sent before a handler is attached
  /// is buffered and flushed on attachment.
  void on_data(DataHandler handler);

  /// Registers the close/reset callback.
  void on_close(CloseHandler handler) { close_handler_ = std::move(handler); }

  /// Sends a copy of `data` (in a new image) to the remote side.
  /// Returns false if the stream is closed or the remote side is gone.
  bool send(const Bytes& data);
  /// Sends `image` (non-null) itself to the remote side; the caller must
  /// not write it again. Returns false if the stream is closed or the
  /// remote side is gone.
  bool send(const StreamImage& image);

  /// Closes the stream; the remote side observes on_close after one latency.
  void close();

  bool open() const { return open_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  friend class StreamChannel;
  friend class StreamTable;

  /// True while the remote endpoint exists and this one's loop does.
  bool peer_alive() const;
  /// Parks one chunk (null: a close) for the peer and schedules its
  /// delivery one latency from now.
  void post(StreamImage data);
  void deliver(const Bytes& data);
  void remote_closed();

  /// Null once the loop is destroyed.
  EventLoop* loop_ = nullptr;
  Duration latency_;
  /// Ids in the loop's StreamTable: this endpoint's and the remote one's.
  std::uint32_t id_ = 0;
  std::uint32_t peer_ = 0;
  DataHandler data_handler_;
  CloseHandler close_handler_;
  std::vector<Bytes> pending_;  // buffered until a handler is attached
  bool open_ = true;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  // sim_stream_chunks_dropped_total, resolved once against the registry
  // installed when the pair was made: data that reached this endpoint after
  // it closed, and data this endpoint sent to a receiver that was gone.
  obs::Counter* dropped_closed_ = obs::Registry::nop_counter();
  obs::Counter* dropped_released_ = obs::Registry::nop_counter();
};

/// Factory for connected stream endpoint pairs.
class StreamChannel {
 public:
  struct Pair {
    std::shared_ptr<StreamEndpoint> a;
    std::shared_ptr<StreamEndpoint> b;
  };

  /// Creates a connected pair with symmetric one-way latency.
  static Pair make(EventLoop* loop, Duration latency);
};

}  // namespace peering::sim

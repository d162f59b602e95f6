#include "sim/stream.h"

namespace peering::sim {

StreamTable::~StreamTable() {
  for (StreamEndpoint* end : endpoints_)
    if (end) end->loop_ = nullptr;
}

std::uint32_t StreamTable::attach(StreamEndpoint* end) {
  endpoints_.push_back(end);
  return static_cast<std::uint32_t>(endpoints_.size() - 1);
}

void StreamTable::deliver(std::uint32_t slot) {
  // Free the slot before running the handler: it may send, which parks.
  const Chunk chunk = chunks_.take(slot);
  StreamEndpoint* to = endpoints_[chunk.to];
  if (!chunk.data) {
    if (to) to->remote_closed();
    return;
  }
  if (!to) {
    chunk.released->inc();
  } else if (!to->open_) {
    to->dropped_closed_->inc();
  } else {
    to->deliver(*chunk.data);
  }
}

StreamEndpoint::~StreamEndpoint() {
  if (loop_) loop_->streams().endpoints_[id_] = nullptr;
}

void StreamEndpoint::on_data(DataHandler handler) {
  data_handler_ = std::move(handler);
  if (data_handler_ && !pending_.empty()) {
    auto buffered = std::move(pending_);
    pending_.clear();
    for (auto& chunk : buffered) data_handler_(chunk);
  }
}

bool StreamEndpoint::peer_alive() const {
  return loop_ && loop_->streams().endpoints_[peer_];
}

void StreamEndpoint::post(StreamImage data) {
  StreamTable* table = &loop_->streams();
  const std::uint32_t slot =
      table->chunks_.park(peer_, std::move(data), dropped_released_);
  loop_->schedule_after(latency_, [table, slot]() { table->deliver(slot); });
}

bool StreamEndpoint::send(const StreamImage& image) {
  if (!open_ || !peer_alive()) return false;
  bytes_sent_ += image->size();
  post(image);
  return true;
}

bool StreamEndpoint::send(const Bytes& data) {
  if (!open_ || !peer_alive()) return false;
  return send(std::make_shared<const Bytes>(data));
}

void StreamEndpoint::close() {
  if (!open_) return;
  open_ = false;
  if (peer_alive()) post(nullptr);
}

void StreamEndpoint::deliver(const Bytes& data) {
  bytes_received_ += data.size();
  if (data_handler_) {
    data_handler_(data);
  } else {
    pending_.push_back(data);
  }
}

void StreamEndpoint::remote_closed() {
  if (!open_) return;
  open_ = false;
  if (close_handler_) close_handler_();
}

StreamChannel::Pair StreamChannel::make(EventLoop* loop, Duration latency) {
  Pair pair{std::make_shared<StreamEndpoint>(),
            std::make_shared<StreamEndpoint>()};
  obs::Registry* registry = obs::Registry::global();
  obs::Counter* closed = registry->counter("sim_stream_chunks_dropped_total",
                                            {{"reason", "closed"}});
  obs::Counter* released = registry->counter(
      "sim_stream_chunks_dropped_total", {{"reason", "released"}});
  for (StreamEndpoint* end : {pair.a.get(), pair.b.get()}) {
    end->loop_ = loop;
    end->latency_ = latency;
    end->id_ = loop->streams().attach(end);
    end->dropped_closed_ = closed;
    end->dropped_released_ = released;
  }
  pair.a->peer_ = pair.b->id_;
  pair.b->peer_ = pair.a->id_;
  return pair;
}

}  // namespace peering::sim

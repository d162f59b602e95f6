#include "sim/stream.h"

namespace peering::sim {

std::uint32_t StreamTable::park(Chunk chunk) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(chunks_.size());
    chunks_.push_back(std::move(chunk));
  } else {
    slot = free_.back();
    free_.pop_back();
    chunks_[slot] = std::move(chunk);
  }
  return slot;
}

void StreamTable::deliver(std::uint32_t slot) {
  // Free the slot before running the handler: it may send, which parks.
  Chunk chunk = std::move(chunks_[slot]);
  free_.push_back(slot);
  const std::shared_ptr<StreamEndpoint> to = chunk.to.lock();
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

void StreamEndpoint::on_data(DataHandler handler) {
  data_handler_ = std::move(handler);
  if (data_handler_ && !pending_.empty()) {
    auto buffered = std::move(pending_);
    pending_.clear();
    for (auto& chunk : buffered) data_handler_(chunk);
  }
}

void StreamEndpoint::post(const std::shared_ptr<StreamEndpoint>& peer,
                          StreamImage data) {
  StreamTable* table = &loop_->streams();
  const std::uint32_t slot =
      table->park({peer, std::move(data), dropped_released_});
  loop_->schedule_after(latency_, [table, slot]() { table->deliver(slot); });
}

bool StreamEndpoint::send(const StreamImage& image) {
  auto peer = peer_.lock();
  if (!open_ || !peer) return false;
  bytes_sent_ += image->size();
  post(peer, image);
  return true;
}

bool StreamEndpoint::send(const Bytes& data) {
  if (!open_ || peer_.expired()) return false;
  return send(std::make_shared<const Bytes>(data));
}

void StreamEndpoint::close() {
  if (!open_) return;
  open_ = false;
  if (auto peer = peer_.lock()) post(peer, nullptr);
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
    end->dropped_closed_ = closed;
    end->dropped_released_ = released;
  }
  pair.a->peer_ = pair.b;
  pair.b->peer_ = pair.a;
  return pair;
}

}  // namespace peering::sim

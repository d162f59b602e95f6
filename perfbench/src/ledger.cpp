#include "ledger.h"

#include <cstdio>
#include <fstream>

#include "ip/ipv4.h"
#include "stats.h"
#include "vbgp/communities.h"

namespace perfbench {

std::uint64_t SpanLog::add(std::uint64_t parent, std::uint64_t burst,
                           const char* name, std::uint64_t start_ns,
                           std::uint64_t end_ns) {
  if (spans_.size() >= kCap) {
    ++dropped_;
    return 0;
  }
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, burst, name, start_ns, end_ns});
  return id;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"id\":%llu,\"parent\":%llu,\"burst\":%llu,\"name\":\"%s\","
                  "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.burst), s.name,
                  static_cast<unsigned long long>(s.start_ns - origin),
                  static_cast<unsigned long long>(s.end_ns - origin));
    out << line;
  }
  return static_cast<bool>(out);
}

double LayerTotals::attributed_share() const {
  if (burst_ns == 0) return 0.0;
  const double layers = static_cast<double>(decode_ns + intern_ns + rib_ns +
                                            encode_ns + community_ns +
                                            control_ns);
  return layers / static_cast<double>(burst_ns);
}

struct Ledger::Private {
  // Replay instances resolve their telemetry against a disabled registry,
  // so they leave the traced world's counters untouched.
  obs::Registry off{false};
  std::vector<bgp::PeerDecisionInfo> peers;
  bgp::AttrPool pool;
  std::vector<bgp::AdjRibIn> adj;
  std::unique_ptr<bgp::LocRib> loc;
  bgp::MessageDecoder neighbor_decoder;
  bgp::MessageDecoder experiment_decoder;
  bgp::UpdateCodecOptions export_options;
  std::unique_ptr<enforce::ControlPlaneEnforcer> control;
  std::unique_ptr<enforce::DataPlaneEnforcer> data;
  std::vector<std::uint16_t> local_ids;
  std::vector<std::string> experiment_ids;
  std::vector<const ip::FibView*> neighbor_views;
  ip::FibSet mux_set;
  std::unique_ptr<ip::FibView> mux;
};

Ledger::Ledger(World& world, const std::vector<inet::FeedRoute>& table,
               const std::vector<std::vector<bgp::PathAttributes>>& neighbor_attrs)
    : world_(&world), p_(std::make_unique<Private>()) {
  obs::Scope scope(&p_->off);
  auto& neighbors = world.neighbors();
  auto& experiments = world.experiments();
  const std::size_t sources = neighbors.size() + experiments.size();
  for (const Neighbor& nb : neighbors)
    p_->peers.push_back({false, nb.asn, nb.address, nb.address});
  for (const Experiment& x : experiments)
    p_->peers.push_back({false, x.asn, experiment_tunnel_address(x.index),
                         experiment_tunnel_address(x.index)});
  p_->adj.resize(sources);
  p_->loc = std::make_unique<bgp::LocRib>([this](bgp::PeerId peer) {
    return p_->peers.at(peer - 1);
  });
  bgp::UpdateCodecOptions with_ids;
  with_ids.add_path = true;
  p_->experiment_decoder.set_options(with_ids);
  p_->export_options = with_ids;

  // The neighbors' tables, as the router holds them after setup.
  for (std::size_t n = 0; n < neighbors.size(); ++n) {
    for (std::size_t i = 0; i < table.size(); ++i) {
      bgp::RibRoute route{table[i].prefix, 0,
                          static_cast<bgp::PeerId>(n + 1),
                          p_->pool.intern(neighbor_attrs[n][i])};
      p_->adj[n].update(route);
      p_->loc->update(route);
    }
  }

  p_->control = std::make_unique<enforce::ControlPlaneEnforcer>();
  p_->control->install_default_rules({vbgp::kWhitelistAsn, vbgp::kBlacklistAsn});
  p_->data = std::make_unique<enforce::DataPlaneEnforcer>();
  p_->mux = std::make_unique<ip::FibView>(p_->mux_set.make_view());
  for (const Experiment& x : experiments) {
    if (const auto* g = world.control(x.pop).grant(x.id)) {
      p_->control->set_grant(*g);
      (void)p_->data->install(*g);
    }
    p_->experiment_ids.push_back(x.id);
    p_->mux->insert(ip::Route{x.block, x.host, x.interface, 0});
  }
  for (const Neighbor& nb : neighbors) {
    p_->local_ids.push_back(nb.local_id);
    p_->neighbor_views.push_back(
        &world.router(0).registry().by_peer(nb.peer)->fib);
  }
}

Ledger::~Ledger() = default;

void Ledger::burst(const Step& step, std::uint64_t start, std::uint64_t injected,
                   std::uint64_t end) {
  const std::uint64_t burst = next_burst_++;
  const std::uint64_t id = spans_.add(0, burst, "burst", start, end);
  spans_.add(id, burst, "inject", start, injected);
  spans_.add(id, burst, "drain", injected, end);
  totals_.burst_ns += end - start;
  ++totals_.updates;

  auto timed = [&](const char* name, std::uint64_t& total, auto&& fn) {
    const std::uint64_t t0 = now_ns();
    fn();
    const std::uint64_t t1 = now_ns();
    total += t1 - t0;
    spans_.add(id, burst, name, t0, t1);
  };

  const bool from_experiment = step.experiment >= 0;
  bgp::MessageDecoder& decoder =
      from_experiment ? p_->experiment_decoder : p_->neighbor_decoder;
  std::optional<bgp::BgpMessage> message;
  timed("replay.decode", totals_.decode_ns, [&] {
    decoder.feed(step.wire);
    auto result = decoder.poll();
    if (result.ok() && result->has_value()) message = std::move(**result);
  });
  if (!message || !std::holds_alternative<bgp::UpdateMessage>(*message)) return;
  const auto& update = std::get<bgp::UpdateMessage>(*message);

  bgp::AttrsPtr attrs;
  if (update.attributes) {
    ++totals_.announces;
    timed("replay.intern", totals_.intern_ns,
          [&] { attrs = p_->pool.intern(*update.attributes); });
  }

  const std::size_t source =
      from_experiment ? p_->local_ids.size() + static_cast<std::size_t>(step.experiment)
                      : static_cast<std::size_t>(step.neighbor);
  const auto peer = static_cast<bgp::PeerId>(source + 1);
  totals_.routes += update.withdrawn.size() + update.nlri.size();
  timed("replay.rib", totals_.rib_ns, [&] {
    for (const auto& w : update.withdrawn) {
      p_->adj[source].withdraw(w.prefix, w.path_id);
      p_->loc->withdraw(w.prefix, peer, w.path_id);
    }
    for (const auto& n : update.nlri) {
      bgp::RibRoute route{n.prefix, n.path_id, peer, attrs};
      p_->adj[source].update(route);
      p_->loc->update(route);
    }
  });

  timed("replay.encode", totals_.encode_ns, [&] {
    sink_ += bgp::encode_message(*message, p_->export_options).size();
  });

  if (!from_experiment || !attrs) return;
  timed("replay.community_filter", totals_.community_ns, [&] {
    for (std::uint16_t id : p_->local_ids)
      sink_ += vbgp::export_allowed_by_communities(attrs->communities, id);
  });
  totals_.community_calls += p_->local_ids.size();

  timed("replay.control_enforce", totals_.control_ns, [&] {
    enforce::AnnouncementContext ctx;
    ctx.experiment_id = p_->experiment_ids[static_cast<std::size_t>(step.experiment)];
    ctx.pop_id = "pop0";
    ctx.prefix = step.prefix;
    ctx.attrs = attrs;
    ctx.now = world_->loop().now();
    sink_ += static_cast<std::uint64_t>(p_->control->check(ctx).action);
  });
  ++totals_.control_calls;
}

void Ledger::frame_window(const std::vector<Frame>& frames, std::size_t begin,
                          std::size_t count, std::uint64_t start,
                          std::uint64_t end) {
  const std::uint64_t burst = next_burst_++;
  const std::uint64_t id = spans_.add(0, burst, "frame_window", start, end);
  spans_.add(id, burst, "frames", start, end);
  totals_.packets += count;

  // Untimed: split each frame into its destination MAC and IP bytes.
  std::vector<MacAddress> macs;
  std::vector<std::span<const std::uint8_t>> packets;
  macs.reserve(count);
  packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Bytes& wire = frames[begin + i].wire;
    macs.push_back(MacAddress(wire[0], wire[1], wire[2], wire[3], wire[4], wire[5]));
    packets.emplace_back(wire.data() + 14, wire.size() - 14);
  }

  auto timed = [&](const char* name, std::uint64_t& total, auto&& fn) {
    const std::uint64_t t0 = now_ns();
    fn();
    const std::uint64_t t1 = now_ns();
    total += t1 - t0;
    spans_.add(id, burst, name, t0, t1);
  };

  auto& registry = world_->router(0).registry();
  timed("replay.demux", totals_.demux_ns, [&] {
    for (const MacAddress& mac : macs)
      sink_ += registry.by_mac(mac) != nullptr;
  });
  timed("replay.lpm", totals_.lpm_ns, [&] {
    for (std::size_t i = 0; i < count; ++i) {
      const Frame& f = frames[begin + i];
      const ip::FibView& view =
          f.view_neighbor >= 0
              ? *p_->neighbor_views[static_cast<std::size_t>(f.view_neighbor)]
              : *p_->mux;
      if (auto r = view.lookup(f.dst)) sink_ += r->next_hop.value();
    }
  });
  totals_.lpm_calls += count;
  std::size_t filtered = 0;
  timed("replay.filter", totals_.filter_ns, [&] {
    const SimTime now = world_->loop().now();
    for (std::size_t i = 0; i < count; ++i) {
      const Frame& f = frames[begin + i];
      if (f.filter_experiment < 0) continue;
      ++filtered;
      sink_ += static_cast<std::uint64_t>(p_->data->check(
          p_->experiment_ids[static_cast<std::size_t>(f.filter_experiment)],
          packets[i], now));
    }
  });
  totals_.filter_calls += filtered;
  timed("replay.codec", totals_.codec_ns, [&] {
    for (const auto& bytes : packets) {
      auto packet = ip::Ipv4Packet::decode(bytes);
      if (packet) sink_ += packet->encode().size();
    }
  });
}

}  // namespace perfbench

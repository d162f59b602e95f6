// Update-group fan-out at PoP scale: one speaker, hundreds of sessions
// with identical export fingerprints, full-table churn. The quantity under
// test is the per-session export cost — with update groups the policy,
// transform, and wire encoding run once per group and each member only
// pays for splice + transmit, so the cost per session must drop as the
// group grows. The ungrouped run (every session a singleton group) is the
// per-peer reference the refactor replaced; the binary exits non-zero if
// grouping does not beat it, and checks the two modes stay behaviorally
// identical (same UPDATE count).
//
// It also counts heap allocations per ingress UPDATE over the churn rounds
// (the counting operator new comes from perfbench/src/alloc_count.cpp).
// Members of a group share one evaluation, one encode and one wire image,
// so a member adds no allocation: the binary exits non-zero if the grouped
// count at 1000 sessions exceeds 1.05x the count at 500. Ungrouped, every
// session is its own group and pays its own export transform, which
// allocates; that count is reported, and grows with the sessions.
//
// Over the same rounds it counts the events the loop executes per ingress
// UPDATE: one drain per UPDATE plus one delivery per stream chunk, so the
// count pins the event and stream layers' shape exactly.
//
// Results are mirrored into BENCH_fanout.json (see bench_util.h).
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "alloc_count.h"
#include "bench_util.h"
#include "bgp/speaker.h"
#include "sim/event_loop.h"
#include "sim/stream.h"

using namespace peering;

namespace {

constexpr std::size_t kPrefixes = 200;
constexpr int kChurnRounds = 3;  // initial table + full-table churns

/// Handshakes a session to Established, then drops everything undecoded:
/// the bench measures the hub's export cost, not a receiver's decode cost.
class SinkPeer {
 public:
  SinkPeer(std::shared_ptr<sim::StreamEndpoint> stream, bgp::Asn asn,
           Ipv4Address router_id)
      : stream_(std::move(stream)) {
    stream_->on_data([this, asn, router_id](const Bytes& data) {
      if (established_) return;
      decoder_.feed(data);
      while (true) {
        auto result = decoder_.poll();
        if (!result.ok() || !result->has_value()) return;
        if (std::holds_alternative<bgp::OpenMessage>(**result)) {
          bgp::OpenMessage open;
          open.asn = asn;
          open.router_id = router_id;
          open.add_four_byte_asn(asn);
          bgp::UpdateCodecOptions options;
          stream_->send(bgp::encode_message(open, options));
          stream_->send(bgp::encode_message(bgp::KeepaliveMessage{}, options));
        } else if (std::holds_alternative<bgp::KeepaliveMessage>(**result)) {
          established_ = true;
        }
      }
    });
  }

  bool established() const { return established_; }

 private:
  std::shared_ptr<sim::StreamEndpoint> stream_;
  bgp::MessageDecoder decoder_;
  bool established_ = false;
};

/// One full-table churn round: every prefix re-announced with a changed
/// (transitive, so it survives eBGP export) community, so every session
/// receives every prefix every round.
std::vector<Bytes> round_wires(const std::vector<inet::FeedRoute>& feed,
                               int round,
                               const bgp::UpdateCodecOptions& options) {
  std::vector<Bytes> wires;
  wires.reserve(feed.size());
  for (const auto& route : feed) {
    bgp::UpdateMessage update;
    bgp::PathAttributes attrs = route.attrs;
    attrs.communities.push_back(
        bgp::Community(65001, 9000u + static_cast<std::uint16_t>(round)));
    update.attributes = std::move(attrs);
    update.nlri.push_back({0, route.prefix});
    wires.push_back(bgp::encode_message(update, options));
  }
  return wires;
}

struct FanoutResult {
  std::size_t sessions = 0;
  std::size_t groups = 0;
  std::uint64_t updates_sent = 0;
  double us_per_ingress_update = 0;
  double us_per_session_export = 0;
  /// Heap allocations per ingress UPDATE over the churn rounds after the
  /// initial table.
  double allocs_per_update = 0;
  /// Events the loop executed per ingress UPDATE over the same rounds.
  double events_per_update = 0;
};

FanoutResult measure(std::size_t session_count, bool group_exports) {
  sim::EventLoop loop;
  bgp::BgpSpeaker hub(&loop, "pop", 47065, Ipv4Address(10, 255, 9, 1),
                      bgp::PipelineConfig{.group_exports = group_exports});

  std::vector<std::unique_ptr<SinkPeer>> sinks;
  sinks.reserve(session_count);
  for (std::size_t i = 0; i < session_count; ++i) {
    std::string sink_name = "s";
    sink_name += std::to_string(i);
    bgp::PeerId peer = hub.add_peer(
        {.name = sink_name,
         .peer_asn = static_cast<bgp::Asn>(64512 + i),
         .local_address = Ipv4Address(10, static_cast<std::uint8_t>(i >> 8),
                                      static_cast<std::uint8_t>(i & 255), 1)});
    auto streams = sim::StreamChannel::make(&loop, Duration::micros(10));
    hub.connect_peer(peer, streams.a);
    sinks.push_back(std::make_unique<SinkPeer>(
        streams.b, static_cast<bgp::Asn>(64512 + i),
        Ipv4Address(9, static_cast<std::uint8_t>(i >> 8),
                    static_cast<std::uint8_t>(i & 255), 9)));
  }
  bgp::PeerId source_peer =
      hub.add_peer({.name = "feed", .peer_asn = 65001,
                    .local_address = Ipv4Address(10, 254, 0, 1)});
  auto streams = sim::StreamChannel::make(&loop, Duration::micros(10));
  hub.connect_peer(source_peer, streams.a);
  benchutil::WirePeer source(&loop, streams.b, 65001,
                             Ipv4Address(2, 2, 2, 2), false);
  loop.run_for(Duration::seconds(2));
  if (!source.established()) {
    std::fprintf(stderr, "feed session failed to establish\n");
    return {};
  }
  std::size_t established = 0;
  for (const auto& sink : sinks) established += sink->established();

  inet::RouteFeedConfig feed_config;
  feed_config.route_count = kPrefixes;
  feed_config.neighbor_asn = 65001;
  feed_config.seed = 17;
  auto feed = inet::generate_feed(feed_config);

  std::vector<std::vector<Bytes>> rounds;
  for (int round = 0; round < kChurnRounds; ++round)
    rounds.push_back(round_wires(feed, round, source.tx_options()));

  const std::uint64_t sent_before_churn = hub.total_updates_sent();
  perfbench::AllocCounts churn_start;
  std::size_t churn_events = 0;
  auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < kChurnRounds; ++round) {
    if (round == 1) churn_start = perfbench::alloc_counts();
    for (const auto& wire : rounds[static_cast<std::size_t>(round)])
      source.send_raw(wire);
    const std::size_t events = loop.run_for(Duration::seconds(5));
    if (round >= 1) churn_events += events;
  }
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const perfbench::AllocCounts churn_allocs =
      perfbench::alloc_counts() - churn_start;

  FanoutResult result;
  result.sessions = established;
  result.groups = hub.export_group_count();
  result.updates_sent = hub.total_updates_sent() - sent_before_churn;
  const double ingress = static_cast<double>(kPrefixes) * kChurnRounds;
  result.us_per_ingress_update = elapsed / ingress * 1e6;
  result.us_per_session_export =
      elapsed / (ingress * static_cast<double>(session_count)) * 1e6;
  const double counted = static_cast<double>(kPrefixes) * (kChurnRounds - 1);
  result.allocs_per_update = static_cast<double>(churn_allocs.allocs) / counted;
  result.events_per_update = static_cast<double>(churn_events) / counted;
  return result;
}

}  // namespace

int main() {
  std::printf(
      "=== Update-group fan-out (%zu prefixes, %d full-churn rounds) ===\n\n",
      kPrefixes, kChurnRounds);

  benchutil::JsonReport report("fanout");
  bool ok = true;

  std::printf("%10s %10s %8s %14s %18s %14s %14s\n", "sessions", "grouping",
              "groups", "us/update", "us/session-export", "allocs/update",
              "events/update");
  struct Row {
    std::size_t sessions;
    bool grouped;
  };
  const Row rows[] = {{500, true}, {500, false}, {1000, true}, {1000, false}};
  FanoutResult results[4];
  for (int i = 0; i < 4; ++i) {
    results[i] = measure(rows[i].sessions, rows[i].grouped);
    const auto& r = results[i];
    std::printf("%10zu %10s %8zu %14.1f %18.3f %14.2f %14.2f\n",
                rows[i].sessions, rows[i].grouped ? "grouped" : "singleton",
                r.groups, r.us_per_ingress_update, r.us_per_session_export,
                r.allocs_per_update, r.events_per_update);
    const std::string tag = (rows[i].grouped ? std::string("grouped_")
                                             : std::string("ungrouped_")) +
                            std::to_string(rows[i].sessions);
    report.metric("sessions_" + tag, static_cast<double>(r.sessions));
    report.metric("groups_" + tag, static_cast<double>(r.groups));
    report.metric("updates_sent_" + tag, static_cast<double>(r.updates_sent));
    report.metric("us_per_session_export_" + tag, r.us_per_session_export);
    report.metric("allocs_per_update_" + tag, r.allocs_per_update);
    report.metric("events_per_update_" + tag, r.events_per_update);
  }

  // Behavioral identity: grouping must not change what is sent.
  for (int pair = 0; pair < 2; ++pair) {
    const auto& grouped = results[pair * 2];
    const auto& ungrouped = results[pair * 2 + 1];
    if (grouped.updates_sent != ungrouped.updates_sent) {
      std::printf(
          "FAIL: grouped sent %llu updates, ungrouped %llu at %zu sessions\n",
          static_cast<unsigned long long>(grouped.updates_sent),
          static_cast<unsigned long long>(ungrouped.updates_sent),
          rows[pair * 2].sessions);
      ok = false;
    }
  }
  // The point of the refactor: per-session export cost drops as the group
  // grows (singleton groups are the per-peer reference implementation).
  const double grouped_1000 = results[2].us_per_session_export;
  const double singleton_1000 = results[3].us_per_session_export;
  std::printf(
      "\nper-session export cost at 1000 sessions: group size 1000 -> %.3f "
      "us, group size 1 -> %.3f us (%.2fx)\n",
      grouped_1000, singleton_1000, singleton_1000 / grouped_1000);
  if (!(grouped_1000 < singleton_1000)) {
    std::printf("FAIL: grouping did not reduce per-session export cost\n");
    ok = false;
  }

  // A group member shares its class's evaluation, encode and wire image:
  // doubling the members must not add allocations.
  const double allocs_500 = results[0].allocs_per_update;
  const double allocs_1000 = results[2].allocs_per_update;
  std::printf("grouped allocations per update: %.2f at 500 sessions, %.2f "
              "at 1000\n",
              allocs_500, allocs_1000);
  if (allocs_1000 > 1.05 * allocs_500) {
    std::printf("FAIL: grouped allocations grow with the number of members\n");
    ok = false;
  }

  std::printf("wrote %s\n", report.write().c_str());
  return ok ? 0 : 1;
}

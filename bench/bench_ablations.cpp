// Ablations of the design choices DESIGN.md calls out:
//
//   1. attribute interning (the BIRD-style attribute cache): table memory
//      with the shared AttrPool vs. one private PathAttributes per route —
//      the difference is why per-route cost stays in the hundreds of bytes
//      (Figure 6a's premise). Deterministic byte accounting: CI gates the
//      MB figures and their ratio exactly;
//   2. MRAI batching: updates emitted downstream for a flapping prefix at
//      different minimum route advertisement intervals (why vBGP's
//      re-export does not amplify churn). Deterministic: CI gates the
//      counts exactly.
//
// The ADD-PATH fan-out cost curve is bench_attr_flow's.
#include <cstdio>

#include "bench_util.h"
#include "bgp/speaker.h"

using namespace peering;

namespace {

// ---------------------------------------------------------------------------
// Ablation 1: attribute interning.
// ---------------------------------------------------------------------------
void ablate_attr_interning(benchutil::JsonReport& report) {
  constexpr std::size_t kRoutes = 500'000;
  inet::RouteFeedConfig config;
  config.route_count = kRoutes;
  config.seed = 5;
  auto feed = inet::generate_feed(config);

  // Shared: intern through the pool.
  bgp::AttrPool pool;
  {
    std::vector<bgp::AttrsPtr> keep;
    keep.reserve(feed.size());
    for (const auto& route : feed) keep.push_back(pool.intern(route.attrs));
    std::printf("  with interning:    %7.1f MB for %zu routes (%zu distinct "
                "attribute sets)\n",
                pool.memory_bytes() / 1e6, kRoutes, pool.size());
  }

  // Private: every route pays its own attribute footprint. Reuse the
  // pool's accounting by interning each with a unique discriminator.
  bgp::AttrPool private_pool;
  {
    std::vector<bgp::AttrsPtr> keep;
    keep.reserve(feed.size());
    std::uint32_t i = 0;
    for (const auto& route : feed) {
      bgp::PathAttributes attrs = route.attrs;
      attrs.med = i++;  // defeat sharing
      keep.push_back(private_pool.intern(attrs));
    }
    std::printf("  without interning: %7.1f MB for %zu routes\n",
                private_pool.memory_bytes() / 1e6, kRoutes);
  }
  const double ratio = static_cast<double>(private_pool.memory_bytes()) /
                      static_cast<double>(pool.memory_bytes());
  std::printf("  -> interning saves %.1fx\n", ratio);
  report.metric("interning_with_mb", pool.memory_bytes() / 1e6);
  report.metric("interning_without_mb", private_pool.memory_bytes() / 1e6);
  report.metric("interning_ratio", ratio);
}

// ---------------------------------------------------------------------------
// Ablation 2: MRAI batching.
// ---------------------------------------------------------------------------
std::uint64_t updates_sent_with_mrai(Duration mrai) {
  sim::EventLoop loop;
  bgp::BgpSpeaker a(&loop, "a", 65001, Ipv4Address(1, 1, 1, 1));
  bgp::BgpSpeaker b(&loop, "b", 65002, Ipv4Address(2, 2, 2, 2));
  bgp::PeerConfig a_cfg{.name = "to-b", .peer_asn = 65002};
  a_cfg.mrai = mrai;
  bgp::PeerId ap = a.add_peer(a_cfg);
  bgp::PeerId bp = b.add_peer({.name = "to-a", .peer_asn = 65001});
  auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
  a.connect_peer(ap, streams.a);
  b.connect_peer(bp, streams.b);
  loop.run_for(Duration::seconds(5));

  // A prefix flapping every 2 seconds for 10 minutes.
  auto prefix = *Ipv4Prefix::parse("184.164.224.0/24");
  for (int i = 0; i < 300; ++i) {
    bgp::PathAttributes attrs;
    attrs.med = static_cast<std::uint32_t>(i);
    a.originate(prefix, attrs);
    loop.run_for(Duration::seconds(2));
  }
  loop.run_for(Duration::seconds(60));
  return a.peer_stats(ap).updates_sent;
}

}  // namespace

int main() {
  benchutil::JsonReport report("ablations");

  std::printf("=== Ablation 1: attribute interning (500k-route table) ===\n");
  ablate_attr_interning(report);

  std::printf("\n=== Ablation 2: MRAI batching (300 flaps over 10 min) ===\n");
  std::printf("%16s %20s\n", "MRAI", "updates emitted");
  for (int seconds : {0, 5, 30, 120}) {
    std::uint64_t sent = updates_sent_with_mrai(Duration::seconds(seconds));
    std::printf("%15ds %20llu\n", seconds,
                static_cast<unsigned long long>(sent));
    report.metric("mrai_" + std::to_string(seconds) + "s_updates",
                  static_cast<double>(sent));
  }
  std::printf("  -> the platform's per-prefix budget (144/day) plus MRAI keep"
              " re-export churn bounded\n");
  std::printf("wrote %s\n", report.write().c_str());
  return 0;
}

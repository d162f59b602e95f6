// The three workloads, their seeded inputs, the timed phases and the
// output checks.
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include <sys/resource.h>

#include "alloc_count.h"
#include "bench.h"
#include "ether/frame.h"
#include "ip/ipv4.h"
#include "ledger.h"
#include "netbase/rand.h"
#include "stats.h"
#include "vbgp/communities.h"

namespace perfbench {

namespace {

enum class Churn { kNeighbor, kExperiment };
enum class Traffic { kEgress, kIngress };

struct Def {
  const char* name;
  const char* why;
  WorldSpec spec;
  std::size_t table_routes;
  Churn churn;
  int pairs;             // (prefix, source) pairs per round
  Traffic traffic;
  int frames;            // frames per size, cycled
  int small_window;      // frames per timed window
  int large_window;
};

const Def kDefs[] = {
    {"mux_fanout",
     "one PoP, 8 neighbors x 25k prefixes, 32 ADD-PATH experiments: "
     "many-candidate decision, 32-member group encode, LPM over 8 FIB views",
     {.pops = 1, .neighbors = 8, .experiments_per_pop = 32},
     25'000, Churn::kNeighbor, 128, Traffic::kEgress, 8192, 1024,
     512},
    {"backbone_mesh",
     "4 PoPs in an iBGP full mesh with MRAI and monitors: per-hop decode and "
     "decision, global next-hops, MRAI batching, little experiment fan-out",
     {.pops = 4, .neighbors = 2, .experiments_per_pop = 1, .monitors = true},
     40'000, Churn::kNeighbor, 64, Traffic::kIngress, 4096, 512, 256},
    {"experiment_announce",
     "one PoP, 16 neighbors x 4k prefixes, 64 experiments announcing: "
     "control enforcement, community export control, mux ingress",
     {.pops = 1, .neighbors = 16, .experiments_per_pop = 64},
     4'000, Churn::kExperiment, 256, Traffic::kIngress, 8192, 1024,
     512},
};

/// Set-ups per untraced run (the median is reported), distinct churn rounds
/// per seed (cycled) and churn UPDATEs per timed window (a few ms).
constexpr int kSetups = 3;
constexpr int kRounds = 4;
constexpr std::size_t kChurnWindow = 32;

const Def* find_def(const std::string& name) {
  for (const Def& d : kDefs)
    if (name == d.name) return &d;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Neighbor n's version of a table route: its own first hop (odd neighbors
/// prepend once more) and its own next hop, so every neighbor contributes a
/// distinct path per prefix.
bgp::PathAttributes neighbor_attrs(const bgp::PathAttributes& base, int n) {
  bgp::PathAttributes a = base;
  auto& segments = a.as_path.segments();
  if (!segments.empty() && !segments[0].asns.empty() &&
      segments[0].type == bgp::AsPathSegmentType::kSequence)
    segments[0].asns[0] = neighbor_asn(n);
  else
    a.as_path = a.as_path.prepended(neighbor_asn(n));
  if (n % 2 == 1) a.as_path = a.as_path.prepended(neighbor_asn(n));
  a.next_hop = neighbor_address(n);
  return a;
}

bgp::UpdateCodecOptions neighbor_tx() { return {}; }
bgp::UpdateCodecOptions experiment_tx() {
  bgp::UpdateCodecOptions o;
  o.add_path = true;
  return o;
}

/// The full-table transfer of neighbor n: consecutive routes sharing an
/// attribute set are packed into one UPDATE, as a real speaker sends them.
std::vector<Bytes> encode_table(const std::vector<inet::FeedRoute>& table,
                                int n) {
  constexpr std::size_t kMaxNlri = 100;
  std::vector<Bytes> wires;
  bgp::UpdateMessage update;
  auto flush = [&] {
    if (update.nlri.empty()) return;
    wires.push_back(bgp::encode_message(update, neighbor_tx()));
    update = bgp::UpdateMessage{};
  };
  for (const auto& route : table) {
    bgp::PathAttributes attrs = neighbor_attrs(route.attrs, n);
    if (update.attributes &&
        (*update.attributes != attrs || update.nlri.size() == kMaxNlri))
      flush();
    if (!update.attributes) update.attributes = std::move(attrs);
    update.nlri.push_back({0, route.prefix});
  }
  flush();
  return wires;
}

Bytes encode_announce(const Ipv4Prefix& prefix, const bgp::PathAttributes& attrs,
                      const bgp::UpdateCodecOptions& options) {
  bgp::UpdateMessage update;
  update.attributes = attrs;
  update.nlri.push_back({options.add_path ? 1u : 0u, prefix});
  return bgp::encode_message(update, options);
}

Bytes encode_withdraw(const Ipv4Prefix& prefix,
                      const bgp::UpdateCodecOptions& options) {
  bgp::UpdateMessage update;
  update.withdrawn.push_back({options.add_path ? 1u : 0u, prefix});
  return bgp::encode_message(update, options);
}

/// Interleaves the passes of a round: pass j of pair i runs at slot
/// i + j * lag. Every window then holds every kind of step in the same
/// proportion (a median over windows of one kind each would jump between
/// kinds from run to run), each pair's passes keep their order, and other
/// prefixes run between them.
std::vector<Step> stagger(std::vector<std::vector<Step>> passes, std::size_t lag) {
  std::vector<Step> out;
  const std::size_t n = passes.front().size();
  for (std::size_t t = 0; t < n + (passes.size() - 1) * lag; ++t)
    for (std::size_t j = 0; j < passes.size(); ++j)
      if (t >= j * lag && t - j * lag < n)
        out.push_back(std::move(passes[j][t - j * lag]));
  return out;
}

/// Neighbor churn: per (route, neighbor) pair a MED or path perturbation,
/// its restore, a withdraw and the re-announce. After the last step every
/// Loc-RIB is back to its post-setup state.
std::vector<Round> neighbor_rounds(const Def& def,
                                   const std::vector<inet::FeedRoute>& table,
                                   Rng& rng) {
  std::vector<Round> rounds;
  for (int r = 0; r < kRounds; ++r) {
    Round round;
    std::vector<std::pair<std::size_t, int>> pairs;
    std::unordered_set<std::size_t> used;
    while (static_cast<int>(pairs.size()) < def.pairs) {
      std::size_t i = rng.below(table.size());
      if (!used.insert(i).second) continue;
      pairs.emplace_back(i, static_cast<int>(rng.below(
                                static_cast<std::uint64_t>(def.spec.neighbors))));
      round.touched.push_back(table[i].prefix);
    }
    std::vector<std::vector<Step>> passes(4);
    for (int pass = 0; pass < 4; ++pass) {
      for (auto [i, n] : pairs) {
        Step s;
        s.neighbor = n;
        s.prefix = table[i].prefix;
        if (pass == 2) {
          s.withdraw = true;
          s.wire = encode_withdraw(s.prefix, neighbor_tx());
          passes[2].push_back(std::move(s));
          continue;
        }
        inet::ChurnEvent event;
        event.route = static_cast<std::uint32_t>(i);
        event.variant = pass == 0 ? static_cast<std::uint8_t>(1 + rng.below(3)) : 0;
        bgp::PathAttributes attrs =
            neighbor_attrs(inet::churn_event_route(table, event).attrs, n);
        // A share of perturbations also lengthen the path.
        if (pass == 0 && rng.chance(0.25))
          attrs.as_path = attrs.as_path.prepended(neighbor_asn(n));
        s.wire = encode_announce(s.prefix, attrs, neighbor_tx());
        passes[static_cast<std::size_t>(pass)].push_back(std::move(s));
      }
    }
    round.steps = stagger(std::move(passes), 32);
    rounds.push_back(std::move(round));
  }
  return rounds;
}

/// Experiment churn: announcements of /24s (whitelist, blacklist or no
/// control communities; 0-2 prepends), then their withdrawals. One in five
/// is hostile: a prefix outside the allocation, or a path poisoned with a
/// third-party ASN the experiment has no capability for.
std::vector<Round> experiment_rounds(const Def& def, World& world, Rng& rng) {
  const int neighbors = def.spec.neighbors;
  const int experiments = static_cast<int>(world.experiments().size());
  std::vector<Round> rounds;
  for (int r = 0; r < kRounds; ++r) {
    Round round;
    std::vector<Step> announces;
    std::set<std::pair<int, Ipv4Prefix>> used;
    while (static_cast<int>(announces.size()) < def.pairs) {
      Step s;
      s.experiment = static_cast<int>(rng.below(static_cast<std::uint64_t>(experiments)));
      const Experiment& x = world.experiments()[static_cast<std::size_t>(s.experiment)];
      const int kind = static_cast<int>(rng.below(10));  // 0-7 benign, 8-9 hostile
      const auto sub = static_cast<std::uint32_t>(rng.below(4));
      if (kind == 8) {
        // Unowned: the same /24 position, outside 184.164.0.0/16.
        s.prefix = Ipv4Prefix(
            Ipv4Address(184, 165, static_cast<std::uint8_t>(x.index * 4 + sub), 0), 24);
      } else {
        s.prefix = Ipv4Prefix(Ipv4Address(x.block.address().value() + (sub << 8)), 24);
      }
      if (!used.insert({s.experiment, s.prefix}).second) continue;
      s.hostile = kind >= 8;
      bgp::PathAttributes a;
      a.origin = bgp::Origin::kIgp;
      a.next_hop = experiment_tunnel_address(x.index);
      std::vector<bgp::Asn> path{x.asn};
      const auto prepends = rng.below(3);
      for (std::uint64_t k = 0; k < prepends; ++k) path.push_back(x.asn);
      if (kind == 9) path.insert(path.begin() + 1, 3356u);  // poisoned
      a.as_path = bgp::AsPath(path);
      std::vector<int> reach;
      const auto mode = rng.below(3);  // 0 none, 1 whitelist, 2 blacklist
      std::set<int> chosen;
      const auto picks = 1 + rng.below(3);
      while (mode != 0 && chosen.size() < picks)
        chosen.insert(static_cast<int>(rng.below(static_cast<std::uint64_t>(neighbors))));
      for (int n : chosen) {
        const std::uint16_t id = world.neighbors()[static_cast<std::size_t>(n)].local_id;
        a.communities.push_back(mode == 1 ? vbgp::announce_to(id)
                                          : vbgp::no_announce_to(id));
      }
      std::sort(a.communities.begin(), a.communities.end());
      for (int n = 0; n < neighbors; ++n) {
        const bool listed = chosen.count(n) > 0;
        if (mode == 0 || (mode == 1 && listed) || (mode == 2 && !listed))
          reach.push_back(n);
      }
      if (!s.hostile) s.reach = std::move(reach);
      s.wire = encode_announce(s.prefix, a, experiment_tx());
      round.touched.push_back(s.prefix);
      announces.push_back(std::move(s));
    }
    std::vector<Step> withdraws;
    for (const Step& a : announces) {
      Step w;
      w.experiment = a.experiment;
      w.prefix = a.prefix;
      w.withdraw = true;
      w.hostile = a.hostile;
      w.reach = a.reach;
      w.wire = encode_withdraw(a.prefix, experiment_tx());
      withdraws.push_back(std::move(w));
    }
    round.steps = stagger({std::move(announces), std::move(withdraws)}, 64);
    rounds.push_back(std::move(round));
  }
  return rounds;
}

Bytes make_frame(MacAddress dst_mac, MacAddress src_mac, Ipv4Address src,
                 Ipv4Address dst, std::uint16_t ident, std::size_t ip_bytes,
                 Rng& rng) {
  ip::Ipv4Packet packet;
  packet.identification = ident;
  packet.ttl = 64;
  packet.protocol = static_cast<std::uint8_t>(ip::IpProto::kUdp);
  packet.src = src;
  packet.dst = dst;
  packet.payload.resize(ip_bytes - 20);
  for (auto& b : packet.payload) b = static_cast<std::uint8_t>(rng.next());
  return ether::make_frame(dst_mac, src_mac, ether::EtherType::kIpv4,
                           packet.encode())
      .encode();
}

/// True if any prefix of `set` (of any length) covers `addr`.
bool covered(const std::unordered_set<Ipv4Prefix>& set, Ipv4Address addr) {
  for (int len = 0; len <= 32; ++len) {
    const Ipv4Prefix p(addr, static_cast<std::uint8_t>(len));
    if (set.count(Ipv4Prefix(Ipv4Address(addr.value() & p.mask()), p.length())))
      return true;
  }
  return false;
}

/// Frames of one size. A tenth miss: no route (egress: an ICMP unreachable
/// comes back to the experiment; ingress: no experiment, dropped).
std::vector<Frame> make_frames(const Def& def, World& world,
                               const std::vector<inet::FeedRoute>& table,
                               std::size_t ip_bytes, Rng& rng) {
  std::unordered_set<Ipv4Prefix> in_table;
  for (const auto& r : table) in_table.insert(r.prefix);
  auto& neighbors = world.neighbors();
  auto& experiments = world.experiments();
  std::vector<Frame> frames;
  frames.reserve(static_cast<std::size_t>(def.frames));
  for (int i = 0; i < def.frames; ++i) {
    Frame f;
    f.ident = static_cast<std::uint16_t>(i);
    const bool miss = rng.chance(0.1);
    if (def.traffic == Traffic::kEgress) {
      const int e = static_cast<int>(rng.below(experiments.size()));
      const int n = static_cast<int>(rng.below(neighbors.size()));
      const Experiment& x = experiments[static_cast<std::size_t>(e)];
      const Neighbor& nb = neighbors[static_cast<std::size_t>(n)];
      const MacAddress vmac =
          world.router(x.pop).registry().by_peer(nb.peer)->virtual_mac;
      if (miss) {
        do {
          f.dst = Ipv4Address(static_cast<std::uint32_t>(rng.next()));
        } while (covered(in_table, f.dst) || (f.dst.value() >> 24) == 10 ||
                 (f.dst.value() >> 24) == 127 || (f.dst.value() >> 16) == 0xB8A4 ||
                 (f.dst.value() >> 16) == 0x6440 || f.dst.value() >> 28 >= 14);
        f.sink = Frame::Sink::kExperiment;
        f.sink_index = e;
        f.want_dst = x.mac;
        f.want_src = x.router_mac;
        f.protocol = static_cast<std::uint8_t>(ip::IpProto::kIcmp);
      } else {
        const Ipv4Prefix& p = table[rng.below(table.size())].prefix;
        const std::uint32_t host = static_cast<std::uint32_t>(rng.next()) & ~p.mask();
        f.dst = Ipv4Address(p.address().value() | host);
        f.sink = Frame::Sink::kNeighbor;
        f.sink_index = n;
        f.want_dst = nb.mac;
        f.want_src = nb.router_mac;
        f.protocol = static_cast<std::uint8_t>(ip::IpProto::kUdp);
      }
      f.source = Frame::Source::kExperiment;
      f.source_index = e;
      f.filter_experiment = e;
      f.view_neighbor = n;
      f.wire = make_frame(vmac, x.mac, x.host, f.dst, f.ident, ip_bytes, rng);
    } else {
      // Ingress from a neighbor at PoP 0 toward experiment space. Across the
      // mesh, only experiments at the far PoPs are targeted.
      const int n = static_cast<int>(rng.below(neighbors.size()));
      const Neighbor& nb = neighbors[static_cast<std::size_t>(n)];
      std::vector<int> targets;
      for (const auto& x : experiments)
        if (world.pops() == 1 || x.pop != 0) targets.push_back(x.index);
      const int e = targets[rng.below(targets.size())];
      const Experiment& x = experiments[static_cast<std::size_t>(e)];
      const auto offset = static_cast<std::uint32_t>(1 + rng.below(1022));
      if (miss) {
        f.dst = Ipv4Address(Ipv4Address(184, 165, 0, 0).value() +
                            static_cast<std::uint32_t>(rng.below(1 << 16)));
        f.sink = Frame::Sink::kNone;
      } else {
        f.dst = Ipv4Address(x.block.address().value() + offset);
        f.sink = Frame::Sink::kExperiment;
        f.sink_index = e;
        f.want_dst = x.mac;
        // Attribution: at the delivering PoP the source MAC names the
        // neighbor; across the backbone there is no neighbor to name.
        f.want_src = x.pop == 0
                         ? world.router(0).registry().by_peer(nb.peer)->virtual_mac
                         : x.router_mac;
        f.protocol = static_cast<std::uint8_t>(ip::IpProto::kUdp);
      }
      const Ipv4Address src(8, 8, static_cast<std::uint8_t>(rng.below(256)),
                            static_cast<std::uint8_t>(1 + rng.below(254)));
      f.source = Frame::Source::kNeighbor;
      f.source_index = n;
      f.wire = make_frame(nb.router_mac, nb.mac, src, f.dst, f.ident, ip_bytes, rng);
    }
    frames.push_back(std::move(f));
  }
  return frames;
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// Order-insensitive fingerprint of every Loc-RIB: path ids are
/// session-ephemeral and candidate order may change when a path returns,
/// so each (router, prefix, peer, attributes) contributes a commutative term.
std::uint64_t locrib_fingerprint(World& world) {
  std::uint64_t sum = 0;
  for (int p = 0; p < world.pops(); ++p) {
    world.router(p).speaker().loc_rib().visit_all([&](const bgp::RibRoute& r) {
      std::uint64_t h = (static_cast<std::uint64_t>(r.prefix.address().value()) << 8) |
                        r.prefix.length();
      h = h * 0x9e3779b97f4a7c15ull + r.peer + (static_cast<std::uint64_t>(p) << 40);
      h ^= bgp::hash_value(*r.attrs) + 0x632be59bd9b4e019ull;
      h *= 0xbf58476d1ce4e5b9ull;
      sum += h ^ (h >> 29);
    });
  }
  return sum;
}

/// Post-setup candidates of every prefix a round touches, per PoP.
class RibSnapshot {
 public:
  void take(World& world, const std::vector<Round>& rounds) {
    for (int p = 0; p < world.pops(); ++p) {
      const auto& rib = world.router(p).speaker().loc_rib();
      paths_.push_back(rib.route_count());
      prefixes_.push_back(rib.prefix_count());
      for (const Round& r : rounds)
        for (const auto& prefix : r.touched) {
          auto& v = candidates_[{p, prefix}];
          v.clear();
          for (const auto& c : rib.candidates(prefix)) v.emplace_back(c.peer, *c.attrs);
        }
    }
  }

  void check(World& world, const Round& round, Outcome& out) const {
    for (int p = 0; p < world.pops(); ++p) {
      const auto& rib = world.router(p).speaker().loc_rib();
      out.check(rib.route_count() == paths_[static_cast<std::size_t>(p)] &&
                    rib.prefix_count() == prefixes_[static_cast<std::size_t>(p)],
                "pop" + std::to_string(p) + " Loc-RIB size differs after round");
      for (const auto& prefix : round.touched) {
        const auto& want = candidates_.at({p, prefix});
        const auto* got = rib.candidates_ref(prefix);
        bool same = (got ? got->size() : 0) == want.size();
        for (const auto& [peer, attrs] : want) {
          if (!same) break;
          same = std::any_of(got->begin(), got->end(), [&](const bgp::RibRoute& r) {
            return r.peer == peer && *r.attrs == attrs;
          });
        }
        out.check(same, "pop" + std::to_string(p) + " " + prefix.str() +
                            " differs from post-setup state after round");
      }
    }
  }

 private:
  std::vector<std::size_t> paths_;
  std::vector<std::size_t> prefixes_;
  std::map<std::pair<int, Ipv4Prefix>,
           std::vector<std::pair<bgp::PeerId, bgp::PathAttributes>>>
      candidates_;
};

/// Splits a recorded byte stream into BGP messages.
template <typename Fn>
void for_each_message(const Bytes& stream, Fn&& fn) {
  std::size_t at = 0;
  while (stream.size() - at >= 19) {
    const std::size_t len = (static_cast<std::size_t>(stream[at + 16]) << 8) |
                            stream[at + 17];
    if (len < 19 || stream.size() - at < len) return;
    fn(std::span<const std::uint8_t>(stream.data() + at, len));
    at += len;
  }
}

/// What one experiment must hold: every neighbor's path for every prefix,
/// next hop re-mapped to the neighbor's virtual IP at the experiment's
/// router. LOCAL_PREF is set by iBGP and not compared.
void check_experiment_table(World& world, const Experiment& x,
                            const std::vector<inet::FeedRoute>& table,
                            const Bytes& stream, Outcome& out,
                            const char* when) {
  ReceivedTable got;
  for_each_message(stream, [&](std::span<const std::uint8_t> msg) {
    got.apply(msg, x.session->rx_options());
  });
  out.check(!got.decode_error, x.id + ": undecodable UPDATE " + when);
  vbgp::VRouter& router = world.router(x.pop);
  std::map<Ipv4Address, int> by_vip;  // virtual next hop -> neighbor
  for (const Neighbor& nb : world.neighbors()) {
    vbgp::VirtualNeighbor* v =
        x.pop == 0 ? router.registry().by_peer(nb.peer)
                   : router.registry().remote_by_global_ip(
                         vbgp::global_pool_ip(static_cast<std::uint32_t>(nb.index + 1)));
    if (v) by_vip[v->virtual_ip] = nb.index;
  }
  std::size_t matched = 0;
  std::size_t wrong = 0;
  std::unordered_map<Ipv4Prefix, std::size_t> index;
  for (std::size_t i = 0; i < table.size(); ++i) index[table[i].prefix] = i;
  std::set<std::pair<Ipv4Prefix, int>> seen;
  for (const auto& [key, attrs] : got.routes) {
    auto nb = by_vip.find(attrs.next_hop);
    auto it = index.find(key.prefix);
    if (nb == by_vip.end() || it == index.end() ||
        !seen.insert({key.prefix, nb->second}).second) {
      ++wrong;
      continue;
    }
    bgp::PathAttributes want = neighbor_attrs(table[it->second].attrs, nb->second);
    want.next_hop = attrs.next_hop;
    bgp::PathAttributes have = attrs;
    want.local_pref.reset();
    have.local_pref.reset();
    if (have == want) ++matched; else ++wrong;
  }
  const std::size_t expected = table.size() * world.neighbors().size();
  out.check(wrong == 0 && matched == expected,
            x.id + " holds " + std::to_string(matched) + " expected paths of " +
                std::to_string(expected) + " and " + std::to_string(wrong) +
                " wrong ones " + when);
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

struct PhaseResult {
  WindowSet windows;
  std::uint64_t work = 0;
  std::uint64_t events = 0;
};

/// One frame size's inputs and where its timed phase has got to.
struct FrameRun {
  const std::vector<Frame>* list = nullptr;
  int window = 0;
  bool latency = false;
  std::size_t next = 0;
  bool warmed = false;
  PhaseResult result;
};

void inject(World& world, const Step& s) {
  if (s.neighbor >= 0)
    world.neighbors()[static_cast<std::size_t>(s.neighbor)].session->send(s.wire);
  else
    world.experiments()[static_cast<std::size_t>(s.experiment)].session->send(s.wire);
}

/// Checks the UPDATEs each neighbor received during an experiment round:
/// benign announcements and their withdrawals reach exactly the neighbors
/// their communities select, with control communities stripped; hostile
/// ones reach nobody.
void check_neighbor_streams(World& world, const Round& round,
                            std::vector<Bytes>& streams, Outcome& out) {
  for (std::size_t n = 0; n < streams.size(); ++n) {
    std::vector<std::pair<Ipv4Prefix, bool>> want;
    for (const Step& s : round.steps)
      if (!s.hostile && std::count(s.reach.begin(), s.reach.end(), static_cast<int>(n)))
        want.emplace_back(s.prefix, s.withdraw);
    std::vector<std::pair<Ipv4Prefix, bool>> got;
    bool attrs_ok = true;
    const Neighbor& nb = world.neighbors()[n];
    bgp::MessageDecoder decoder;
    decoder.feed(streams[n]);
    while (true) {
      auto result = decoder.poll();
      if (!result.ok()) {
        attrs_ok = false;
        break;
      }
      if (!result->has_value()) break;
      const auto* update = std::get_if<bgp::UpdateMessage>(&**result);
      if (!update) continue;
      for (const auto& w : update->withdrawn) got.emplace_back(w.prefix, true);
      for (const auto& a : update->nlri) {
        got.emplace_back(a.prefix, false);
        const auto& attrs = *update->attributes;
        const auto* step = [&]() -> const Step* {
          for (const Step& s : round.steps)
            if (!s.withdraw && s.prefix == a.prefix) return &s;
          return nullptr;
        }();
        const bool clean =
            std::none_of(attrs.communities.begin(), attrs.communities.end(),
                         vbgp::is_control_community) &&
            attrs.large_communities.empty();
        attrs_ok = attrs_ok && step && clean && attrs.next_hop == nb.router_address &&
                   attrs.as_path.first() == kPeeringAsn &&
                   attrs.as_path.origin_asn() ==
                       experiment_asn(step->experiment);
      }
    }
    out.check(attrs_ok, "nb" + std::to_string(n) +
                            " received an announcement with wrong attributes");
    out.check(got == want, "nb" + std::to_string(n) + " received " +
                               std::to_string(got.size()) + " route changes, want " +
                               std::to_string(want.size()));
    streams[n].clear();
  }
}

class Runner {
 public:
  Runner(const Def& def, const Options& options) : def_(def), options_(options) {}

  int run();

 private:
  void generate_table();
  /// Builds and loads one world, timing it per batch; returns the
  /// normalised set-up time in seconds.
  double setup(std::unique_ptr<World>& world, obs::Registry* registry);
  void prepare_inputs(World& world);
  void check_setup(World& world);
  /// Replays closed churn rounds until `seconds` pass, appending timed
  /// windows to `into`; with `into` null, replays one round untimed.
  void churn(World& world, double seconds, Ledger* ledger, PhaseResult* into);
  /// Sends frames of `run` in timed windows until `seconds` pass.
  void frames(World& world, FrameRun& run, double seconds, Ledger* ledger);
  /// The timed phases, taking turns.
  void measure(World& world, double churn_s, double small_s, double large_s,
               Ledger* ledger);
  void final_checks(World& world);
  void print(const std::vector<Metric>& metrics);

  const Def& def_;
  Options options_;
  RefKernel kernel_;
  Outcome out_;
  std::vector<inet::FeedRoute> table_;
  /// The routes the platform keeps: eBGP loop detection drops those whose
  /// path already carries the PEERING ASN.
  std::vector<inet::FeedRoute> accepted_;
  std::vector<std::vector<Bytes>> setup_wires_;
  std::vector<Round> rounds_;
  std::size_t next_round_ = 0;
  std::vector<Frame> small_frames_;
  std::vector<Frame> large_frames_;
  PhaseResult churn_;
  FrameRun small_;
  FrameRun large_;
  RibSnapshot snapshot_;
  std::uint64_t fingerprint_ = 0;
  /// Recorded streams: experiments sampled for the table check, and every
  /// neighbor during experiment churn.
  std::vector<int> sampled_;
  std::map<int, Bytes> experiment_streams_;
  std::vector<Bytes> neighbor_streams_;
};

void Runner::generate_table() {
  inet::FullTableConfig config;
  config.route_count = def_.table_routes;
  config.seed = options_.seed;
  table_ = inet::generate_full_table(config);
  for (const auto& r : table_)
    if (!r.attrs.as_path.contains(kPeeringAsn)) accepted_.push_back(r);
  for (int n = 0; n < def_.spec.neighbors; ++n)
    setup_wires_.push_back(encode_table(table_, n));
}

double Runner::setup(std::unique_ptr<World>& world, obs::Registry* registry) {
  world.reset();
  pin_to_fastest_cpu(kernel_);
  double total_ns = 0;
  std::uint64_t raw_ns = 0;
  std::vector<double> kernels;
  std::uint64_t t0 = now_ns();
  auto batch = [&] {
    const std::uint64_t raw = now_ns() - t0;
    raw_ns += raw;
    const std::uint64_t k = kernel_.run();
    kernels.push_back(static_cast<double>(k));
    total_ns += static_cast<double>(raw) * kKernelNominalNs / static_cast<double>(k);
    t0 = now_ns();
  };

  world = std::make_unique<World>(def_.spec, registry);
  experiment_streams_.clear();
  sampled_ = {0, static_cast<int>(world->experiments().size()) - 1};
  for (int e : sampled_) {
    Bytes& sink = experiment_streams_[e];
    world->experiments()[static_cast<std::size_t>(e)].session->on_update(
        [&sink](std::span<const std::uint8_t> msg) {
          sink.insert(sink.end(), msg.begin(), msg.end());
        });
  }
  batch();
  const bool up = world->establish();
  batch();

  // Full-table transfers, interleaved across neighbors in chunks.
  constexpr std::size_t kChunk = 128;
  std::vector<std::size_t> next(setup_wires_.size(), 0);
  bool more = true;
  while (more) {
    more = false;
    for (std::size_t n = 0; n < setup_wires_.size(); ++n) {
      auto& wires = setup_wires_[n];
      const std::size_t end = std::min(wires.size(), next[n] + kChunk);
      for (std::size_t i = next[n]; i < end; ++i)
        world->neighbors()[n].session->send(wires[i]);
      next[n] = end;
      more = more || end < wires.size();
      world->drain();
      batch();
    }
  }
  // Converged: a full MRAI interval plus both hops with nothing left.
  world->drain();
  world->drain();
  batch();
  out_.check(up && world->all_established(), "sessions not established");
  out_.check(world->grants_ok(), "a data-plane filter failed to install");
  std::fprintf(stderr, "setup raw %.3f s normalised %.3f s, kernel p50 %.1f us over %zu batches\n",
               static_cast<double>(raw_ns) / 1e9, total_ns / 1e9, median(kernels) / 1e3,
               kernels.size());
  return total_ns / 1e9;
}

void Runner::check_setup(World& world) {
  const std::size_t paths = accepted_.size() * world.neighbors().size();
  for (int p = 0; p < world.pops(); ++p)
    out_.check(world.router(p).speaker().loc_rib().route_count() == paths,
               "pop" + std::to_string(p) + " Loc-RIB holds " +
                   std::to_string(world.router(p).speaker().loc_rib().route_count()) +
                   " paths, want " + std::to_string(paths));
  for (int e : sampled_)
    check_experiment_table(world, world.experiments()[static_cast<std::size_t>(e)],
                           accepted_, experiment_streams_[e], out_, "after setup");
  // Every experiment of a PoP is in one update group: identical streams.
  std::map<int, std::uint64_t> bytes_by_pop;
  for (const auto& x : world.experiments()) {
    auto [it, fresh] = bytes_by_pop.emplace(x.pop, x.session->bytes_received());
    out_.check(fresh || it->second == x.session->bytes_received(),
               x.id + " received a different stream than its PoP peers");
  }
}

void Runner::prepare_inputs(World& world) {
  // Same seed, same inputs: the traced run's two worlds replay one set.
  Rng rng(options_.seed * 0x9e3779b97f4a7c15ull + 1);
  rounds_ = def_.churn == Churn::kNeighbor ? neighbor_rounds(def_, accepted_, rng)
                                           : experiment_rounds(def_, world, rng);
  small_frames_ = make_frames(def_, world, accepted_, 50, rng);
  large_frames_ = make_frames(def_, world, accepted_, 1500, rng);
  next_round_ = 0;
  small_ = FrameRun{&small_frames_, def_.small_window, true};
  large_ = FrameRun{&large_frames_, def_.large_window, false};
  churn_ = PhaseResult{};
  snapshot_.take(world, rounds_);
  fingerprint_ = locrib_fingerprint(world);
  if (def_.churn == Churn::kExperiment) {
    neighbor_streams_.assign(world.neighbors().size(), Bytes{});
    for (std::size_t n = 0; n < world.neighbors().size(); ++n) {
      Bytes& sink = neighbor_streams_[n];
      world.neighbors()[n].session->on_update(
          [&sink](std::span<const std::uint8_t> msg) {
            sink.insert(sink.end(), msg.begin(), msg.end());
          });
    }
  }
  for (const auto& nb : world.neighbors())
    out_.check(nb.session->tx_options().add_path == neighbor_tx().add_path,
               "neighbor session negotiated unexpected ADD-PATH");
  for (const auto& x : world.experiments())
    out_.check(x.session->tx_options().add_path == experiment_tx().add_path,
               "experiment session negotiated unexpected ADD-PATH");
}

void Runner::churn(World& world, double seconds, Ledger* ledger, PhaseResult* into) {
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  const std::size_t window = kChurnWindow;
  do {
    const Round& round = rounds_[next_round_++ % rounds_.size()];
    for (std::size_t s = 0; s < round.steps.size(); s += window) {
      // Past the deadline the round still completes (untimed) so it closes.
      const bool in_time = into && now_ns() < deadline;
      Window w;
      w.work = window;
      w.samples.reserve(window);
      const std::uint64_t w0 = now_ns();
      std::uint64_t traced_ns = 0;
      std::uint64_t events = 0;
      for (std::size_t k = s; k < s + window && k < round.steps.size(); ++k) {
        const Step& step = round.steps[k];
        const std::uint64_t a = now_ns();
        inject(world, step);
        const std::uint64_t b = now_ns();
        events += world.drain();
        const std::uint64_t c = now_ns();
        if (in_time) w.samples.push_back(static_cast<double>(c - a));
        if (ledger) {
          traced_ns += c - a;
          ledger->burst(step, a, b, c);
        }
      }
      // Traced windows exclude the replays run between bursts.
      w.raw_ns = ledger ? traced_ns : now_ns() - w0;
      if (!in_time) continue;
      w.kernel_ns = kernel_.run();
      into->work += w.work;
      into->events += events;
      into->windows.add(std::move(w));
    }
    out_.count(round.steps.size());
    snapshot_.check(world, round, out_);
    if (def_.churn == Churn::kExperiment)
      check_neighbor_streams(world, round, neighbor_streams_, out_);
  } while (into && now_ns() < deadline);
}

void Runner::frames(World& world, FrameRun& run, double seconds, Ledger* ledger) {
  const std::vector<Frame>& list = *run.list;
  struct Captured {
    std::size_t frame;
    Frame::Sink sink;
    int index;
    MacAddress dst;
    MacAddress src;
    Ipv4Address ip_dst;
    std::uint8_t protocol;
    std::uint16_t ident;
  };
  std::vector<Captured> captured;
  captured.reserve(static_cast<std::size_t>(run.window) * 2);
  std::size_t current = 0;
  auto capture = [&](Frame::Sink sink, int index) {
    return [&captured, &current, sink, index](std::span<const std::uint8_t> w) {
      Captured c{current, sink, index, MacAddress(w[0], w[1], w[2], w[3], w[4], w[5]),
                 MacAddress(w[6], w[7], w[8], w[9], w[10], w[11]), Ipv4Address(), 0, 0};
      if (w.size() >= 14 + 20) {
        const auto p = w.subspan(14);
        c.ident = static_cast<std::uint16_t>((p[4] << 8) | p[5]);
        c.protocol = p[9];
        c.ip_dst = Ipv4Address(p[16], p[17], p[18], p[19]);
      }
      captured.push_back(c);
    };
  };
  for (auto& nb : world.neighbors())
    nb.frames->on_frame(capture(Frame::Sink::kNeighbor, nb.index));
  for (auto& x : world.experiments())
    x.frames->on_frame(capture(Frame::Sink::kExperiment, x.index));

  auto send = [&](const Frame& f) {
    if (f.source == Frame::Source::kNeighbor)
      world.neighbors()[static_cast<std::size_t>(f.source_index)].frames->send(f.wire);
    else
      world.experiments()[static_cast<std::size_t>(f.source_index)].frames->send(f.wire);
  };
  auto verify = [&](std::size_t begin, std::size_t count) {
    std::size_t at = 0;
    for (std::size_t i = begin; i < begin + count; ++i) {
      const Frame& f = list[i];
      std::size_t n = 0;
      bool ok = true;
      while (at < captured.size() && captured[at].frame == i) {
        const Captured& c = captured[at++];
        ++n;
        ok = ok && c.sink == f.sink && c.index == f.sink_index &&
             c.dst == f.want_dst && c.src == f.want_src && c.protocol == f.protocol;
        if (f.protocol != static_cast<std::uint8_t>(ip::IpProto::kIcmp))
          ok = ok && c.ip_dst == f.dst && c.ident == f.ident;
      }
      const std::size_t want = f.sink == Frame::Sink::kNone ? 0 : 1;
      out_.check(ok && n == want, "frame " + std::to_string(i) + " to " +
                                      f.dst.str() + " left through the wrong egress");
    }
    captured.clear();
  };

  const auto window = static_cast<std::size_t>(run.window);
  if (!run.warmed) {
    // Warm-up: one untimed window resolves every ARP entry on the path.
    for (std::size_t i = 0; i < window; ++i) {
      current = i;
      send(list[i]);
      world.drain_frames();
    }
    captured.clear();
    run.warmed = true;
  }

  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    const std::size_t begin = run.next;
    Window w;
    w.work = window;
    if (run.latency) w.samples.reserve(window);
    std::uint64_t events = 0;
    const std::uint64_t w0 = now_ns();
    for (std::size_t i = begin; i < begin + window; ++i) {
      current = i;
      const std::uint64_t a = now_ns();
      send(list[i]);
      events += world.drain_frames();
      if (run.latency) w.samples.push_back(static_cast<double>(now_ns() - a));
    }
    const std::uint64_t w1 = now_ns();
    w.raw_ns = w1 - w0;
    w.kernel_ns = kernel_.run();
    run.result.work += window;
    run.result.events += events;
    run.result.windows.add(std::move(w));
    if (ledger) ledger->frame_window(list, begin, window, w0, w1);
    verify(begin, window);
    run.next = (begin + window) % list.size();
  }
  for (auto& nb : world.neighbors()) nb.frames->on_frame(nullptr);
  for (auto& x : world.experiments()) x.frames->on_frame(nullptr);
}

void Runner::measure(World& world, double churn_s, double small_s, double large_s,
                     Ledger* ledger) {
  // The phases take turns in short blocks, so a slow stretch of the host
  // lands on every metric alike instead of on whichever phase it overlaps.
  constexpr int kBlocks = 20;
  for (int b = 0; b < kBlocks; ++b) {
    pin_to_fastest_cpu(kernel_);
    churn(world, churn_s / kBlocks, ledger, &churn_);
    frames(world, small_, small_s / kBlocks, ledger);
    frames(world, large_, large_s / kBlocks, ledger);
  }
}

void Runner::final_checks(World& world) {
  out_.check(world.all_established(), "a session went down during the run");
  out_.check(locrib_fingerprint(world) == fingerprint_,
             "Loc-RIBs differ from their post-setup state at the end");
  for (int e : sampled_)
    check_experiment_table(world, world.experiments()[static_cast<std::size_t>(e)],
                           accepted_, experiment_streams_[e], out_, "at the end");
  for (const auto& nb : world.neighbors())
    out_.check(nb.session->notifications_received() == 0,
               "nb" + std::to_string(nb.index) + " received a NOTIFICATION");
}

void Runner::print(const std::vector<Metric>& metrics) {
  std::printf("workload %s seed %llu trace %d\n", def_.name,
              static_cast<unsigned long long>(options_.seed), options_.trace ? 1 : 0);
  for (const auto& m : metrics)
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  attempted %llu failed %llu\n",
              static_cast<unsigned long long>(out_.attempted),
              static_cast<unsigned long long>(out_.failed));
  for (const auto& f : out_.first_failures) std::printf("  FAILED: %s\n", f.c_str());
  const bool correct = out_.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out_.attempted);
  json += ", \"failed\": " + std::to_string(out_.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& m : metrics) {
    if (m.name == "failed_ops_ratio") continue;  // carried by attempted/failed
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Peak resident set size of the process so far.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t total(const obs::Snapshot& snap, std::string_view name) {
  return static_cast<std::uint64_t>(snap.total(name));
}

/// Sum and count of every series of one histogram family.
std::pair<std::uint64_t, std::uint64_t> histogram_totals(const obs::Snapshot& snap,
                                                         std::string_view name) {
  std::uint64_t sum = 0, count = 0;
  for (const auto& s : snap.series)
    if (s.name == name && s.kind == obs::SeriesData::Kind::kHistogram) {
      sum += s.sum;
      count += s.count;
    }
  return {sum, count};
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

int Runner::run() {
  generate_table();
  std::vector<Metric> metrics;

  if (!options_.trace) {
    std::unique_ptr<World> world;
    std::vector<double> setups;
    std::uint64_t t = now_ns();
    auto stage = [&t](const char* name) {
      const std::uint64_t n = now_ns();
      std::fprintf(stderr, "stage %-10s %.2f s\n", name, static_cast<double>(n - t) / 1e9);
      t = n;
    };
    stage("table");
    for (int k = 0; k < kSetups; ++k) setups.push_back(setup(world, nullptr));
    stage("setups");
    check_setup(*world);
    stage("check");
    prepare_inputs(*world);
    stage("inputs");
    churn(*world, 0, nullptr, nullptr);  // warm-up round
    stage("warmup");
    const double rss = peak_rss_mb();
    const double S = options_.seconds;
    measure(*world, S * 0.5, S * 0.3, S * 0.2, nullptr);
    stage("measure");
    final_checks(*world);
    stage("final");
    const WindowSet& c = churn_.windows;
    const WindowSet& f64 = small_.result.windows;
    const WindowSet& f1500 = large_.result.windows;
    const double paths = static_cast<double>(world->locrib_paths());
    metrics = {
        {"setup_s", "s", median(setups)},
        {"churn_updates_per_s", "1/s", c.rate_per_s()},
        {"propagation_p50_us", "us", c.latency_quantile(0.5) / 1e3},
        {"propagation_p99_us", "us", c.latency_quantile(0.99) / 1e3},
        {"forward_pps_64b", "1/s", f64.rate_per_s()},
        {"forward_pps_1500b", "1/s", f1500.rate_per_s()},
        {"forward_p50_ns", "ns", f64.latency_quantile(0.5)},
        {"forward_p99_ns", "ns", f64.latency_quantile(0.99)},
        {"peak_rss_mb", "MB", rss},
        {"rib_bytes_per_route", "B", ratio(static_cast<double>(world->rib_bytes()), paths)},
        {"fib_bytes_per_route", "B",
         ratio(static_cast<double>(world->fib_bytes()),
               static_cast<double>(world->fib_routes()))},
        {"failed_ops_ratio", "ratio",
         ratio(static_cast<double>(out_.failed), static_cast<double>(out_.attempted))},
    };
    std::printf("samples: propagation %zu, forward %zu; windows: churn %zu, "
                "64B %zu, 1500B %zu\n",
                c.sample_count(), f64.sample_count(), c.windows().size(),
                f64.windows().size(), f1500.windows().size());
    for (const auto& [name, set] : {std::pair{"churn", &c}, std::pair{"64B", &f64},
                                    std::pair{"1500B", &f1500}})
      std::printf("%s: raw window p50 %.1f us, kernel p50 %.1f us\n", name,
                  set->raw_window_p50_ns() / 1e3, set->kernel_p50_ns() / 1e3);
    print(metrics);
    return out_.failed == 0 ? 0 : 1;
  }

  // Traced run. First the deployed (untraced) world: allocation counts over
  // fixed work, and the untraced churn rate trace.overhead compares against.
  const double S = options_.seconds;
  double untraced_rate = 0;
  AllocCounts round_allocs, frame_allocs;
  std::uint64_t round_updates = 0, frame_count = 0;
  {
    std::unique_ptr<World> world;
    setup(world, nullptr);
    check_setup(*world);
    prepare_inputs(*world);
    churn(*world, 0, nullptr, nullptr);  // warm-up round
    // Exactly one closed round and one window of frames, counted; the
    // round's checks run after the count.
    const Round& round = rounds_[next_round_++ % rounds_.size()];
    round_updates = round.steps.size();
    const AllocCounts a0 = alloc_counts();
    for (const Step& step : round.steps) {
      inject(*world, step);
      world->drain();
    }
    round_allocs = alloc_counts() - a0;
    out_.count(round.steps.size());
    snapshot_.check(*world, round, out_);
    if (def_.churn == Churn::kExperiment)
      check_neighbor_streams(*world, round, neighbor_streams_, out_);
    frames(*world, small_, 0, nullptr);  // warm-up window only
    const AllocCounts f0 = alloc_counts();
    for (std::size_t i = 0; i < static_cast<std::size_t>(def_.small_window); ++i) {
      const Frame& f = small_frames_[i];
      if (f.source == Frame::Source::kNeighbor)
        world->neighbors()[static_cast<std::size_t>(f.source_index)].frames->send(f.wire);
      else
        world->experiments()[static_cast<std::size_t>(f.source_index)].frames->send(f.wire);
      world->drain_frames();
    }
    frame_allocs = alloc_counts() - f0;
    frame_count = static_cast<std::uint64_t>(def_.small_window);
    churn(*world, S * 0.25, nullptr, &churn_);
    untraced_rate = churn_.windows.rate_per_s();
    final_checks(*world);
  }

  obs::Registry registry(true);
  std::unique_ptr<World> world;
  setup(world, &registry);
  check_setup(*world);
  prepare_inputs(*world);
  std::vector<std::vector<bgp::PathAttributes>> attrs(world->neighbors().size());
  for (std::size_t n = 0; n < attrs.size(); ++n)
    for (const auto& r : accepted_)
      attrs[n].push_back(neighbor_attrs(r.attrs, static_cast<int>(n)));
  Ledger ledger(*world, accepted_, attrs);
  attrs.clear();
  churn(*world, 0, nullptr, nullptr);  // warm-up round
  obs::SnapshotOptions with_timing;
  with_timing.include_timing = true;
  const obs::Snapshot s0 = registry.snapshot(world->loop().now(), with_timing);
  std::uint64_t mon0 = 0, drop0 = 0;
  for (const auto& m : world->monitors()) {
    mon0 += m->records().size();
    drop0 += m->dropped();
  }
  const std::uint64_t rej0 = world->control(0).rejected();
  const std::uint64_t chk0 = world->control(0).accepted() + world->control(0).rejected() +
                             world->control(0).transformed();
  measure(*world, S * 0.35, S * 0.2, S * 0.1, &ledger);
  const PhaseResult& c = churn_;
  const PhaseResult& f64 = small_.result;
  const PhaseResult& f1500 = large_.result;
  const obs::Snapshot s1 = registry.snapshot(world->loop().now(), with_timing);
  std::uint64_t mon1 = 0, drop1 = 0;
  for (const auto& m : world->monitors()) {
    mon1 += m->records().size();
    drop1 += m->dropped();
  }
  const std::uint64_t rej1 = world->control(0).rejected();
  const std::uint64_t chk1 = world->control(0).accepted() + world->control(0).rejected() +
                             world->control(0).transformed();
  final_checks(*world);

  // All churn updates the ledger saw, including the untimed tail.
  const double updates = static_cast<double>(ledger.totals().updates);
  auto delta = [&](std::string_view name) {
    return static_cast<double>(total(s1, name) - total(s0, name));
  };
  const auto [flush_sum0, flush_n0] = histogram_totals(s0, "bgp_mrai_flush_batch");
  const auto [flush_sum1, flush_n1] = histogram_totals(s1, "bgp_mrai_flush_batch");
  obs::SeriesData processing;
  for (const auto& s : s1.series)
    if (s.name == "bgp_update_processing_wall_ns" &&
        s.labels == obs::Labels{{"speaker", "pop0"}})
      processing = s;
  const obs::Snapshot end = registry.snapshot(world->loop().now());
  const double intern_hits = static_cast<double>(total(end, "bgp_attr_intern_hits"));
  const double intern_misses = static_cast<double>(total(end, "bgp_attr_intern_misses"));
  const double enc_hits = delta("bgp_attr_encode_hits");
  const double enc_misses = delta("bgp_attr_encode_misses");
  const double nh_hits = static_cast<double>(total(end, "vbgp_nh_memo_hits_total"));
  const double nh_rewrites = static_cast<double>(total(end, "vbgp_nh_rewrites_total"));
  std::size_t pool_bytes = 0;
  vbgp::FibAccounting fa;
  for (int p = 0; p < world->pops(); ++p) {
    pool_bytes += world->router(p).speaker().attr_pool().memory_bytes();
    fa += world->router(p).fib_accounting();
  }
  const LayerTotals& t = ledger.totals();
  const double packets = static_cast<double>(f64.work + f1500.work);
  const double mon_made = static_cast<double>((mon1 - mon0) + (drop1 - drop0));
  const double traced_rate = c.windows.rate_per_s();
  metrics = {
      {"bgp.decode_ns_per_update", "ns", ratio(static_cast<double>(t.decode_ns), updates)},
      {"bgp.intern_ns_per_update", "ns", ratio(static_cast<double>(t.intern_ns), updates)},
      {"bgp.intern_hit_ratio", "ratio", ratio(intern_hits, intern_hits + intern_misses)},
      {"bgp.rib_ns_per_route", "ns",
       ratio(static_cast<double>(t.rib_ns), static_cast<double>(t.routes))},
      {"bgp.update_processing_p50_ns", "ns", static_cast<double>(processing.quantile(0.5))},
      {"bgp.encode_ns_per_update", "ns", ratio(static_cast<double>(t.encode_ns), updates)},
      {"bgp.encode_cache_hit_ratio", "ratio", ratio(enc_hits, enc_hits + enc_misses)},
      {"bgp.export_evals_per_update", "count", ratio(delta("bgp_export_group_evals_total"), updates)},
      {"bgp.splices_per_update", "count", ratio(delta("bgp_export_group_splices_total"), updates)},
      {"bgp.export_memo_hit_ratio", "ratio",
       ratio(delta("bgp_export_group_memo_hits_total"),
             delta("bgp_export_group_memo_hits_total") + delta("bgp_export_group_evals_total"))},
      {"bgp.updates_out_per_update_in", "count", ratio(delta("bgp_updates_out_total"), updates)},
      {"bgp.mrai_batch_mean", "count",
       ratio(static_cast<double>(flush_sum1 - flush_sum0),
             static_cast<double>(flush_n1 - flush_n0))},
      {"bgp.full_resyncs", "count", delta("bgp_export_full_resyncs_total")},
      {"vbgp.nh_memo_hit_ratio", "ratio", ratio(nh_hits, nh_hits + nh_rewrites)},
      {"vbgp.demux_ns_per_packet", "ns", ratio(static_cast<double>(t.demux_ns), packets)},
      {"vbgp.community_filter_ns", "ns",
       ratio(static_cast<double>(t.community_ns), static_cast<double>(t.community_calls))},
      {"ip.lpm_ns_per_lookup", "ns",
       ratio(static_cast<double>(t.lpm_ns), static_cast<double>(t.lpm_calls))},
      {"ip.fib_dedup_factor", "ratio", fa.dedup_factor()},
      {"ip.packet_codec_ns", "ns", ratio(static_cast<double>(t.codec_ns), packets)},
      {"enforce.control_ns_per_announcement", "ns",
       ratio(static_cast<double>(t.control_ns), static_cast<double>(t.control_calls))},
      {"enforce.control_reject_ratio", "ratio",
       ratio(static_cast<double>(rej1 - rej0), static_cast<double>(chk1 - chk0))},
      {"enforce.filter_ns_per_packet", "ns",
       ratio(static_cast<double>(t.filter_ns), static_cast<double>(t.filter_calls))},
      {"mon.records_per_update", "count", ratio(mon_made, updates)},
      {"mon.drop_ratio", "ratio", ratio(static_cast<double>(drop1 - drop0), mon_made)},
      {"sim.events_per_update", "count", ratio(static_cast<double>(c.events), updates)},
      {"sim.events_per_packet", "count",
       ratio(static_cast<double>(f64.events + f1500.events), packets)},
      {"bgp.attr_pool_bytes_per_route", "B",
       ratio(static_cast<double>(pool_bytes), static_cast<double>(world->locrib_paths()))},
      {"ledger.attributed_share", "ratio", t.attributed_share()},
      {"trace.overhead", "ratio", ratio(untraced_rate, traced_rate)},
      {"host.ref_kernel_us", "us", c.windows.kernel_p50_ns() / 1e3},
      {"host.raw_window_p50_us", "us", c.windows.raw_window_p50_ns() / 1e3},
      {"alloc.per_update", "count",
       ratio(static_cast<double>(round_allocs.allocs), static_cast<double>(round_updates))},
      {"alloc.bytes_per_update", "B",
       ratio(static_cast<double>(round_allocs.bytes), static_cast<double>(round_updates))},
      {"alloc.per_packet", "count",
       ratio(static_cast<double>(frame_allocs.allocs), static_cast<double>(frame_count))},
  };
  std::printf("ledger: %llu bursts, %llu packets, %zu spans (%llu dropped)\n",
              static_cast<unsigned long long>(t.updates),
              static_cast<unsigned long long>(t.packets), ledger.spans().size(),
              static_cast<unsigned long long>(ledger.spans().dropped()));
  std::printf("alloc: round of %llu updates %llu allocs %llu bytes; %llu frames %llu allocs\n",
              static_cast<unsigned long long>(round_updates),
              static_cast<unsigned long long>(round_allocs.allocs),
              static_cast<unsigned long long>(round_allocs.bytes),
              static_cast<unsigned long long>(frame_count),
              static_cast<unsigned long long>(frame_allocs.allocs));
  if (!options_.spans_path.empty()) {
    out_.check(ledger.spans().write(options_.spans_path),
               "cannot write spans to " + options_.spans_path);
    std::printf("spans written to %s\n", options_.spans_path.c_str());
  }
  print(metrics);
  return out_.failed == 0 ? 0 : 1;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> end_to_end_metric_names() {
  return {{"setup_s", "s"},           {"churn_updates_per_s", "1/s"},
          {"propagation_p50_us", "us"}, {"propagation_p99_us", "us"},
          {"forward_pps_64b", "1/s"},   {"forward_pps_1500b", "1/s"},
          {"forward_p50_ns", "ns"},     {"forward_p99_ns", "ns"},
          {"peak_rss_mb", "MB"},        {"rib_bytes_per_route", "B"},
          {"fib_bytes_per_route", "B"}};
}

std::vector<std::pair<std::string, std::string>> per_layer_metric_names() {
  return {{"bgp.decode_ns_per_update", "ns"},
          {"bgp.intern_ns_per_update", "ns"},
          {"bgp.intern_hit_ratio", "ratio"},
          {"bgp.rib_ns_per_route", "ns"},
          {"bgp.update_processing_p50_ns", "ns"},
          {"bgp.encode_ns_per_update", "ns"},
          {"bgp.encode_cache_hit_ratio", "ratio"},
          {"bgp.export_evals_per_update", "count"},
          {"bgp.splices_per_update", "count"},
          {"bgp.export_memo_hit_ratio", "ratio"},
          {"bgp.updates_out_per_update_in", "count"},
          {"bgp.mrai_batch_mean", "count"},
          {"bgp.full_resyncs", "count"},
          {"vbgp.nh_memo_hit_ratio", "ratio"},
          {"vbgp.demux_ns_per_packet", "ns"},
          {"vbgp.community_filter_ns", "ns"},
          {"ip.lpm_ns_per_lookup", "ns"},
          {"ip.fib_dedup_factor", "ratio"},
          {"ip.packet_codec_ns", "ns"},
          {"enforce.control_ns_per_announcement", "ns"},
          {"enforce.control_reject_ratio", "ratio"},
          {"enforce.filter_ns_per_packet", "ns"},
          {"mon.records_per_update", "count"},
          {"mon.drop_ratio", "ratio"},
          {"sim.events_per_update", "count"},
          {"sim.events_per_packet", "count"},
          {"bgp.attr_pool_bytes_per_route", "B"},
          {"ledger.attributed_share", "ratio"},
          {"trace.overhead", "ratio"},
          {"host.ref_kernel_us", "us"},
          {"host.raw_window_p50_us", "us"},
          {"alloc.per_update", "count"},
          {"alloc.bytes_per_update", "B"},
          {"alloc.per_packet", "count"}};
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Def& d : kDefs) names.push_back(d.name);
  return names;
}

int run(const Options& options) {
  const Def* def = find_def(options.workload);
  if (!def) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::printf("workload %s: %s\n", def->name, def->why);
  Runner runner(*def, options);
  return runner.run();
}

}  // namespace perfbench

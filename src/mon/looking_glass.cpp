#include "mon/looking_glass.h"

#include <cstdlib>
#include <sstream>
#include <vector>

namespace peering::mon {

namespace {

std::string origin_name(bgp::Origin origin) {
  switch (origin) {
    case bgp::Origin::kIgp:
      return "igp";
    case bgp::Origin::kEgp:
      return "egp";
    case bgp::Origin::kIncomplete:
      return "incomplete";
  }
  return "?";
}

}  // namespace

bgp::PeerId LookingGlass::resolve_peer(const std::string& token) const {
  for (bgp::PeerId id : speaker_->peer_ids()) {
    if (speaker_->peer_config(id).name == token) return id;
  }
  char* end = nullptr;
  unsigned long v = std::strtoul(token.c_str(), &end, 10);
  if (end != token.c_str() && *end == '\0' && v != 0) {
    for (bgp::PeerId id : speaker_->peer_ids()) {
      if (id == static_cast<bgp::PeerId>(v)) return id;
    }
  }
  return 0;
}

std::string LookingGlass::render_route(const bgp::RibRoute& route) const {
  std::ostringstream os;
  const std::string peer =
      route.peer == bgp::kLocalRoutes
          ? "local"
          : speaker_->peer_config(route.peer).name;
  os << route.prefix.str() << " via " << route.attrs->next_hop.str()
     << " peer=" << peer << " path_id=" << route.path_id << " as_path=["
     << route.attrs->as_path.str() << "] origin="
     << origin_name(route.attrs->origin);
  if (route.attrs->local_pref)
    os << " local_pref=" << *route.attrs->local_pref;
  if (route.attrs->med) os << " med=" << *route.attrs->med;
  if (!route.attrs->communities.empty())
    os << " communities=" << route.attrs->communities.size();
  return os.str();
}

std::string LookingGlass::lpm(Ipv4Address addr) const {
  // The Loc-RIB is keyed by exact prefix: probe every mask length, most
  // specific first — 33 map lookups, no trie needed for a query path.
  for (int len = 32; len >= 0; --len) {
    Ipv4Prefix probe(addr, static_cast<std::uint8_t>(len));
    auto best = speaker_->loc_rib().best(probe);
    if (best) return "match " + render_route(*best) + "\n";
  }
  return "no route for " + addr.str() + "\n";
}

std::string LookingGlass::dump_adj_rib_in(bgp::PeerId peer) const {
  std::ostringstream os;
  os << "adj-rib-in " << speaker_->peer_config(peer).name << ":\n";
  const auto routes = speaker_->adj_rib_in(peer);
  for (const auto& route : routes) os << "  " << render_route(route) << "\n";
  os << "  (" << routes.size() << " routes)\n";
  return os.str();
}

std::string LookingGlass::dump_adj_rib_out(bgp::PeerId peer) const {
  std::ostringstream os;
  os << "adj-rib-out " << speaker_->peer_config(peer).name << ":\n";
  auto entries = speaker_->adj_rib_out(peer);
  for (const auto& e : entries) {
    const std::string origin =
        e.origin == bgp::kLocalRoutes
            ? "local"
            : speaker_->peer_config(e.origin).name;
    os << "  " << e.prefix.str() << " id=" << e.local_id << " next_hop="
       << e.next_hop.str() << " from=" << origin << " as_path=["
       << e.attrs->as_path.str() << "]\n";
  }
  os << "  (" << entries.size() << " paths)\n";
  return os.str();
}

std::string LookingGlass::explain_best(const Ipv4Prefix& prefix) const {
  auto candidates = speaker_->loc_rib().candidates(prefix);
  std::ostringstream os;
  os << "best-path " << prefix.str() << ":\n";
  if (candidates.empty()) {
    os << "  no candidates\n";
    return os.str();
  }
  auto info_of = [&](bgp::PeerId p) { return speaker_->peer_decision_info(p); };
  for (std::size_t i = 0; i < candidates.size(); ++i)
    os << "  [" << i << "] " << render_route(candidates[i]) << "\n";

  // Replay select_best_path's pairwise tournament, narrating the rule that
  // decided each comparison.
  static constexpr const char* kRules[] = {
      "1:local_pref",      "2:as_path_length", "3:origin",
      "4:med",             "5:ebgp_over_ibgp", "6:router_id",
      "7:peer_address"};
  int best = -1;
  bgp::PeerDecisionInfo best_info;
  for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
    const bgp::RibRoute& cand = candidates[static_cast<std::size_t>(i)];
    if (!cand.valid()) continue;
    bgp::PeerDecisionInfo cand_info = info_of(cand.peer);
    if (best < 0) {
      best = i;
      best_info = cand_info;
      continue;
    }
    const bgp::PathVerdict verdict = bgp::compare_paths(
        *cand.attrs, cand_info,
        *candidates[static_cast<std::size_t>(best)].attrs, best_info);
    os << "  [" << i << "] vs [" << best << "]: rule "
       << kRules[verdict.rule - 1] << " -> "
       << (verdict.wins ? "replaces" : "keeps") << " best\n";
    if (verdict.wins) {
      best = i;
      best_info = cand_info;
    }
  }
  os << "  selected: [" << best << "]\n";
  return os.str();
}

std::string LookingGlass::query(const std::string& line) const {
  std::istringstream is(line);
  std::string verb, arg;
  is >> verb >> arg;
  const std::string usage =
      "usage: lpm <a.b.c.d> | adj-in <peer> | adj-out <peer> | "
      "explain <a.b.c.d/len> | tenant <id>\n";
  if (verb == "tenant") {
    if (arg.empty()) return usage;
    if (!tenant_resolver_)
      return "tenant queries unavailable: no tenant control plane attached\n";
    return tenant_resolver_(arg);
  }
  if (verb == "lpm") {
    auto addr = Ipv4Address::parse(arg);
    if (!addr) return "bad address: " + arg + "\n";
    return lpm(*addr);
  }
  if (verb == "adj-in" || verb == "adj-out") {
    bgp::PeerId peer = resolve_peer(arg);
    if (peer == 0) return "unknown peer: " + arg + "\n";
    return verb == "adj-in" ? dump_adj_rib_in(peer) : dump_adj_rib_out(peer);
  }
  if (verb == "explain") {
    auto prefix = Ipv4Prefix::parse(arg);
    if (!prefix) return "bad prefix: " + arg + "\n";
    return explain_best(*prefix);
  }
  return usage;
}

}  // namespace peering::mon

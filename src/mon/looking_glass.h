// Looking glass: the operator-facing query side of the monitoring plane.
// Wraps one live bgp::BgpSpeaker and renders deterministic text answers —
// longest-prefix-match lookups against the Loc-RIB, per-peer
// Adj-RIB-In/Out dumps, and a best-path explanation narrating the
// RFC 4271 §9.1 decision steps. toolkit/client exposes this against live
// routers (`looking_glass(pop, query)`), mirroring the public looking
// glasses experimenters point at the real platform's muxes.
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "bgp/speaker.h"

namespace peering::mon {

class LookingGlass {
 public:
  /// Non-owning; the speaker must outlive the glass. (Mutable because
  /// peer-name resolution reads PeerConfig through the speaker's non-const
  /// accessor — queries never modify speaker state.)
  explicit LookingGlass(bgp::BgpSpeaker* speaker) : speaker_(speaker) {}

  /// Longest-prefix match for an address against the Loc-RIB best paths.
  std::string lpm(Ipv4Address addr) const;

  /// Every path accepted from `peer` (its Loc-RIB candidates), ascending
  /// (prefix, path_id).
  std::string dump_adj_rib_in(bgp::PeerId peer) const;

  /// Everything we advertised to `peer` (post-splice next-hops),
  /// ascending (prefix, local path id).
  std::string dump_adj_rib_out(bgp::PeerId peer) const;

  /// Candidate set for `prefix` plus the §9.1 rule that decided the best
  /// path.
  std::string explain_best(const Ipv4Prefix& prefix) const;

  /// Tenant queries delegate to the control plane: the resolver maps a
  /// tenant id to its rendered state (compiled policy, active PoPs,
  /// announced prefixes). Unset = the `tenant` verb reports unavailable.
  using TenantResolver = std::function<std::string(const std::string&)>;
  void set_tenant_resolver(TenantResolver resolver) {
    tenant_resolver_ = std::move(resolver);
  }

  /// Dispatches a one-line query:
  ///   "lpm <a.b.c.d>" | "adj-in <peer>" | "adj-out <peer>" |
  ///   "explain <a.b.c.d/len>" | "tenant <id>"
  /// where <peer> is a session name or numeric id. Unknown queries return
  /// a usage line (never throw).
  std::string query(const std::string& line) const;

 private:
  /// Peer by session name or decimal id; 0 when unknown.
  bgp::PeerId resolve_peer(const std::string& token) const;
  std::string render_route(const bgp::RibRoute& route) const;

  bgp::BgpSpeaker* speaker_;
  TenantResolver tenant_resolver_;
};

}  // namespace peering::mon

// Synthetic AS-level Internet: relationship graph (customer-provider and
// settlement-free peering), valley-free (Gao–Rexford) route propagation,
// and customer cones. This is the stand-in for the real routing ecosystem
// PEERING connects to: neighbor ASes at PoPs advertise the routes this
// model says they would, with correct export policies (a transit provider
// exports everything, a peer exports only its customer cone, §4.2).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bgp/types.h"
#include "netbase/prefix.h"
#include "netbase/rand.h"

namespace peering::inet {

enum class RouteType : std::uint8_t {
  kNone = 0,
  /// Learned from a customer (most preferred; exported to everyone).
  kCustomer = 3,
  /// Learned from a settlement-free peer (exported to customers only).
  kPeer = 2,
  /// Learned from a provider (least preferred; exported to customers only).
  kProvider = 1,
};

struct AsRoute {
  RouteType type = RouteType::kNone;
  /// AS path from this AS to the origin (first = next AS, last = origin).
  std::vector<bgp::Asn> path;

  bool valid() const { return type != RouteType::kNone; }
};

/// A directed filtered adjacency: routes are not passed from `exporter`
/// (first) to `importer` (second). This covers both "exporter does not
/// export" and "importer filters on import", which are indistinguishable
/// from outside (Appendix A).
using FilteredEdge = std::pair<bgp::Asn, bgp::Asn>;

class AsGraph {
 public:
  void add_as(bgp::Asn asn) { ases_.insert(asn); }
  bool has_as(bgp::Asn asn) const { return ases_.count(asn) > 0; }
  std::size_t as_count() const { return ases_.size(); }
  const std::set<bgp::Asn>& ases() const { return ases_; }

  /// Declares `provider` to transit for `customer`.
  void add_provider(bgp::Asn customer, bgp::Asn provider);
  /// Declares a settlement-free peering between a and b.
  void add_peering(bgp::Asn a, bgp::Asn b);

  const std::vector<bgp::Asn>& providers(bgp::Asn asn) const;
  const std::vector<bgp::Asn>& customers(bgp::Asn asn) const;
  const std::vector<bgp::Asn>& peers(bgp::Asn asn) const;

  /// The customer cone of `asn`: itself plus every AS reachable by
  /// following customer edges down (§4.2 uses cones to reason about the
  /// reach of peer announcements).
  std::set<bgp::Asn> customer_cone(bgp::Asn asn) const;

  /// Gao–Rexford route computation: the route every AS selects toward
  /// `origin`, honoring export rules (customer routes are exported to all;
  /// peer/provider routes only to customers) and the standard preference
  /// customer > peer > provider, then shortest path. No route crosses an
  /// edge in `blocked`; an empty set is unfiltered propagation.
  std::map<bgp::Asn, AsRoute> routes_to(
      bgp::Asn origin, const std::set<FilteredEdge>& blocked = {}) const;

  /// True iff every AS with any route has a valley-free path (diagnostic).
  static bool path_is_valley_free(const AsGraph& graph,
                                  const std::vector<bgp::Asn>& path,
                                  bgp::Asn origin);

 private:
  std::set<bgp::Asn> ases_;
  std::map<bgp::Asn, std::vector<bgp::Asn>> providers_;
  std::map<bgp::Asn, std::vector<bgp::Asn>> customers_;
  std::map<bgp::Asn, std::vector<bgp::Asn>> peers_;
  static const std::vector<bgp::Asn> kEmpty;
};

/// Parameters for the synthetic Internet generator.
struct InternetConfig {
  int tier1_count = 6;        // fully meshed clique at the top
  int tier2_count = 30;       // regional transit: customers of 2-3 tier-1s
  int stub_count = 200;       // edge networks: customers of 1-3 tier-2s
  double tier2_peering_prob = 0.3;
  std::uint64_t seed = 1;
  bgp::Asn first_asn = 100;
};

struct Internet {
  AsGraph graph;
  std::vector<bgp::Asn> tier1, tier2, stubs;
  /// One /24 per stub AS (the destinations experiments probe).
  std::map<bgp::Asn, Ipv4Prefix> prefixes;
};

/// Deterministically generates a three-tier Internet.
Internet generate_internet(const InternetConfig& config);

}  // namespace peering::inet

// The intent model (§5): the desired configuration of the whole platform —
// PoPs, interconnections, experiments and their capabilities — stored
// centrally and transformed into per-service configuration by templating.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bgp/types.h"
#include "enforce/capabilities.h"
#include "netbase/prefix.h"

namespace peering::platform {

enum class PopType : std::uint8_t { kIxp, kUniversity };
enum class InterconnectType : std::uint8_t {
  kTransit,
  kBilateralPeer,
  kRouteServer,
};

const char* pop_type_name(PopType type);
const char* interconnect_type_name(InterconnectType type);

/// One BGP interconnection at a PoP.
struct InterconnectModel {
  std::string name;
  bgp::Asn asn = 0;
  InterconnectType type = InterconnectType::kBilateralPeer;
  /// Platform-wide neighbor id (feeds the global next-hop pool).
  std::uint32_t global_id = 0;
};

/// One PoP in the desired state.
struct PopModel {
  std::string id;          // e.g. "amsterdam01"
  std::string location;    // e.g. "AMS-IX, Amsterdam"
  PopType type = PopType::kIxp;
  std::vector<InterconnectModel> interconnects;
  /// Traffic shaping limit agreed with the site (0 = unconstrained). Only
  /// two PEERING sites have one (§4.7).
  std::uint64_t bandwidth_limit_bps = 0;
  bool on_backbone = false;

  std::size_t transit_count() const {
    std::size_t n = 0;
    for (const auto& ic : interconnects)
      if (ic.type == InterconnectType::kTransit) ++n;
    return n;
  }
};

enum class ExperimentStatus : std::uint8_t {
  kProposed,
  kApproved,
  kActive,
  kRejected,
  kRetired,
};

const char* experiment_status_name(ExperimentStatus status);

/// An experiment's record in the management database (§4.6): proposal
/// metadata, allocation, capabilities, lifecycle status.
struct ExperimentModel {
  std::string id;
  std::string description;
  std::string contact;
  ExperimentStatus status = ExperimentStatus::kProposed;
  bgp::Asn asn = 0;
  std::vector<Ipv4Prefix> allocated_prefixes;
  std::optional<Ipv6Prefix> allocated_v6;
  std::set<enforce::Capability> capabilities;
  int max_poisoned_asns = 0;
  int max_communities = 0;
  int max_updates_per_day = 144;
  std::uint64_t traffic_rate_bps = 0;
  /// PoPs the experiment is provisioned at.
  std::vector<std::string> pops;

  /// The grant handed to the enforcement engines.
  enforce::ExperimentGrant to_grant() const {
    enforce::ExperimentGrant grant;
    grant.experiment_id = id;
    grant.allocated_prefixes = allocated_prefixes;
    grant.allowed_origin_asns = {asn};
    grant.capabilities = capabilities;
    grant.max_poisoned_asns = max_poisoned_asns;
    grant.max_communities = max_communities;
    grant.max_updates_per_day = max_updates_per_day;
    grant.traffic_rate_bps = traffic_rate_bps;
    return grant;
  }
};

/// The platform's numbered resources (§4.2): 8 ASNs (three 4-byte),
/// 40 IPv4 /24s, one IPv6 /32.
struct NumberedResources {
  std::vector<bgp::Asn> asns;
  std::vector<Ipv4Prefix> prefix_pool;
  Ipv6Prefix v6_allocation;

  static NumberedResources peering_defaults();
};

/// The full desired state.
struct PlatformModel {
  NumberedResources resources;
  std::map<std::string, PopModel> pops;
  std::map<std::string, ExperimentModel> experiments;
  std::uint64_t version = 0;
};

}  // namespace peering::platform

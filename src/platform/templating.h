// Intent-based configuration generation (§5): transforms the central
// PlatformModel into the per-service artifacts a PoP runs — the BIRD-style
// router configuration (which exceeds 10,000 lines at large PoPs), the
// OpenVPN server configuration, the enforcement-engine configuration, and
// the DesiredNetworkState handed to the network controller.
#pragma once

#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "platform/controller.h"
#include "platform/model.h"

namespace peering::platform {

struct GeneratedConfigs {
  std::string bird_config;
  std::string openvpn_config;
  std::string enforcer_config;
  DesiredNetworkState network;

  std::size_t bird_line_count() const;
};

/// Generates every service configuration for one PoP from the model.
/// Deterministic: equal models yield byte-identical configs (the property
/// that makes canarying and version-control diffs meaningful).
GeneratedConfigs generate_pop_configs(const PlatformModel& model,
                                      const std::string& pop_id);

/// One BIRD-style `protocol bgp` stanza, ending with its closing "}" line.
void render_bgp_protocol(std::ostream& out, const std::string& name,
                         bgp::Asn asn, const std::string& description,
                         bool add_paths, const std::string& import_filter,
                         const std::string& export_filter);

/// An experiment session's import filter `name`: allocation ownership, the
/// origin ASN, and the poisoning and community grants. Ends with its
/// closing "}" line.
void render_experiment_filter(
    std::ostream& out, const std::string& name,
    const std::vector<Ipv4Prefix>& prefixes, bgp::Asn origin_asn,
    const std::set<enforce::Capability>& capabilities, int max_poisoned_asns,
    int max_communities);

/// A PoP's network state with no experiment attached: loopback, the
/// physical interface, and one policy rule + table per interconnect (the
/// per-neighbor FIBs of the vBGP data plane, §3.2.2).
DesiredNetworkState tenantless_network_state(const PopModel& pop);

}  // namespace peering::platform

#include "platform/templating.h"

#include <algorithm>
#include <sstream>

namespace peering::platform {

void render_bgp_protocol(std::ostream& out, const std::string& name,
                         bgp::Asn asn, const std::string& description,
                         bool add_paths, const std::string& import_filter,
                         const std::string& export_filter) {
  out << "protocol bgp " << name << " {\n";
  out << "  description \"" << description << "\";\n";
  out << "  local as 47065;\n";
  out << "  neighbor as " << asn << ";\n";
  out << "  hold time 90;\n";
  out << "  keepalive time 30;\n";
  out << "  connect retry time 30;\n";
  out << "  graceful restart on;\n";
  if (add_paths) out << "  add paths tx rx;\n";
  out << "  ipv4 {\n";
  out << "    import filter " << import_filter << ";\n";
  out << "    export filter " << export_filter << ";\n";
  out << "  };\n";
  out << "}\n";
}

void render_experiment_filter(
    std::ostream& out, const std::string& name,
    const std::vector<Ipv4Prefix>& prefixes, bgp::Asn origin_asn,
    const std::set<enforce::Capability>& capabilities, int max_poisoned_asns,
    int max_communities) {
  out << "filter " << name << " {\n";
  out << "  # allocation ownership\n";
  bool first = true;
  out << "  if ! (net ~ [";
  for (const auto& prefix : prefixes) {
    if (!first) out << ", ";
    out << prefix.str() << "+";
    first = false;
  }
  out << "]) then reject;\n";
  out << "  if (bgp_path.last != " << origin_asn << ") then reject;\n";
  if (capabilities.count(enforce::Capability::kAsPathPoisoning)) {
    out << "  # poisoning allowed: up to " << max_poisoned_asns
        << " third-party ASNs\n";
  } else {
    out << "  if (bgp_path.len > 4) then reject;  # no poisoning grant\n";
  }
  if (capabilities.count(enforce::Capability::kCommunities)) {
    out << "  # communities allowed: up to " << max_communities << "\n";
  } else {
    out << "  bgp_community.delete([(*, *)]);  # strip: no community grant\n";
  }
  out << "  accept;\n";
  out << "}\n";
}

DesiredNetworkState tenantless_network_state(const PopModel& pop) {
  DesiredNetworkState state;
  state.interfaces.push_back(
      NlInterface{"lo", true, {{Ipv4Address(127, 0, 0, 1), 8}}});
  state.interfaces.push_back(
      NlInterface{"eth0", true, {{Ipv4Address(10, 0, 0, 1), 24}}});
  std::uint32_t table = 1000;
  std::uint32_t priority = 100;
  for (const auto& ic : pop.interconnects) {
    NlRule rule;
    rule.priority = priority++;
    rule.selector = "dmac:neighbor-" + std::to_string(ic.global_id);
    rule.table = table++;
    state.rules.push_back(rule);
  }
  return state;
}

std::size_t GeneratedConfigs::bird_line_count() const {
  return static_cast<std::size_t>(
      std::count(bird_config.begin(), bird_config.end(), '\n'));
}

GeneratedConfigs generate_pop_configs(const PlatformModel& model,
                                      const std::string& pop_id) {
  GeneratedConfigs configs;
  auto pop_it = model.pops.find(pop_id);
  if (pop_it == model.pops.end()) return configs;
  const PopModel& pop = pop_it->second;

  // ------------------------- BIRD configuration -------------------------
  std::ostringstream bird;
  bird << "# generated from model version " << model.version << " for "
       << pop.id << " (" << pop.location << ")\n";
  bird << "router id 10.255.0.1;\n\n";
  bird << "filter import_neighbor {\n"
       << "  # next-hop rewrite to the neighbor's global pool address is\n"
       << "  # performed by the vBGP layer\n"
       << "  accept;\n"
       << "}\n\n";
  bird << "filter export_neighbor {\n"
       << "  # only experiment-originated announcements reach the Internet\n"
       << "  if ! (bgp_large_community ~ [(47065, 0xFFFF0001, *)]) then reject;\n"
       << "  bgp_community.delete([(47065, *)]);\n"
       << "  bgp_community.delete([(47064, *)]);\n"
       << "  accept;\n"
       << "}\n\n";

  for (const auto& ic : pop.interconnects) {
    std::string proto_name = ic.name;
    std::replace(proto_name.begin(), proto_name.end(), '-', '_');
    render_bgp_protocol(bird, proto_name, ic.asn,
                        std::string(interconnect_type_name(ic.type)) + " at " +
                            pop.location,
                        /*add_paths=*/false, "import_neighbor",
                        "export_neighbor");
    bird << "\n";
  }

  // Experiment sessions at this PoP.
  for (const auto& [id, exp] : model.experiments) {
    if (exp.status != ExperimentStatus::kActive &&
        exp.status != ExperimentStatus::kApproved)
      continue;
    if (std::find(exp.pops.begin(), exp.pops.end(), pop_id) == exp.pops.end())
      continue;
    render_experiment_filter(bird, "import_experiment_" + exp.id,
                             exp.allocated_prefixes, exp.asn, exp.capabilities,
                             exp.max_poisoned_asns, exp.max_communities);
    bird << "\n";
    render_bgp_protocol(bird, "experiment_" + exp.id, exp.asn,
                        "experiment " + exp.id, /*add_paths=*/true,
                        "import_experiment_" + exp.id, "export_all_paths");
    bird << "\n";
  }
  configs.bird_config = bird.str();

  // ------------------------ OpenVPN configuration -----------------------
  std::ostringstream vpn;
  vpn << "# OpenVPN server for " << pop.id << "\n"
      << "port 1194\nproto udp\ndev tap0\n"
      << "server 100.64.0.0 255.255.192.0\n";
  for (const auto& [id, exp] : model.experiments) {
    if (std::find(exp.pops.begin(), exp.pops.end(), pop_id) == exp.pops.end())
      continue;
    vpn << "# client " << id << "\n";
    vpn << "client-config-dir ccd/" << id << "\n";
  }
  configs.openvpn_config = vpn.str();

  // --------------------- Enforcement configuration ----------------------
  std::ostringstream enf;
  enf << "pop: " << pop.id << "\n";
  if (pop.bandwidth_limit_bps > 0)
    enf << "bandwidth_limit_bps: " << pop.bandwidth_limit_bps << "\n";
  for (const auto& [id, exp] : model.experiments) {
    if (exp.status != ExperimentStatus::kActive &&
        exp.status != ExperimentStatus::kApproved)
      continue;
    enf << "experiment " << id << ":\n";
    enf << "  max_updates_per_day: " << exp.max_updates_per_day << "\n";
    for (const auto& prefix : exp.allocated_prefixes)
      enf << "  allocation: " << prefix.str() << "\n";
    for (auto cap : exp.capabilities)
      enf << "  capability: " << enforce::capability_name(cap) << "\n";
  }
  configs.enforcer_config = enf.str();

  // ----------------------- Desired network state ------------------------
  configs.network = tenantless_network_state(pop);

  // One tap interface per connected experiment.
  int tap = 0;
  for (const auto& [id, exp] : model.experiments) {
    if (exp.status != ExperimentStatus::kActive &&
        exp.status != ExperimentStatus::kApproved)
      continue;
    if (std::find(exp.pops.begin(), exp.pops.end(), pop_id) == exp.pops.end())
      continue;
    NlInterface tap_if{"tap" + std::to_string(tap), true,
                       {{Ipv4Address(100, 64, static_cast<std::uint8_t>(tap), 1),
                         24}}};
    configs.network.interfaces.push_back(tap_if);
    for (const auto& prefix : exp.allocated_prefixes) {
      NlRoute route;
      route.prefix = prefix;
      route.gateway = Ipv4Address(100, 64, static_cast<std::uint8_t>(tap), 2);
      route.interface = "tap" + std::to_string(tap);
      configs.network.routes.push_back(route);
    }
    ++tap;
  }

  return configs;
}

}  // namespace peering::platform

#include "tenant/compiler.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace peering::tenant {

namespace {

std::string tap_name(const std::string& tenant_id) {
  // Stable, tenant-keyed device name: add/remove of one tenant never
  // renumbers another tenant's tap (templating's positional tapN scheme
  // would, which flaps tunnels on every removal).
  return "tap-" + tenant_id;
}

void render_session(std::ostringstream& out, const TenantIntent& intent,
                    bgp::Asn asn, const std::string& pop_id) {
  out << "protocol bgp tenant_" << intent.id << " {\n";
  out << "  description \"tenant " << intent.id << " at " << pop_id << "\";\n";
  out << "  local as 47065;\n";
  out << "  neighbor as " << asn << ";\n";
  out << "  hold time 90;\n";
  out << "  keepalive time 30;\n";
  out << "  connect retry time 30;\n";
  out << "  graceful restart on;\n";
  if (intent.add_path) out << "  add paths tx rx;\n";
  out << "  ipv4 {\n";
  out << "    import filter import_tenant_" << intent.id << ";\n";
  out << "    export filter export_tenant_" << intent.id << ";\n";
  out << "  };\n";
  out << "}\n";
}

void render_import(std::ostringstream& out, const TenantIntent& intent,
                   bgp::Asn asn, const std::vector<Ipv4Prefix>& prefixes) {
  out << "filter import_tenant_" << intent.id << " {\n";
  out << "  # allocation ownership\n";
  out << "  if ! (net ~ [";
  bool first = true;
  for (const auto& prefix : prefixes) {
    if (!first) out << ", ";
    out << prefix.str() << "+";
    first = false;
  }
  out << "]) then reject;\n";
  out << "  if (bgp_path.last != " << asn << ") then reject;\n";
  if (intent.capabilities.count(enforce::Capability::kAsPathPoisoning)) {
    out << "  # poisoning allowed: up to " << intent.max_poisoned_asns
        << " third-party ASNs\n";
  } else {
    out << "  if (bgp_path.len > 4) then reject;  # no poisoning grant\n";
  }
  if (intent.capabilities.count(enforce::Capability::kCommunities)) {
    out << "  # communities allowed: up to " << intent.max_communities << "\n";
  } else {
    out << "  bgp_community.delete([(*, *)]);  # strip: no community grant\n";
  }
  out << "  accept;\n";
  out << "}\n";
}

void render_export(std::ostringstream& out, const TenantIntent& intent,
                   const platform::PopModel& pop, const PopScope* scope,
                   std::size_t* exportable) {
  out << "filter export_tenant_" << intent.id << " {\n";
  *exportable = 0;
  // Scope gate: enumerate the interconnects this tenant's routes may reach
  // at this PoP. A wildcard intent (no scopes) exports everywhere.
  out << "  # exportable interconnects at " << pop.id << ":\n";
  for (const auto& ic : pop.interconnects) {
    bool allowed = scope == nullptr || scope->allows(ic.type);
    out << "  #   " << ic.name << " ("
        << platform::interconnect_type_name(ic.type) << "): "
        << (allowed ? "export" : "withhold") << "\n";
    if (allowed) ++*exportable;
  }
  for (int i = 0; i < intent.prepend; ++i)
    out << "  bgp_path.prepend(" << 47065 << ");\n";
  for (auto community : intent.communities)
    out << "  bgp_community.add((" << community.str() << "));\n";
  out << "  accept;\n";
  out << "}\n";
}

}  // namespace

const CompiledPopArtifacts* CompiledTenant::at_pop(
    const std::string& pop_id) const {
  for (const auto& artifacts : pops)
    if (artifacts.pop_id == pop_id) return &artifacts;
  return nullptr;
}

Ipv4Address tunnel_router_address(int index) {
  return Ipv4Address((100u << 24) | (64u << 16) |
                     (static_cast<std::uint32_t>(index) << 8) | 1u);
}

Ipv4Address tunnel_client_address(int index) {
  return Ipv4Address((100u << 24) | (64u << 16) |
                     (static_cast<std::uint32_t>(index) << 8) | 2u);
}

Result<CompiledTenant> IntentCompiler::compile(
    const TenantIntent& intent, const platform::ExperimentModel& exp,
    int tunnel_index) const {
  if (model_ == nullptr) return Error("tenant compiler: no platform model");
  if (Status valid = intent.validate(*model_); !valid.ok())
    return valid.error();
  if (exp.status != platform::ExperimentStatus::kApproved &&
      exp.status != platform::ExperimentStatus::kActive)
    return Error("tenant compiler: experiment '" + exp.id +
                 "' is not approved/active");
  if (exp.allocated_prefixes.empty())
    return Error("tenant compiler: experiment '" + exp.id +
                 "' has no allocation");
  if (tunnel_index < 0 || tunnel_index > 0x3fff)
    return Error("tenant compiler: tunnel index outside 100.64/10 budget");

  CompiledTenant tenant;
  tenant.intent = intent;
  tenant.asn = exp.asn;
  tenant.prefixes = exp.allocated_prefixes;
  tenant.grant = exp.to_grant();
  // The proposal form has no field for these two budgets, so the database
  // record keeps the defaults; the intent is their source of truth.
  tenant.grant.max_updates_per_day = intent.max_updates_per_day;
  tenant.grant.traffic_rate_bps = intent.traffic_rate_bps;
  tenant.tunnel_index = tunnel_index;

  std::uint64_t h = fnv1a(kFnv1aOffset, intent.fingerprint());

  for (const std::string& pop_id : intent.resolve_pops(*model_)) {
    const platform::PopModel& pop = model_->pops.at(pop_id);
    const PopScope* scope = intent.scope_for(pop_id);

    CompiledPopArtifacts artifacts;
    artifacts.pop_id = pop_id;

    std::ostringstream session, import, exportf;
    render_session(session, intent, exp.asn, pop_id);
    render_import(import, intent, exp.asn, exp.allocated_prefixes);
    render_export(exportf, intent, pop, scope,
                  &artifacts.exportable_interconnects);
    artifacts.session_config = session.str();
    artifacts.import_policy = import.str();
    artifacts.export_policy = exportf.str();

    // Netlink delta: the tenant's tunnel endpoint plus one route per
    // allocated prefix steering experiment traffic into the tunnel.
    platform::NlInterface tap;
    tap.name = tap_name(intent.id);
    tap.up = true;
    tap.addresses.push_back(
        platform::NlAddress{tunnel_router_address(tunnel_index), 30});
    artifacts.network_delta.interfaces.push_back(tap);
    for (const auto& prefix : exp.allocated_prefixes) {
      platform::NlRoute route;
      route.prefix = prefix;
      route.gateway = tunnel_client_address(tunnel_index);
      route.interface = tap.name;
      artifacts.network_delta.routes.push_back(route);
    }

    h = fnv1a(h, pop_id);
    h = fnv1a(h, artifacts.session_config);
    h = fnv1a(h, artifacts.import_policy);
    h = fnv1a(h, artifacts.export_policy);
    tenant.pops.push_back(std::move(artifacts));
  }

  if (tenant.pops.empty())
    return Error("tenant compiler: intent resolves to no PoPs: " + intent.id);

  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  tenant.fingerprint = std::string(buf);
  return tenant;
}

}  // namespace peering::tenant

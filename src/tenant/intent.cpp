#include "tenant/intent.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace peering::tenant {

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

Status TenantIntent::validate(const platform::PlatformModel& model) const {
  if (id.empty()) return Error("tenant: empty tenant id");
  if (explicit_prefixes.empty() && prefix_count < 1)
    return Error("tenant: must request at least one prefix: " + id);
  if (prepend < 0 || prepend > 16)
    return Error("tenant: prepend count out of range [0,16]: " + id);
  std::set<std::string> seen;
  for (const PopScope& scope : scopes) {
    if (!model.pops.count(scope.pop_id))
      return Error("tenant: scope names unknown pop '" + scope.pop_id +
                   "': " + id);
    if (!seen.insert(scope.pop_id).second)
      return Error("tenant: duplicate scope for pop '" + scope.pop_id +
                   "': " + id);
  }
  if (!communities.empty() &&
      capabilities.count(enforce::Capability::kCommunities) == 0)
    return Error("tenant: communities attached without kCommunities grant: " +
                 id);
  if (static_cast<int>(communities.size()) > max_communities &&
      !communities.empty())
    return Error("tenant: more communities than the granted budget: " + id);
  if (max_poisoned_asns > 0 &&
      capabilities.count(enforce::Capability::kAsPathPoisoning) == 0)
    return Error(
        "tenant: poisoned-ASN budget without kAsPathPoisoning grant: " + id);
  return Status::Ok();
}

std::vector<std::string> TenantIntent::resolve_pops(
    const platform::PlatformModel& model) const {
  std::vector<std::string> pops;
  if (scopes.empty()) {
    for (const auto& [pop_id, pop] : model.pops) pops.push_back(pop_id);
    return pops;  // map order is already ascending
  }
  for (const PopScope& scope : scopes)
    if (model.pops.count(scope.pop_id)) pops.push_back(scope.pop_id);
  std::sort(pops.begin(), pops.end());
  return pops;
}

const PopScope* TenantIntent::scope_for(const std::string& pop_id) const {
  if (scopes.empty()) return nullptr;  // wildcard: every pop, every class
  for (const PopScope& scope : scopes)
    if (scope.pop_id == pop_id) return &scope;
  return nullptr;
}

platform::ExperimentProposal TenantIntent::to_proposal() const {
  platform::ExperimentProposal proposal;
  proposal.id = id;
  proposal.description = description;
  proposal.contact = contact;
  proposal.execution_plan = "tenant-intent";
  proposal.requested_prefixes =
      explicit_prefixes.empty() ? prefix_count
                                : static_cast<int>(explicit_prefixes.size());
  proposal.requested_capabilities = capabilities;
  proposal.requested_poisoned_asns = max_poisoned_asns;
  proposal.requested_communities = max_communities;
  return proposal;
}

std::string TenantIntent::fingerprint() const {
  // Canonical rendering: sorted scopes, every knob spelled out.
  std::ostringstream os;
  os << "id=" << id << ";n=" << prefix_count << ";px=";
  for (const auto& prefix : explicit_prefixes) os << prefix.str() << ",";
  std::vector<std::string> rendered;
  for (const PopScope& scope : scopes) {
    std::ostringstream s;
    s << scope.pop_id << "[";
    for (auto type : scope.peer_classes)
      s << platform::interconnect_type_name(type) << ",";
    s << "]";
    rendered.push_back(s.str());
  }
  std::sort(rendered.begin(), rendered.end());
  os << ";scopes=";
  for (const auto& s : rendered) os << s << "|";
  os << ";prepend=" << prepend << ";comm=";
  for (auto c : communities) os << c.str() << ",";
  os << ";addpath=" << (add_path ? 1 : 0) << ";caps=";
  for (auto cap : capabilities) os << enforce::capability_name(cap) << ",";
  os << ";poison=" << max_poisoned_asns << ";maxcomm=" << max_communities
     << ";updates=" << max_updates_per_day << ";rate=" << traffic_rate_bps;

  std::uint64_t h = fnv1a(kFnv1aOffset, os.str());
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

}  // namespace peering::tenant

#include "tenant/orchestrator.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "netbase/log.h"
#include "platform/peering.h"
#include "platform/templating.h"

namespace peering::tenant {

namespace {

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TenantOrchestrator::TenantOrchestrator(platform::ConfigDatabase* db)
    : db_(db), metrics_(obs::Registry::global()) {
  obs_onboards_ = metrics_->counter("tenant_onboards_total");
  obs_onboard_failures_ = metrics_->counter("tenant_onboard_failures_total");
  obs_amends_ = metrics_->counter("tenant_amends_total");
  obs_removes_ = metrics_->counter("tenant_removes_total");
  obs_fleet_rollbacks_ = metrics_->counter("tenant_fleet_rollbacks_total");
  obs_fleet_rollback_failures_ =
      metrics_->counter("tenant_fleet_rollback_failures_total");
  obs_active_ = metrics_->gauge("tenant_active");
  obs_onboard_ops_ = metrics_->histogram("tenant_onboard_netlink_ops");
  obs_onboard_wall_ns_ = metrics_->timing_histogram("tenant_onboard_wall_ns");
}

Status TenantOrchestrator::register_pop(
    const std::string& pop_id, enforce::ControlPlaneEnforcer* external) {
  auto pop_it = db_->model().pops.find(pop_id);
  if (pop_it == db_->model().pops.end())
    return Error("tenant orchestrator: no such pop: " + pop_id);
  if (pops_.count(pop_id))
    return Error("tenant orchestrator: pop already managed: " + pop_id);
  const platform::PopModel& model = pop_it->second;

  PopState state;
  state.pop_id = pop_id;
  state.netlink = std::make_unique<platform::NetlinkSim>();
  state.controller =
      std::make_unique<platform::NetworkController>(state.netlink.get());
  if (external != nullptr) {
    state.enforcer = external;
  } else {
    state.owned_enforcer = std::make_unique<enforce::ControlPlaneEnforcer>();
    state.owned_enforcer->install_default_rules({47065, 47064});
    state.enforcer = state.owned_enforcer.get();
  }

  state.baseline = platform::tenantless_network_state(model);

  platform::ApplyResult applied = state.controller->apply(state.baseline);
  if (!applied.success)
    return Error("tenant orchestrator: baseline apply failed at " + pop_id +
                 ": " + applied.error);
  state.applied = state.baseline;
  pops_.emplace(pop_id, std::move(state));
  return Status::Ok();
}

Status TenantOrchestrator::register_all_pops() {
  for (const auto& [pop_id, pop] : db_->model().pops) {
    (void)pop;
    if (pops_.count(pop_id)) continue;
    if (Status st = register_pop(pop_id); !st.ok()) return st;
  }
  return Status::Ok();
}

Status TenantOrchestrator::attach_platform(platform::Peering* platform) {
  for (const std::string& pop_id : platform->pop_ids()) {
    platform::PopRuntime* pop = platform->pop(pop_id);
    if (pop == nullptr || pop->control == nullptr)
      return Error("tenant orchestrator: platform pop not built: " + pop_id);
    if (Status st = register_pop(pop_id, pop->control.get()); !st.ok())
      return st;
  }
  platform_ = platform;
  platform->set_tenant_reporter(
      [this](const std::string& id) { return show_tenant(id); });
  return Status::Ok();
}

platform::DesiredNetworkState TenantOrchestrator::desired_for(
    const PopState& pop,
    const std::map<std::string, CompiledTenant>& tenants) const {
  platform::DesiredNetworkState desired = pop.baseline;
  // Tenants splice in ascending-id order. Every artifact is stably keyed by
  // tenant id, so adding or removing one tenant perturbs nothing else.
  for (const auto& [id, tenant] : tenants) {
    (void)id;
    const CompiledPopArtifacts* artifacts = tenant.at_pop(pop.pop_id);
    if (artifacts == nullptr) continue;
    for (const auto& nif : artifacts->network_delta.interfaces)
      desired.interfaces.push_back(nif);
    for (const auto& route : artifacts->network_delta.routes)
      desired.routes.push_back(route);
    for (const auto& rule : artifacts->network_delta.rules)
      desired.rules.push_back(rule);
  }
  return desired;
}

FleetApplyReport TenantOrchestrator::apply_fleet(
    const std::map<std::string, CompiledTenant>& tenants) {
  FleetApplyReport report;

  // Phase 1 — plan: compute every PoP's desired state before touching any.
  struct Step {
    PopState* pop;
    platform::DesiredNetworkState desired;
    platform::DesiredNetworkState previous;
    bool committed = false;
  };
  std::vector<Step> steps;
  for (auto& [pop_id, pop] : pops_) {
    (void)pop_id;
    steps.push_back({&pop, desired_for(pop, tenants), pop.applied, false});
  }

  // Phase 2 — commit PoP by PoP (ascending pop id; pops_ is ordered).
  for (Step& step : steps) {
    if (step.pop->controller->in_sync(step.desired)) {
      step.pop->applied = step.desired;
      step.committed = true;
      continue;
    }
    platform::ApplyResult result = step.pop->controller->apply(step.desired);
    report.changes_applied += result.changes_applied;
    report.rollback_failures += result.rollback_failures;
    if (result.success) {
      step.pop->applied = step.desired;
      step.committed = true;
      ++report.pops_committed;
      continue;
    }

    // Mid-fleet failure. The failing PoP already rolled itself back; walk
    // the committed PoPs back to their previous applied state so the fleet
    // stays on one tenant generation.
    report.error =
        "apply failed at " + step.pop->pop_id + ": " + result.error;
    report.rolled_back = true;
    obs_fleet_rollbacks_->inc();
    metrics_->trace().emit(SimTime{}, "tenant", "fleet-rollback",
                           {{"pop", step.pop->pop_id},
                            {"error", result.error}});
    for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
      if (!it->committed) continue;
      platform::ApplyResult undo = it->pop->controller->apply(it->previous);
      report.rollback_failures += undo.rollback_failures;
      if (!undo.success) {
        ++report.rollback_failures;
        obs_fleet_rollback_failures_->inc();
        metrics_->trace().emit(SimTime{}, "tenant", "fleet-rollback-failure",
                               {{"pop", it->pop->pop_id},
                                {"error", undo.error}});
        LOG_ERROR("tenant", "fleet rollback failed at "
                                << it->pop->pop_id << ": " << undo.error);
        continue;
      }
      it->pop->applied = it->previous;
    }
    report.success = false;
    return report;
  }

  report.success = true;
  return report;
}

void TenantOrchestrator::install_grants(const CompiledTenant& tenant) {
  std::int64_t announced = 0;
  for (const auto& artifacts : tenant.pops) {
    auto it = pops_.find(artifacts.pop_id);
    if (it == pops_.end()) continue;
    it->second.enforcer->set_grant(tenant.grant);
    if (artifacts.exportable_interconnects > 0)
      announced += static_cast<std::int64_t>(tenant.prefixes.size());
  }
  metrics_
      ->gauge("tenant_announced_prefixes", {{"tenant", tenant.intent.id}})
      ->set(announced);
}

void TenantOrchestrator::drop_grants(const CompiledTenant& tenant) {
  for (const auto& artifacts : tenant.pops) {
    auto it = pops_.find(artifacts.pop_id);
    if (it == pops_.end()) continue;
    it->second.enforcer->remove_grant(tenant.intent.id);
  }
  metrics_
      ->gauge("tenant_announced_prefixes", {{"tenant", tenant.intent.id}})
      ->set(0);
}

int TenantOrchestrator::allocate_tunnel_slot() {
  if (!free_tunnel_slots_.empty()) {
    int slot = *free_tunnel_slots_.begin();
    free_tunnel_slots_.erase(free_tunnel_slots_.begin());
    return slot;
  }
  return next_tunnel_slot_++;
}

Result<TenantApplyResult> TenantOrchestrator::onboard(
    const TenantIntent& intent) {
  std::uint64_t t0 = wall_ns();
  auto fail = [&](Error error, bool proposed, int slot) {
    if (proposed) (void)db_->retire_experiment(intent.id);
    if (slot >= 0) free_tunnel_slots_.insert(slot);
    obs_onboard_failures_->inc();
    return error;
  };

  if (pops_.empty())
    return fail(Error("tenant orchestrator: no managed pops"), false, -1);
  if (tenants_.count(intent.id))
    return fail(Error("tenant orchestrator: tenant already live: " + intent.id),
                false, -1);
  if (Status valid = intent.validate(db_->model()); !valid.ok())
    return fail(valid.error(), false, -1);

  // Lifecycle: proposal → approval (allocation + credentials) → optional
  // explicit assignment → activation at every scoped PoP.
  if (Status st = db_->propose_experiment(intent.to_proposal()); !st.ok())
    return fail(st.error(), false, -1);
  Result<platform::Credentials> credentials =
      db_->approve_experiment(intent.id, intent.capabilities);
  if (!credentials.ok()) return fail(credentials.error(), true, -1);
  if (!intent.explicit_prefixes.empty()) {
    if (Status st = db_->assign_prefixes(intent.id, intent.explicit_prefixes);
        !st.ok())
      return fail(st.error(), true, -1);
  }
  std::vector<std::string> scoped_pops = intent.resolve_pops(db_->model());
  for (const std::string& pop_id : scoped_pops) {
    if (Status st = db_->activate_experiment(intent.id, pop_id); !st.ok())
      return fail(st.error(), true, -1);
  }

  const platform::ExperimentModel* exp = db_->experiment(intent.id);
  int slot = allocate_tunnel_slot();
  IntentCompiler compiler(&db_->model());
  Result<CompiledTenant> compiled = compiler.compile(intent, *exp, slot);
  if (!compiled.ok()) return fail(compiled.error(), true, slot);

  std::uint64_t ops_before = 0;
  for (const auto& [pop_id, pop] : pops_) {
    (void)pop_id;
    ops_before += pop.netlink->mutation_count();
  }

  tenants_.emplace(intent.id, *compiled);
  FleetApplyReport fleet = apply_fleet(tenants_);
  if (!fleet.success) {
    tenants_.erase(intent.id);
    return fail(Error("tenant onboard rolled back: " + fleet.error), true,
                slot);
  }

  // Grants only land after the whole fleet committed: a rolled-back tenant
  // never has announcement rights anywhere.
  install_grants(*compiled);
  obs_onboards_->inc();
  obs_active_->set(static_cast<std::int64_t>(tenants_.size()));
  std::uint64_t ops_after = 0;
  for (const auto& [pop_id, pop] : pops_) {
    (void)pop_id;
    ops_after += pop.netlink->mutation_count();
  }
  obs_onboard_ops_->record(ops_after - ops_before);
  obs_onboard_wall_ns_->record(wall_ns() - t0);

  TenantApplyResult out;
  out.tenant_id = intent.id;
  out.fingerprint = compiled->fingerprint;
  out.pops = std::move(scoped_pops);
  out.fleet = fleet;
  return out;
}

Result<TenantApplyResult> TenantOrchestrator::amend(
    const TenantIntent& intent) {
  auto it = tenants_.find(intent.id);
  if (it == tenants_.end())
    return Error("tenant orchestrator: tenant not live: " + intent.id);
  if (Status valid = intent.validate(db_->model()); !valid.ok())
    return valid.error();

  CompiledTenant previous = it->second;
  auto revert_db = [&]() {
    (void)db_->update_capabilities(intent.id, previous.intent.capabilities,
                                   previous.intent.max_poisoned_asns,
                                   previous.intent.max_communities);
    (void)db_->assign_prefixes(intent.id, previous.prefixes);
  };

  if (Status st =
          db_->update_capabilities(intent.id, intent.capabilities,
                                   intent.max_poisoned_asns,
                                   intent.max_communities);
      !st.ok())
    return st.error();
  if (!intent.explicit_prefixes.empty() &&
      intent.explicit_prefixes != previous.prefixes) {
    if (Status st = db_->assign_prefixes(intent.id, intent.explicit_prefixes);
        !st.ok()) {
      revert_db();
      return st.error();
    }
  }
  std::vector<std::string> scoped_pops = intent.resolve_pops(db_->model());
  for (const std::string& pop_id : scoped_pops) {
    if (Status st = db_->activate_experiment(intent.id, pop_id); !st.ok()) {
      revert_db();
      return st.error();
    }
  }

  const platform::ExperimentModel* exp = db_->experiment(intent.id);
  IntentCompiler compiler(&db_->model());
  Result<CompiledTenant> compiled =
      compiler.compile(intent, *exp, previous.tunnel_index);
  if (!compiled.ok()) {
    revert_db();
    return compiled.error();
  }

  it->second = *compiled;
  FleetApplyReport fleet = apply_fleet(tenants_);
  if (!fleet.success) {
    it->second = previous;
    revert_db();
    return Error("tenant amend rolled back: " + fleet.error);
  }

  // Re-grant under the new intent; PoPs the amendment dropped lose theirs.
  drop_grants(previous);
  install_grants(*compiled);
  obs_amends_->inc();

  TenantApplyResult out;
  out.tenant_id = intent.id;
  out.fingerprint = compiled->fingerprint;
  out.pops = std::move(scoped_pops);
  out.fleet = fleet;
  return out;
}

Status TenantOrchestrator::remove(const std::string& tenant_id) {
  auto it = tenants_.find(tenant_id);
  if (it == tenants_.end())
    return Error("tenant orchestrator: tenant not live: " + tenant_id);

  // Reconcile the fleet without the tenant FIRST; grants and the database
  // record only go once the network committed, so a failed removal leaves
  // the tenant fully intact.
  CompiledTenant removed = it->second;
  std::map<std::string, CompiledTenant> next = tenants_;
  next.erase(tenant_id);
  FleetApplyReport fleet = apply_fleet(next);
  if (!fleet.success)
    return Error("tenant remove rolled back: " + fleet.error);

  drop_grants(removed);
  tenants_.erase(tenant_id);
  free_tunnel_slots_.insert(removed.tunnel_index);
  (void)db_->retire_experiment(tenant_id);
  obs_removes_->inc();
  obs_active_->set(static_cast<std::int64_t>(tenants_.size()));
  return Status::Ok();
}

const CompiledTenant* TenantOrchestrator::tenant(const std::string& id) const {
  auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : &it->second;
}

std::vector<std::string> TenantOrchestrator::tenant_ids() const {
  std::vector<std::string> ids;
  for (const auto& [id, tenant] : tenants_) {
    (void)tenant;
    ids.push_back(id);
  }
  return ids;
}

std::string TenantOrchestrator::show_tenant(const std::string& id) const {
  const CompiledTenant* tenant = this->tenant(id);
  if (tenant == nullptr) return "tenant " + id + ": not found\n";

  std::ostringstream os;
  os << "tenant " << id << "\n";
  os << "  origin AS" << tenant->asn << ", fingerprint "
     << tenant->fingerprint << ", tunnel slot " << tenant->tunnel_index
     << "\n";
  os << "  announced prefixes:";
  for (const auto& prefix : tenant->prefixes) os << " " << prefix.str();
  os << "\n";
  os << "  knobs: prepend=" << tenant->intent.prepend
     << " communities=" << tenant->intent.communities.size()
     << " add-path=" << (tenant->intent.add_path ? "yes" : "no") << "\n";
  os << "  capabilities:";
  if (tenant->intent.capabilities.empty()) os << " (basic announcements)";
  for (auto cap : tenant->intent.capabilities)
    os << " " << enforce::capability_name(cap);
  os << "\n";
  os << "  active pops (" << tenant->pops.size() << "):\n";
  for (const auto& artifacts : tenant->pops) {
    os << "    " << artifacts.pop_id << ": "
       << artifacts.exportable_interconnects << " exportable interconnects, "
       << artifacts.network_delta.routes.size() << " mux routes\n";
  }
  if (!tenant->pops.empty()) {
    os << "  compiled export policy (" << tenant->pops.front().pop_id
       << "):\n";
    std::istringstream policy(tenant->pops.front().export_policy);
    std::string line;
    while (std::getline(policy, line)) os << "    " << line << "\n";
  }
  return os.str();
}

std::string TenantOrchestrator::show_summary() const {
  std::ostringstream os;
  os << "tenant control plane: " << tenants_.size() << " active across "
     << pops_.size() << " pops\n";
  os << "  lifecycle: onboards=" << obs_onboards_->value()
     << " failures=" << obs_onboard_failures_->value()
     << " amends=" << obs_amends_->value()
     << " removes=" << obs_removes_->value()
     << " fleet-rollbacks=" << obs_fleet_rollbacks_->value()
     << " rollback-failures=" << obs_fleet_rollback_failures_->value()
     << "\n";
  for (const auto& [id, tenant] : tenants_) {
    os << "  " << id << ": AS" << tenant.asn << ", "
       << tenant.prefixes.size() << " prefixes, " << tenant.pops.size()
       << " pops, fp " << tenant.fingerprint << "\n";
  }
  return os.str();
}

std::string TenantOrchestrator::fleet_state_fingerprint() const {
  // Canonical rendering of everything the orchestrator manages: per-PoP
  // netlink state plus each enforcer's grants. Deliberately NOT a hash —
  // mismatching fingerprints should diff usefully in test failures.
  std::ostringstream os;
  for (const auto& [pop_id, pop] : pops_) {
    os << "pop " << pop_id << "\n";
    for (const auto& nif : pop.netlink->interfaces()) {
      os << " if " << nif.name << (nif.up ? " up" : " down");
      for (const auto& addr : nif.addresses)
        os << " " << addr.address.str() << "/" << int(addr.prefix_length);
      os << "\n";
    }
    for (const auto& route : pop.netlink->routes())
      os << " route " << route.prefix.str() << " via " << route.gateway.str()
         << " dev " << route.interface << " table " << route.table << "\n";
    for (const auto& rule : pop.netlink->rules())
      os << " rule " << rule.priority << " " << rule.selector << " table "
         << rule.table << "\n";
    for (const auto& [grant_id, grant] : pop.enforcer->grants()) {
      os << " grant " << grant_id << " origins";
      for (auto asn : grant.allowed_origin_asns) os << " " << asn;
      os << " prefixes";
      for (const auto& prefix : grant.allocated_prefixes)
        os << " " << prefix.str();
      os << " caps";
      for (auto cap : grant.capabilities)
        os << " " << enforce::capability_name(cap);
      os << " budgets " << grant.max_poisoned_asns << "/"
         << grant.max_communities << "/" << grant.max_updates_per_day << "/"
         << grant.traffic_rate_bps << "\n";
    }
  }
  return os.str();
}

platform::NetlinkSim* TenantOrchestrator::netlink(const std::string& pop_id) {
  auto it = pops_.find(pop_id);
  return it == pops_.end() ? nullptr : it->second.netlink.get();
}

enforce::ControlPlaneEnforcer* TenantOrchestrator::enforcer(
    const std::string& pop_id) {
  auto it = pops_.find(pop_id);
  return it == pops_.end() ? nullptr : it->second.enforcer;
}

}  // namespace peering::tenant

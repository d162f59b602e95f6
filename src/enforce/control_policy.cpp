#include "enforce/control_policy.h"

#include <algorithm>

#include "netbase/log.h"

namespace peering::enforce {

const char* capability_name(Capability cap) {
  switch (cap) {
    case Capability::kAsPathPoisoning:
      return "as-path-poisoning";
    case Capability::kCommunities:
      return "communities";
    case Capability::kTransitiveAttrs:
      return "transitive-attrs";
    case Capability::kTransit:
      return "transit";
    case Capability::k6to4:
      return "6to4";
  }
  return "?";
}

Verdict PrefixOwnershipRule::evaluate(const AnnouncementContext& ctx,
                                      const ExperimentGrant& grant,
                                      StateStore&) const {
  if (grant.owns_prefix(ctx.prefix)) return Verdict::accept();
  // The 6to4 capability (the "recently required" one of §4.7) authorizes
  // announcing the 6to4 relay anycast prefix (RFC 3068) despite it being
  // outside the experiment's allocation.
  static const Ipv4Prefix k6to4Relay(Ipv4Address(192, 88, 99, 0), 24);
  if (grant.has(Capability::k6to4) && k6to4Relay.covers(ctx.prefix))
    return Verdict::accept();
  return Verdict::reject(name(), "prefix " + ctx.prefix.str() +
                                     " is outside the experiment allocation");
}

Verdict OriginAsnRule::evaluate(const AnnouncementContext& ctx,
                                const ExperimentGrant& grant,
                                StateStore&) const {
  if (ctx.is_withdraw) return Verdict::accept();
  bgp::Asn origin = ctx.attrs->as_path.origin_asn();
  if (origin == 0)
    return Verdict::reject(name(), "announcement carries no origin ASN");
  if (grant.allowed_origin(origin)) return Verdict::accept();
  return Verdict::reject(name(), "origin AS" + std::to_string(origin) +
                                     " not authorized for this experiment");
}

std::string UpdateRateLimitRule::counter_key(const std::string& experiment,
                                             const std::string& pop,
                                             const Ipv4Prefix& prefix,
                                             std::int64_t day) {
  return "updates:" + experiment + ":" + pop + ":" + prefix.str() + ":" +
         std::to_string(day);
}

Verdict UpdateRateLimitRule::evaluate(const AnnouncementContext& ctx,
                                      const ExperimentGrant& grant,
                                      StateStore& state) const {
  std::int64_t day = ctx.now.ns() / Duration::hours(24).ns();
  std::string key = counter_key(ctx.experiment_id, ctx.pop_id, ctx.prefix, day);
  std::int64_t count = state.add(key, 1);
  if (count <= grant.max_updates_per_day) return Verdict::accept();
  return Verdict::reject(
      name(), "update budget exhausted (" + std::to_string(count - 1) + "/" +
                  std::to_string(grant.max_updates_per_day) + " today)");
}

Verdict PoisoningRule::evaluate(const AnnouncementContext& ctx,
                                const ExperimentGrant& grant,
                                StateStore&) const {
  if (ctx.is_withdraw) return Verdict::accept();
  // Count ASNs in the path that are neither an authorized origin nor
  // repeats (prepending an authorized ASN is always allowed).
  int poisoned = 0;
  for (bgp::Asn asn : ctx.attrs->as_path.flatten()) {
    if (!grant.allowed_origin(asn)) ++poisoned;
  }
  if (poisoned == 0) return Verdict::accept();
  if (!grant.has(Capability::kAsPathPoisoning))
    return Verdict::reject(name(),
                           "path contains third-party ASNs but experiment "
                           "lacks the poisoning capability");
  if (poisoned > grant.max_poisoned_asns)
    return Verdict::reject(name(), "poisoned ASN count " +
                                       std::to_string(poisoned) +
                                       " exceeds budget " +
                                       std::to_string(grant.max_poisoned_asns));
  return Verdict::accept();
}

Verdict CommunityRule::evaluate(const AnnouncementContext& ctx,
                                const ExperimentGrant& grant,
                                StateStore&) const {
  if (ctx.is_withdraw) return Verdict::accept();
  std::vector<bgp::Community> user;
  for (bgp::Community c : ctx.attrs->communities)
    if (!is_control(c)) user.push_back(c);
  std::size_t large = ctx.attrs->large_communities.size();

  if (user.empty() && large == 0) return Verdict::accept();

  if (!grant.has(Capability::kCommunities)) {
    // Capability missing: strip user communities rather than rejecting the
    // whole announcement (this is what the paper's tests verify: "check
    // that communities are stripped from exported announcements when the
    // capability is missing").
    bgp::PathAttributes stripped = *ctx.attrs;
    stripped.communities.erase(
        std::remove_if(stripped.communities.begin(),
                       stripped.communities.end(),
                       [&](bgp::Community c) { return !is_control(c); }),
        stripped.communities.end());
    stripped.large_communities.clear();
    return Verdict::transform(name(), bgp::make_attrs(std::move(stripped)),
                              "communities stripped: capability not granted");
  }
  if (static_cast<int>(user.size() + large) > grant.max_communities)
    return Verdict::reject(
        name(), "community count " + std::to_string(user.size() + large) +
                    " exceeds budget " + std::to_string(grant.max_communities));
  return Verdict::accept();
}

Verdict TransitiveAttrRule::evaluate(const AnnouncementContext& ctx,
                                     const ExperimentGrant& grant,
                                     StateStore&) const {
  if (ctx.is_withdraw || ctx.attrs->unknown.empty()) return Verdict::accept();
  if (grant.has(Capability::kTransitiveAttrs)) return Verdict::accept();
  bgp::PathAttributes stripped = *ctx.attrs;
  stripped.unknown.clear();
  return Verdict::transform(
      name(), bgp::make_attrs(std::move(stripped)),
      "optional transitive attributes stripped: capability not granted");
}

ControlPlaneEnforcer::ControlPlaneEnforcer()
    : metrics_(obs::Registry::global()) {
  obs_accepted_ = metrics_->counter("enforce_verdicts_total",
                                    {{"action", "accept"}});
  obs_rejected_ = metrics_->counter("enforce_verdicts_total",
                                    {{"action", "reject"}});
  obs_transformed_ = metrics_->counter("enforce_verdicts_total",
                                       {{"action", "transform"}});
  obs_log_evicted_ = metrics_->counter("enforce_log_evicted_total");
}

void ControlPlaneEnforcer::install_default_rules(
    std::vector<std::uint16_t> control_asns) {
  add_rule(std::make_unique<PrefixOwnershipRule>());
  add_rule(std::make_unique<OriginAsnRule>());
  add_rule(std::make_unique<UpdateRateLimitRule>());
  add_rule(std::make_unique<PoisoningRule>());
  add_rule(std::make_unique<CommunityRule>(std::move(control_asns)));
  add_rule(std::make_unique<TransitiveAttrRule>());
}

void ControlPlaneEnforcer::set_grant(const ExperimentGrant& grant) {
  grants_[grant.experiment_id] = grant;
  if (tenant_counters_.count(grant.experiment_id)) return;
  // The registry's label-cardinality cap bounds these families when
  // thousands of tenants register: past the cap, new tenants collapse into
  // the shared {"overflow"="true"} series instead of growing the registry.
  TenantCounters counters;
  counters.accepted = metrics_->counter("tenant_announcements_accepted_total",
                                        {{"tenant", grant.experiment_id}});
  counters.dropped = metrics_->counter("tenant_enforcement_drops_total",
                                       {{"tenant", grant.experiment_id}});
  tenant_counters_[grant.experiment_id] = counters;
}

void ControlPlaneEnforcer::remove_grant(const std::string& experiment_id) {
  grants_.erase(experiment_id);
  tenant_counters_.erase(experiment_id);
}

const ExperimentGrant* ControlPlaneEnforcer::grant(
    const std::string& experiment_id) const {
  auto it = grants_.find(experiment_id);
  return it == grants_.end() ? nullptr : &it->second;
}

Verdict ControlPlaneEnforcer::check(const AnnouncementContext& ctx) {
  auto log_verdict = [&](const Verdict& v) {
    if (log_.push({ctx.now, ctx.experiment_id, ctx.pop_id, ctx.prefix.str(),
                   v.rule, v.reason, v.action}))
      obs_log_evicted_->inc();
    auto tenant = tenant_counters_.find(ctx.experiment_id);
    switch (v.action) {
      case Verdict::Action::kAccept:
        ++accepted_;
        obs_accepted_->inc();
        if (tenant != tenant_counters_.end()) tenant->second.accepted->inc();
        break;
      case Verdict::Action::kReject:
        ++rejected_;
        obs_rejected_->inc();
        if (tenant != tenant_counters_.end()) tenant->second.dropped->inc();
        metrics_->counter("enforce_rejects_total", {{"rule", v.rule}})->inc();
        metrics_->trace().emit(ctx.now, "enforce", "reject",
                               {{"experiment", ctx.experiment_id},
                                {"pop", ctx.pop_id},
                                {"prefix", ctx.prefix.str()},
                                {"rule", v.rule}});
        LOG_INFO("enforce", ctx.experiment_id << "@" << ctx.pop_id << " "
                                              << ctx.prefix.str()
                                              << " REJECT [" << v.rule
                                              << "]: " << v.reason);
        break;
      case Verdict::Action::kTransform:
        ++transformed_;
        obs_transformed_->inc();
        if (tenant != tenant_counters_.end()) tenant->second.accepted->inc();
        metrics_->counter("enforce_transforms_total", {{"rule", v.rule}})
            ->inc();
        metrics_->trace().emit(ctx.now, "enforce", "transform",
                               {{"experiment", ctx.experiment_id},
                                {"pop", ctx.pop_id},
                                {"prefix", ctx.prefix.str()},
                                {"rule", v.rule}});
        break;
    }
    return v;
  };

  if (overloaded_) {
    return log_verdict(
        Verdict::reject("fail-closed", "enforcement engine overloaded"));
  }
  const ExperimentGrant* grant = this->grant(ctx.experiment_id);
  if (!grant) {
    return log_verdict(
        Verdict::reject("unknown-experiment",
                        "no grant on file for " + ctx.experiment_id));
  }

  AnnouncementContext working = ctx;  // attrs is a pointer: no deep copy
  bool any_transform = false;
  std::string transform_rules;
  for (const auto& rule : rules_) {
    Verdict v = rule->evaluate(working, *grant, state_);
    if (v.action == Verdict::Action::kReject) return log_verdict(v);
    if (v.action == Verdict::Action::kTransform) {
      working.attrs = v.transformed;
      any_transform = true;
      if (!transform_rules.empty()) transform_rules += ",";
      transform_rules += v.rule;
    }
  }
  if (any_transform) {
    return log_verdict(Verdict::transform(transform_rules, working.attrs,
                                          "attributes adjusted by policy"));
  }
  return log_verdict(Verdict::accept());
}

}  // namespace peering::enforce

// Control-plane enforcement engine: the ExaBGP-with-Python-policy analogue
// (§3.3). Every announcement an experiment makes passes through an ordered
// rule chain before vBGP will propagate it toward real neighbors. Rules can
// accept, reject, or transform (e.g. strip communities the experiment has
// no capability for), are individually unit-testable, and log verdicts for
// attribution.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bgp/attributes.h"
#include "enforce/capabilities.h"
#include "enforce/state_store.h"
#include "netbase/prefix.h"
#include "netbase/time.h"
#include "obs/metrics.h"
#include "obs/ring.h"

namespace peering::enforce {

/// Everything a rule can inspect about one experiment announcement. The
/// attribute set is carried by AttrsPtr handle: the common all-accept path
/// flows through the whole chain without copying it.
struct AnnouncementContext {
  std::string experiment_id;
  std::string pop_id;
  Ipv4Prefix prefix;
  bgp::AttrsPtr attrs = bgp::make_attrs({});
  SimTime now;
  bool is_withdraw = false;
};

struct Verdict {
  enum class Action { kAccept, kReject, kTransform };
  Action action = Action::kAccept;
  /// Populated for kTransform: the attributes to propagate instead.
  bgp::AttrsPtr transformed;
  std::string rule;
  std::string reason;

  static Verdict accept() { return Verdict{}; }
  static Verdict reject(std::string rule, std::string reason) {
    Verdict v;
    v.action = Action::kReject;
    v.rule = std::move(rule);
    v.reason = std::move(reason);
    return v;
  }
  static Verdict transform(std::string rule, bgp::AttrsPtr attrs,
                           std::string reason) {
    Verdict v;
    v.action = Action::kTransform;
    v.transformed = std::move(attrs);
    v.rule = std::move(rule);
    v.reason = std::move(reason);
    return v;
  }
};

/// One enforcement rule. Rules run in order; a kReject verdict stops the
/// chain, a kTransform verdict rewrites the attributes seen by later rules.
class Rule {
 public:
  virtual ~Rule() = default;
  virtual std::string name() const = 0;
  virtual Verdict evaluate(const AnnouncementContext& ctx,
                           const ExperimentGrant& grant,
                           StateStore& state) const = 0;
};

/// Rejects announcements for address space outside the experiment's
/// allocation (prefix hijack prevention).
class PrefixOwnershipRule : public Rule {
 public:
  std::string name() const override { return "prefix-ownership"; }
  Verdict evaluate(const AnnouncementContext& ctx, const ExperimentGrant& grant,
                   StateStore& state) const override;
};

/// Rejects announcements originated from an ASN the experiment is not
/// authorized to use.
class OriginAsnRule : public Rule {
 public:
  std::string name() const override { return "origin-asn"; }
  Verdict evaluate(const AnnouncementContext& ctx, const ExperimentGrant& grant,
                   StateStore& state) const override;
};

/// Enforces the per-prefix / per-PoP daily update budget (default 144/day,
/// §4.7). Stateful: counters live in the StateStore, so they survive engine
/// restarts and can be synchronized AS-wide.
class UpdateRateLimitRule : public Rule {
 public:
  std::string name() const override { return "update-rate-limit"; }
  Verdict evaluate(const AnnouncementContext& ctx, const ExperimentGrant& grant,
                   StateStore& state) const override;

  static std::string counter_key(const std::string& experiment,
                                 const std::string& pop,
                                 const Ipv4Prefix& prefix, std::int64_t day);
};

/// Gate on AS-path poisoning: paths containing third-party ASNs require the
/// kAsPathPoisoning capability and respect the poisoned-ASN budget.
class PoisoningRule : public Rule {
 public:
  std::string name() const override { return "as-path-poisoning"; }
  Verdict evaluate(const AnnouncementContext& ctx, const ExperimentGrant& grant,
                   StateStore& state) const override;
};

/// Gate on communities: without kCommunities every (non-control) community
/// is stripped; with it, the count is limited.
class CommunityRule : public Rule {
 public:
  /// `control_asn_values` identifies PEERING's own announcement-control
  /// communities, which are always allowed (they are consumed by vBGP and
  /// never exported).
  explicit CommunityRule(std::vector<std::uint16_t> control_asns = {})
      : control_asns_(std::move(control_asns)) {}
  std::string name() const override { return "communities"; }
  Verdict evaluate(const AnnouncementContext& ctx, const ExperimentGrant& grant,
                   StateStore& state) const override;

 private:
  bool is_control(bgp::Community c) const {
    for (auto asn : control_asns_)
      if (c.asn() == asn) return true;
    return false;
  }
  std::vector<std::uint16_t> control_asns_;
};

/// Gate on unknown optional transitive attributes: stripped without the
/// kTransitiveAttrs capability.
class TransitiveAttrRule : public Rule {
 public:
  std::string name() const override { return "transitive-attrs"; }
  Verdict evaluate(const AnnouncementContext& ctx, const ExperimentGrant& grant,
                   StateStore& state) const override;
};

/// An attribution log entry (§3.3 requires logging for attribution).
struct EnforcementLogEntry {
  SimTime at;
  std::string experiment_id;
  std::string pop_id;
  std::string prefix;
  std::string rule;
  std::string reason;
  Verdict::Action action = Verdict::Action::kAccept;
};

/// The engine: an ordered rule chain with fail-closed overload behaviour.
class ControlPlaneEnforcer {
 public:
  /// The attribution log keeps the most recent verdicts, as many as the
  /// event trace keeps events, so a long-running mux's enforcer memory
  /// stays fixed; evictions count in `enforce_log_evicted_total`.
  static constexpr std::size_t kLogCapacity =
      obs::EventTrace::kDefaultCapacity;

  ControlPlaneEnforcer();

  /// Installs the platform's standard rule chain (ownership, origin, rate
  /// limit, poisoning, communities, transitive attrs).
  void install_default_rules(std::vector<std::uint16_t> control_asns);

  void add_rule(std::unique_ptr<Rule> rule) {
    rules_.push_back(std::move(rule));
  }

  /// Installs (or replaces) an experiment's grant. Also resolves the
  /// per-tenant verdict counters once, here on the cold path, so check()
  /// stays a cached-pointer bump per announcement.
  void set_grant(const ExperimentGrant& grant);
  /// Drops an experiment's grant (tenant removal). Later announcements from
  /// that experiment fail closed as unknown-experiment.
  void remove_grant(const std::string& experiment_id);
  const ExperimentGrant* grant(const std::string& experiment_id) const;
  const std::map<std::string, ExperimentGrant>& grants() const {
    return grants_;
  }

  /// Evaluates one announcement through the chain. Unknown experiments and
  /// overload both fail closed (kReject).
  Verdict check(const AnnouncementContext& ctx);

  /// Simulates engine overload: every announcement is rejected until
  /// cleared ("the enforcement engine would fail closed", §4.7).
  void set_overloaded(bool overloaded) { overloaded_ = overloaded; }
  bool overloaded() const { return overloaded_; }

  StateStore& state() { return state_; }
  /// Oldest first.
  const obs::Ring<EnforcementLogEntry>& log() const { return log_; }
  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t transformed() const { return transformed_; }

 private:
  struct TenantCounters {
    obs::Counter* accepted = nullptr;
    obs::Counter* dropped = nullptr;
  };

  std::vector<std::unique_ptr<Rule>> rules_;
  std::map<std::string, ExperimentGrant> grants_;
  std::map<std::string, TenantCounters> tenant_counters_;
  StateStore state_;
  obs::Ring<EnforcementLogEntry> log_{kLogCapacity};
  bool overloaded_ = false;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t transformed_ = 0;
  /// Telemetry: verdict totals by action are cached handles; per-rule
  /// reject/transform counters are resolved on demand (off the accept
  /// fast path) under the registry's label-cardinality cap.
  obs::Registry* metrics_;
  obs::Counter* obs_accepted_;
  obs::Counter* obs_rejected_;
  obs::Counter* obs_transformed_;
  obs::Counter* obs_log_evicted_;
};

}  // namespace peering::enforce

// Route policies: ordered match/action terms, the BIRD-filter-style
// mechanism PEERING uses for import/export processing at vBGP routers
// (§4.7: "we implement security policies in BIRD whenever possible").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/attributes.h"
#include "netbase/prefix.h"

namespace peering::bgp {

/// Conditions a term matches on. All present conditions must hold.
struct MatchSpec {
  /// Prefix filter: match if the route's prefix equals `prefix` or, when
  /// `or_longer`, is covered by it.
  std::optional<Ipv4Prefix> prefix;
  bool or_longer = true;

  /// Match if the route carries any of these communities.
  std::vector<Community> any_community;

  /// Match if the AS path contains this ASN.
  std::optional<Asn> as_path_contains;

  /// Match if the route's origin AS equals this ASN.
  std::optional<Asn> origin_asn;

  bool matches(const Ipv4Prefix& route_prefix,
               const PathAttributes& attrs) const;

  bool operator==(const MatchSpec&) const = default;
};

/// Transformations applied when a term matches.
struct PolicyActions {
  bool deny = false;
  std::optional<std::uint32_t> set_local_pref;
  std::optional<std::uint32_t> set_med;
  std::optional<Ipv4Address> set_next_hop;
  std::vector<Community> add_communities;
  std::vector<Community> remove_communities;
  bool strip_all_communities = false;
  /// Prepend `prepend_asn` this many times.
  std::size_t prepend_count = 0;
  Asn prepend_asn = 0;

  /// True when the actions carry no transformation at all (a pure
  /// accept/deny term) — the copy-on-write path skips the clone entirely.
  bool is_noop() const {
    return !set_local_pref && !set_med && !set_next_hop &&
           add_communities.empty() && remove_communities.empty() &&
           !strip_all_communities && prepend_count == 0;
  }

  void apply(PathAttributes& attrs) const;
  /// Copy-on-write variant: clones the builder's base only when the
  /// actions actually transform something.
  void apply(AttrBuilder& attrs) const {
    if (!is_noop()) apply(attrs.mutate());
  }

  bool operator==(const PolicyActions&) const = default;
};

struct PolicyTerm {
  std::string name;
  MatchSpec match;
  PolicyActions actions;
  /// When false, evaluation continues with the next term after applying
  /// this term's actions (accumulating transforms).
  bool final_term = true;

  bool operator==(const PolicyTerm&) const = default;
};

/// An ordered policy. A route is evaluated against terms in order; the
/// first matching final term decides. If no term matches, `default_accept`
/// decides.
class RoutePolicy {
 public:
  RoutePolicy() = default;

  /// A policy that accepts everything unchanged.
  static RoutePolicy accept_all() { return RoutePolicy(); }

  /// A policy that rejects everything.
  static RoutePolicy deny_all() {
    RoutePolicy p;
    p.default_accept_ = false;
    return p;
  }

  RoutePolicy& add_term(PolicyTerm term) {
    terms_.push_back(std::move(term));
    return *this;
  }

  /// Evaluates the policy against the builder's current view, accumulating
  /// transforms copy-on-write (an all-accept policy never clones). Returns
  /// false if the route is denied.
  bool apply(const Ipv4Prefix& prefix, AttrBuilder& attrs) const;

  /// Structural identity hash over terms and the default disposition.
  /// Two policies with equal content always produce the same fingerprint;
  /// the (rare) converse collision is disambiguated with `operator==` by
  /// callers that key on the fingerprint (export grouping).
  std::uint64_t fingerprint() const;

  /// True when no term matches on a prefix, i.e. the policy's outcome for
  /// a route depends only on its path attributes. Gates the per-group
  /// export transform memo.
  bool prefix_independent() const;

  bool operator==(const RoutePolicy&) const = default;

 private:
  std::vector<PolicyTerm> terms_;
  bool default_accept_ = true;
};

}  // namespace peering::bgp

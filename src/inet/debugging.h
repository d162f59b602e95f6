// Appendix A: debugging route propagation. PEERING announcements sometimes
// fail to reach parts of the Internet because some network's import or
// export filters are out of date; localizing the filter is manual work
// with looking glasses, and — as the appendix points out — even adjacent
// looking glasses cannot disambiguate "A did not export to B" from
// "B filtered the route from A". This module models exactly that problem:
//
//   * filtered route propagation: AsGraph::routes_to with a set of
//     blocked (exporter -> importer) edges;
//   * looking glasses: a restricted has-route/show-path view at a subset
//     of ASes;
//   * a debugger that, from looking-glass observations alone, produces the
//     candidate set of filtering edges (the paper's planned "automated
//     filter troubleshooting" future work).
#pragma once

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "inet/topology.h"

namespace peering::inet {

/// A looking glass: query interface limited to a subset of ASes ("they
/// only provide a restricted command line interface").
class LookingGlassSet {
 public:
  LookingGlassSet(const std::map<bgp::Asn, AsRoute>& ground_truth,
                  std::set<bgp::Asn> available)
      : routes_(&ground_truth), available_(std::move(available)) {}

  bool has_looking_glass(bgp::Asn asn) const {
    return available_.count(asn) > 0;
  }

  /// "show route": nullopt if no looking glass at `asn`; an invalid route
  /// if the AS has no route.
  std::optional<AsRoute> query(bgp::Asn asn) const {
    if (!has_looking_glass(asn)) return std::nullopt;
    auto it = routes_->find(asn);
    if (it == routes_->end()) return AsRoute{};
    return it->second;
  }

  const std::set<bgp::Asn>& available() const { return available_; }

 private:
  const std::map<bgp::Asn, AsRoute>* routes_;
  std::set<bgp::Asn> available_;
};

struct FilterDiagnosis {
  /// Edges (exporter, importer) where a looking glass shows the exporter
  /// holding the route and an adjacent looking glass shows the importer
  /// without one, even though propagation rules say it should have been
  /// passed. Each is a candidate filter; the pair cannot be split further
  /// from looking-glass data alone (Appendix A).
  std::vector<FilteredEdge> suspects;
  /// ASes without a route whose upstreams are all unobservable — the
  /// debugging dead ends that "usually require emailing our transit
  /// providers".
  std::vector<bgp::Asn> unexplained;
};

/// Localizes filters from looking-glass observations: for every adjacent
/// (exporter, importer) pair where export *should* happen under
/// Gao-Rexford rules, flag the edge if the exporter demonstrably has the
/// route and the importer demonstrably lacks one.
FilterDiagnosis locate_filters(const AsGraph& graph, bgp::Asn origin,
                               const LookingGlassSet& glasses);

}  // namespace peering::inet

#include "inet/debugging.h"

#include <algorithm>

namespace peering::inet {

FilterDiagnosis locate_filters(const AsGraph& graph, bgp::Asn origin,
                               const LookingGlassSet& glasses) {
  FilterDiagnosis diagnosis;

  // Gao-Rexford export rule: exporter e passes its route r to importer i
  // iff i is e's customer, or r is a customer route and i is e's provider
  // or peer.
  auto should_export = [&](bgp::Asn e, bgp::Asn i, const AsRoute& r) {
    const auto& customers = graph.customers(e);
    if (std::find(customers.begin(), customers.end(), i) != customers.end())
      return true;
    if (r.type != RouteType::kCustomer) return false;
    const auto& providers = graph.providers(e);
    if (std::find(providers.begin(), providers.end(), i) != providers.end())
      return true;
    const auto& peers = graph.peers(e);
    return std::find(peers.begin(), peers.end(), i) != peers.end();
  };

  auto neighbors_of = [&](bgp::Asn asn) {
    std::vector<bgp::Asn> out;
    for (bgp::Asn x : graph.providers(asn)) out.push_back(x);
    for (bgp::Asn x : graph.customers(asn)) out.push_back(x);
    for (bgp::Asn x : graph.peers(asn)) out.push_back(x);
    return out;
  };

  // The route each AS *would* select absent any filtering tells us who its
  // expected feeder is.
  auto expected = graph.routes_to(origin);

  for (bgp::Asn asn : glasses.available()) {
    auto view = glasses.query(asn);
    if (!view || view->valid()) continue;  // has a route: nothing to explain
    if (asn == origin) continue;

    bool found_suspect = false;
    for (bgp::Asn nb : neighbors_of(asn)) {
      auto nb_view = glasses.query(nb);
      if (!nb_view || !nb_view->valid()) continue;
      if (should_export(nb, asn, *nb_view)) {
        // nb demonstrably has the route and should have exported it here:
        // the (nb -> asn) adjacency hides a filter — on one side or the
        // other, which looking glasses cannot tell apart (Appendix A).
        diagnosis.suspects.push_back({nb, asn});
        found_suspect = true;
      }
    }
    if (found_suspect) continue;

    // No observable neighbor holds the route. If the AS's expected feeder
    // is observable and routeless, the gap is explained (the feeder's own
    // problem); if the feeder is dark, we hit the appendix's dead end.
    auto exp_it = expected.find(asn);
    if (exp_it == expected.end() || exp_it->second.path.empty()) continue;
    bgp::Asn feeder = exp_it->second.path.front();
    auto feeder_view = glasses.query(feeder);
    if (!feeder_view) diagnosis.unexplained.push_back(asn);
  }
  return diagnosis;
}

}  // namespace peering::inet

// Appendix A: debugging route propagation. A PEERING announcement is not
// globally reachable because some network's filters are out of date. The
// operators' workflow, reproduced:
//
//   1. notice the symptom: a region of the synthetic Internet never sees
//      the experiment prefix;
//   2. query looking glasses (restricted per-AS views) to bisect where the
//      route stops propagating;
//   3. get a candidate *adjacency* — looking glasses fundamentally cannot
//      distinguish "A did not export to B" from "B filtered the route
//      from A" (the ambiguity the appendix describes);
//   4. observe the dead end when the relevant ASes have no looking glass
//      ("debugging usually requires emailing our transit providers").
//
// Run: ./build/examples/debug_propagation
#include <cstdio>

#include "inet/debugging.h"

using namespace peering;
using inet::AsGraph;
using inet::FilteredEdge;
using inet::LookingGlassSet;

namespace {

std::string path_str(const std::vector<bgp::Asn>& path) {
  std::string out;
  for (bgp::Asn asn : path) {
    if (!out.empty()) out += " ";
    out += std::to_string(asn);
  }
  return out.empty() ? "(local)" : out;
}

}  // namespace

int main() {
  std::printf("== Debugging route propagation (Appendix A) ==\n\n");

  // A small Internet: PEERING (47065) buys transit from 3000 and 3001;
  // the rest of the world hangs off two tier-1s.
  AsGraph g;
  constexpr bgp::Asn kPeering = 47065;
  constexpr bgp::Asn kT1 = 100, kT2 = 101;  // tier-1 clique
  g.add_peering(kT1, kT2);
  g.add_provider(kPeering, 3000);
  g.add_provider(kPeering, 3001);
  g.add_provider(3000, kT1);
  g.add_provider(3001, kT2);
  // A distant region: regional transit 5000 under kT2, stubs 6001..6003.
  g.add_provider(5000, kT2);
  for (bgp::Asn stub : std::vector<bgp::Asn>{6001, 6002, 6003}) g.add_provider(stub, 5000);

  // Ground truth (unknown to the operators): AS5000's import filter was
  // never updated for PEERING's newest allocation, so routes from its
  // provider kT2 are dropped.
  std::set<FilteredEdge> hidden_reality{{kT2, 5000}};
  auto routes = g.routes_to(kPeering, hidden_reality);

  std::printf("[symptom] reachability of the experiment prefix:\n");
  for (bgp::Asn asn : std::vector<bgp::Asn>{3000, 3001, kT1, kT2, 5000, 6001, 6002, 6003}) {
    auto it = routes.find(asn);
    std::printf("  AS%-6u %s\n", asn,
                it == routes.end() ? "NO ROUTE"
                                   : ("via [" + path_str(it->second.path) + "]").c_str());
  }

  // Operators only have looking glasses at some networks.
  std::printf("\n[step 1] looking glasses available at: 3000, 3001, %u, %u, "
              "5000, 6001\n", kT1, kT2);
  LookingGlassSet glasses(routes, {3000, 3001, kT1, kT2, 5000, 6001});

  auto diagnosis = inet::locate_filters(g, kPeering, glasses);
  std::printf("\n[step 2] automated filter localization:\n");
  for (const auto& [exporter, importer] : diagnosis.suspects) {
    std::printf("  suspect adjacency: AS%u -> AS%u\n", exporter, importer);
    std::printf("    (cannot disambiguate: AS%u not exporting vs AS%u "
                "filtering on import)\n", exporter, importer);
  }
  for (bgp::Asn asn : diagnosis.unexplained) {
    std::printf("  unexplained: AS%u has no route and no observable "
                "upstream -> email the transit provider\n", asn);
  }

  // With fewer looking glasses, the trail goes cold.
  std::printf("\n[step 3] same hunt with looking glasses only at 6001 and "
              "6002:\n");
  LookingGlassSet sparse(routes, {6001, 6002});
  auto cold = inet::locate_filters(g, kPeering, sparse);
  std::printf("  suspects found: %zu, unexplained: %zu\n",
              cold.suspects.size(), cold.unexplained.size());
  for (bgp::Asn asn : cold.unexplained)
    std::printf("  AS%u: dead end (its feeder AS5000 has no looking "
                "glass)\n", asn);

  // Fix the filter and verify convergence.
  std::printf("\n[step 4] AS5000 updates its filter; re-checking:\n");
  auto fixed = g.routes_to(kPeering);
  bool all_reachable = true;
  for (bgp::Asn asn : std::vector<bgp::Asn>{5000, 6001, 6002, 6003})
    if (!fixed.count(asn)) all_reachable = false;
  std::printf("  region reachable: %s\n", all_reachable ? "yes" : "NO");

  std::printf("\ndone.\n");
  return 0;
}

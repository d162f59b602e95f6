#include "faults/invariants.h"

#include <algorithm>
#include <sstream>

#include "netbase/rand.h"
#include "vbgp/communities.h"
#include "vbgp/neighbor_registry.h"

namespace peering::faults {

namespace {

const Ipv4Prefix kLocalPool(vbgp::kLocalPoolBase, 16);
const Ipv4Prefix kGlobalPool(vbgp::kGlobalPoolBase, 16);

std::string series_key(const obs::SeriesData& series) {
  std::string key = series.name;
  for (const auto& [k, v] : series.labels) {
    key += '\x1f';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

}  // namespace

void InvariantReport::merge(const InvariantReport& other) {
  checks += other.checks;
  violations.insert(violations.end(), other.violations.begin(),
                    other.violations.end());
}

std::string InvariantReport::str() const {
  std::ostringstream out;
  out << checks << " checks, " << violations.size() << " violations";
  for (const std::string& v : violations) out << "\n  " << v;
  return out.str();
}

InvariantChecker::InvariantChecker(sim::EventLoop* loop)
    : loop_(loop), metrics_(obs::Registry::global()) {}

void InvariantChecker::add_router(vbgp::VRouter* router) {
  routers_.push_back(router);
}

void InvariantChecker::add_experiment(const std::string& name,
                                      bgp::BgpSpeaker* speaker,
                                      bgp::PeerId peer,
                                      vbgp::VRouter* attached) {
  experiments_.push_back(Experiment{name, speaker, peer, attached});
}

void InvariantChecker::set_enforcer(
    const enforce::ControlPlaneEnforcer* enforcer) {
  enforcer_ = enforcer;
}

InvariantReport InvariantChecker::check_fib_liveness() {
  InvariantReport report;
  for (vbgp::VRouter* router : routers_) {
    const std::string& rname = router->config().name;
    const bgp::BgpSpeaker& speaker = router->speaker();

    for (vbgp::VirtualNeighbor* nb : router->registry().all()) {
      const bool established =
          speaker.session_state(nb->peer) == bgp::SessionState::kEstablished;
      ++report.checks;
      if (!established && !nb->fib.empty()) {
        report.violations.push_back(
            rname + ": neighbor " + nb->name + " is down but its FIB holds " +
            std::to_string(nb->fib.size()) + " routes");
      }
      nb->fib.visit([&](const ip::Route& route) {
        ++report.checks;
        if (route.interface != nb->interface) {
          report.violations.push_back(
              rname + ": neighbor " + nb->name + " FIB route " +
              route.prefix.str() + " egresses via interface " +
              std::to_string(route.interface) + ", expected " +
              std::to_string(nb->interface));
        }
      });
    }

    // Loc-RIB sweep: every candidate must come from a live session, and
    // every virtual-pool next-hop must resolve to a registered neighbor.
    const bgp::Asn asn = router->config().asn;
    speaker.loc_rib().visit_all([&](const bgp::RibRoute& route) {
      ++report.checks;
      if (route.peer != bgp::kLocalRoutes &&
          speaker.session_state(route.peer) !=
              bgp::SessionState::kEstablished) {
        report.violations.push_back(
            rname + ": Loc-RIB candidate " + route.prefix.str() +
            " from down session peer=" + std::to_string(route.peer));
      }
      if (route.peer == bgp::kLocalRoutes) return;
      if (vbgp::has_experiment_marker(*route.attrs, asn)) return;
      if (router->is_experiment_peer(route.peer)) return;
      const Ipv4Address nh = route.attrs->next_hop;
      if (kLocalPool.contains(nh)) {
        if (router->registry().by_virtual_ip(nh) == nullptr) {
          report.violations.push_back(
              rname + ": Loc-RIB route " + route.prefix.str() +
              " has unregistered local virtual next-hop " + nh.str());
        }
      } else if (kGlobalPool.contains(nh)) {
        if (router->registry().local_by_global_ip(nh) == nullptr &&
            router->registry().remote_by_global_ip(nh) == nullptr) {
          report.violations.push_back(
              rname + ": Loc-RIB route " + route.prefix.str() +
              " has unregistered global-pool next-hop " + nh.str());
        }
      }
    });
  }
  return report;
}

InvariantReport InvariantChecker::check_addpath_fanout() {
  InvariantReport report;
  for (const Experiment& exp : experiments_) {
    // A re-establishing session legitimately lags the router; only a
    // converged, established session must show the full fan-out.
    if (exp.speaker->session_state(exp.peer) !=
        bgp::SessionState::kEstablished)
      continue;
    vbgp::VRouter* router = exp.attached;
    const bgp::Asn asn = router->config().asn;

    // Exportable candidates per prefix at the router: everything except
    // experiment-originated routes (isolation strips those from the fan-out).
    std::map<Ipv4Prefix, std::uint64_t> exportable;
    router->speaker().loc_rib().visit_all([&](const bgp::RibRoute& route) {
      if (vbgp::has_experiment_marker(*route.attrs, asn)) return;
      if (router->is_experiment_peer(route.peer)) return;
      ++exportable[route.prefix];
    });

    // Received candidates per prefix at the experiment (its own
    // originations are locally sourced, not received).
    std::map<Ipv4Prefix, std::uint64_t> received;
    exp.speaker->loc_rib().visit_all([&](const bgp::RibRoute& route) {
      if (route.peer == bgp::kLocalRoutes) return;
      ++received[route.prefix];
    });

    for (const auto& [prefix, want] : exportable) {
      ++report.checks;
      auto it = received.find(prefix);
      const std::uint64_t got = it == received.end() ? 0 : it->second;
      if (got != want) {
        report.violations.push_back(
            "experiment " + exp.name + ": ADD-PATH fan-out for " +
            prefix.str() + " is " + std::to_string(got) + " paths, router " +
            router->config().name + " has " + std::to_string(want) +
            " exportable candidates");
      }
    }
    for (const auto& [prefix, got] : received) {
      ++report.checks;
      if (exportable.find(prefix) == exportable.end()) {
        report.violations.push_back(
            "experiment " + exp.name + ": holds " + std::to_string(got) +
            " paths for " + prefix.str() + " absent from router " +
            router->config().name + " Loc-RIB (stale fan-out)");
      }
    }
  }
  return report;
}

InvariantReport InvariantChecker::check_monotonic_counters() {
  InvariantReport report;
  obs::Snapshot snap = metrics_->snapshot(loop_->now());
  for (const obs::SeriesData& series : snap.series) {
    if (series.kind != obs::SeriesData::Kind::kCounter) continue;
    ++report.checks;
    const std::string key = series_key(series);
    auto it = counter_baseline_.find(key);
    if (it != counter_baseline_.end() && series.value < it->second) {
      report.violations.push_back("counter " + series.name + " went from " +
                                  std::to_string(it->second) + " to " +
                                  std::to_string(series.value));
    }
    counter_baseline_[key] = series.value;
  }
  if (enforcer_ != nullptr) {
    report.checks += 3;
    if (enforcer_->accepted() < enforcer_accepted_ ||
        enforcer_->rejected() < enforcer_rejected_ ||
        enforcer_->transformed() < enforcer_transformed_) {
      report.violations.push_back("enforcement verdict counters regressed");
    }
    enforcer_accepted_ = enforcer_->accepted();
    enforcer_rejected_ = enforcer_->rejected();
    enforcer_transformed_ = enforcer_->transformed();
  }
  return report;
}

InvariantReport InvariantChecker::check_all() {
  InvariantReport report = check_fib_liveness();
  report.merge(check_addpath_fanout());
  report.merge(check_monotonic_counters());
  metrics_->trace().emit(
      loop_->now(), "faults", "invariant_check",
      {{"checks", std::to_string(report.checks)},
       {"violations", std::to_string(report.violations.size())}});
  return report;
}

void InvariantChecker::diff_lpm(const ip::FibView& got,
                                const ip::FibView& want, std::uint64_t seed,
                                int random_probes, const std::string& label,
                                InvariantReport& report) {
  std::vector<Ipv4Address> probes;
  const auto collect = [&probes](const ip::Route& route) {
    probes.push_back(route.prefix.address());
    // One address deeper inside the prefix exercises non-exact matches.
    const std::uint32_t span = route.prefix.length() >= 32
                                   ? 0
                                   : (~route.prefix.mask()) >> 1;
    probes.push_back(Ipv4Address(route.prefix.address().value() + span));
  };
  got.visit(collect);
  want.visit(collect);
  Rng rng(seed);
  for (int i = 0; i < random_probes; ++i) {
    // Same mask mix as tests/fib_set_test.cpp: half the probes cluster so
    // they actually hit installed prefixes.
    const std::uint32_t mask =
        rng.chance(0.5) ? 0x0a0fffffu : 0xffffffffu;
    probes.push_back(Ipv4Address(static_cast<std::uint32_t>(rng.next()) & mask));
  }

  for (const Ipv4Address probe : probes) {
    ++report.checks;
    const auto got_route = got.lookup(probe);
    const auto want_route = want.lookup(probe);
    if (got_route.has_value() != want_route.has_value() ||
        (got_route.has_value() && !(*got_route == *want_route))) {
      report.violations.push_back(
          label + ": LPM(" + probe.str() + ") = " +
          (got_route ? got_route->prefix.str() + " via " +
                           got_route->next_hop.str()
                     : "miss") +
          ", reference = " +
          (want_route ? want_route->prefix.str() + " via " +
                            want_route->next_hop.str()
                      : "miss"));
    }
  }
}

namespace {

/// Canonical one-line rendering of a Loc-RIB entry: everything best-path
/// selection and export can see, so two tables with equal line sets are
/// operationally identical.
// Renders everything that constitutes routing state. Deliberately excludes
// `path_id`: RFC 7911 path identifiers only discriminate concurrent paths
// on one session and are reallocated on re-announce, so two worlds with
// identical routing state legitimately disagree on them after churn.
std::string rib_line(const bgp::RibRoute& route) {
  std::string line = route.prefix.str();
  line += '|';
  line += std::to_string(route.peer);
  line += '|';
  for (bgp::Asn asn : route.attrs->as_path.flatten()) {
    line += std::to_string(asn);
    line += ' ';
  }
  line += '|';
  line += route.attrs->next_hop.str();
  line += '|';
  line += route.attrs->med ? std::to_string(*route.attrs->med) : "-";
  line += '|';
  line += route.attrs->local_pref ? std::to_string(*route.attrs->local_pref)
                                  : "-";
  line += '|';
  for (bgp::Community c : route.attrs->communities) {
    line += c.str();
    line += ' ';
  }
  return line;
}

}  // namespace

void InvariantChecker::diff_locrib(const bgp::BgpSpeaker& got,
                                   const bgp::BgpSpeaker& want,
                                   const std::string& label,
                                   InvariantReport& report) {
  constexpr std::size_t kMaxReported = 8;
  std::vector<std::string> got_lines, want_lines;
  const auto collect = [](std::vector<std::string>& lines,
                          const std::string& section) {
    return [&lines, &section](const bgp::RibRoute& route) {
      lines.push_back(section + rib_line(route));
    };
  };
  // rib_line omits path ids, so candidates under one prefix may be visited
  // in a different order on each side; prefixing the section tag and
  // sorting compares each section as a multiset while keeping all-paths
  // and best-paths entries from alibiing each other.
  const std::string all_tag = "all|", best_tag = "best|";
  got.loc_rib().visit_all(collect(got_lines, all_tag));
  want.loc_rib().visit_all(collect(want_lines, all_tag));
  got.loc_rib().visit_best(collect(got_lines, best_tag));
  want.loc_rib().visit_best(collect(want_lines, best_tag));

  report.checks += std::max(got_lines.size(), want_lines.size());
  if (got_lines == want_lines) return;

  std::sort(got_lines.begin(), got_lines.end());
  std::sort(want_lines.begin(), want_lines.end());
  if (got_lines == want_lines) return;

  std::size_t reported = 0;
  std::size_t i = 0, j = 0;
  while ((i < got_lines.size() || j < want_lines.size()) &&
         reported < kMaxReported) {
    const std::string* g = i < got_lines.size() ? &got_lines[i] : nullptr;
    const std::string* w = j < want_lines.size() ? &want_lines[j] : nullptr;
    if (g != nullptr && w != nullptr && *g == *w) {
      ++i;
      ++j;
      continue;
    }
    if (w == nullptr || (g != nullptr && *g < *w)) {
      report.violations.push_back(label + ": unexpected route " + *g);
      ++i;
    } else {
      report.violations.push_back(label + ": missing route " + *w);
      ++j;
    }
    ++reported;
  }
  if (reported == kMaxReported)
    report.violations.push_back(label + ": further Loc-RIB differences elided");
}

}  // namespace peering::faults

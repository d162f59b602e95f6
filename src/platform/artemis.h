// ARTEMIS-style prefix-hijack detection (Sermpezis et al., ToN'18 — §7.1:
// "assessing a technique to identify and neutralize BGP prefix hijacking"
// was evaluated on PEERING). The detector consumes route-collector feeds
// and flags announcements of the operator's own space with an unexpected
// origin (exact-prefix MOAS) or an unexpected more-specific (sub-prefix
// hijack), within seconds of the offending update reaching a collector.
// It reads the collector's monitor session: the post-policy
// route-monitoring records, one per route-set change at the collector.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "platform/collector.h"

namespace peering::platform {

enum class HijackType : std::uint8_t {
  /// Same prefix, different origin AS (MOAS conflict).
  kExactMoas,
  /// A more-specific of an owned prefix from an unexpected origin.
  kSubPrefix,
};

struct HijackAlert {
  SimTime at;
  Ipv4Prefix announced;
  Ipv4Prefix owned;  // the configured prefix the announcement conflicts with
  bgp::Asn offending_origin = 0;
  std::string feed;
  HijackType type = HijackType::kExactMoas;
};

class HijackDetector {
 public:
  /// `owned` is the operator's configured address space; `legitimate` the
  /// origins allowed to announce it (ARTEMIS's ground-truth config).
  HijackDetector(std::vector<Ipv4Prefix> owned, std::set<bgp::Asn> legitimate)
      : owned_(std::move(owned)), legitimate_(std::move(legitimate)) {}

  /// Processes one route-monitoring record delivered by feed `feed`;
  /// appends an alert if it conflicts.
  void observe(const mon::MonitorRecord& record, const std::string& feed);

  /// Catches up on the post-policy route-monitoring records a collector
  /// archived since the last poll.
  void poll(const RouteCollector& collector);

  const std::vector<HijackAlert>& alerts() const { return alerts_; }

  /// ARTEMIS mitigation step 1: the more-specifics the victim should
  /// announce to out-prefix the hijacker (two halves of each affected
  /// owned /24-or-shorter prefix).
  std::vector<Ipv4Prefix> mitigation_prefixes(const HijackAlert& alert) const;

 private:
  std::vector<Ipv4Prefix> owned_;
  std::set<bgp::Asn> legitimate_;
  std::vector<HijackAlert> alerts_;
  std::size_t poll_index_ = 0;
};

}  // namespace peering::platform

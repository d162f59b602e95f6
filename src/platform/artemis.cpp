#include "platform/artemis.h"

namespace peering::platform {

void HijackDetector::observe(const mon::MonitorRecord& record,
                             const std::string& feed) {
  if (record.withdrawn || record.attrs == nullptr) return;
  bgp::Asn origin = record.attrs->as_path.origin_asn();
  if (legitimate_.count(origin)) return;

  for (const auto& owned : owned_) {
    if (record.prefix == owned) {
      alerts_.push_back({record.at, record.prefix, owned, origin, feed,
                         HijackType::kExactMoas});
      return;
    }
    if (owned.covers(record.prefix)) {
      alerts_.push_back({record.at, record.prefix, owned, origin, feed,
                         HijackType::kSubPrefix});
      return;
    }
  }
}

void HijackDetector::poll(const RouteCollector& collector) {
  const mon::MonitorSession& archive = collector.archive();
  const auto& records = archive.records();
  for (; poll_index_ < records.size(); ++poll_index_) {
    const mon::MonitorRecord& record = records[poll_index_];
    if (record.type == mon::RecordType::kRouteMonitoring &&
        record.post_policy)
      observe(record, archive.peer_name(record.peer));
  }
}

std::vector<Ipv4Prefix> HijackDetector::mitigation_prefixes(
    const HijackAlert& alert) const {
  std::vector<Ipv4Prefix> out;
  // Announce the two halves of the affected prefix: strictly more specific
  // than anything the hijacker announced at the same length, so LPM pulls
  // traffic back to the victim.
  std::uint8_t length = alert.announced.length();
  if (length >= 31) return out;  // cannot deaggregate further
  std::uint8_t half = static_cast<std::uint8_t>(length + 1);
  std::uint32_t base = alert.announced.address().value();
  out.push_back(Ipv4Prefix(Ipv4Address(base), half));
  out.push_back(Ipv4Prefix(Ipv4Address(base + (1u << (32 - half))), half));
  return out;
}

}  // namespace peering::platform

#include "platform/collector.h"

namespace peering::platform {

RouteCollector::RouteCollector(sim::EventLoop* loop, std::string name,
                               bgp::Asn asn, Ipv4Address router_id)
    : speaker_(loop, std::move(name), asn, router_id),
      archive_(loop, &speaker_) {}

bgp::PeerId RouteCollector::add_feed(const std::string& feed_name,
                                     bgp::Asn feed_asn) {
  bgp::PeerConfig config;
  config.name = feed_name;
  config.peer_asn = feed_asn;
  config.export_policy = bgp::RoutePolicy::deny_all();  // strictly passive
  return speaker_.add_peer(config);
}

std::vector<bgp::AsPath> RouteCollector::visible_paths(
    const Ipv4Prefix& prefix) const {
  std::vector<bgp::AsPath> out;
  for (const auto& route : speaker_.loc_rib().candidates(prefix))
    out.push_back(route.attrs->as_path);
  return out;
}

std::vector<mon::MonitorRecord> RouteCollector::history(
    const Ipv4Prefix& prefix) const {
  std::vector<mon::MonitorRecord> out;
  for (const auto& record : archive_.records())
    if (record.type == mon::RecordType::kRouteMonitoring &&
        record.post_policy && record.prefix == prefix)
      out.push_back(record);
  return out;
}

}  // namespace peering::platform

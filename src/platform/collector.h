// A passive BGP route collector in the style of RouteViews / RIPE RIS
// (§8: the measurement tools PEERING complements). Experiments use
// collectors to *observe* how their announcements propagate — which is
// exactly how studies on the real platform validate visibility. The
// collector accepts every route and never exports anything.
//
// Its archive is the mon::MonitorSession attached to its speaker: peer-up
// and peer-down edges, pre-policy records as feeds deliver them, and one
// post-policy record per route-set change (the update/withdrawal timeline
// an MRT dump carries). The session's bound applies: past it new records
// are dropped and counted in `mon_records_dropped_total{speaker}`, while
// the Loc-RIB stays complete.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bgp/speaker.h"
#include "mon/monitor.h"

namespace peering::platform {

class RouteCollector {
 public:
  RouteCollector(sim::EventLoop* loop, std::string name, bgp::Asn asn,
                 Ipv4Address router_id);

  bgp::BgpSpeaker& speaker() { return speaker_; }

  /// Registers a feed session (the collector never announces back). The
  /// feed name is the peer's PeerConfig::name.
  bgp::PeerId add_feed(const std::string& feed_name, bgp::Asn feed_asn);

  void connect(bgp::PeerId feed, std::shared_ptr<sim::StreamEndpoint> stream) {
    speaker_.connect_peer(feed, stream);
  }

  /// The archive, in arrival order (an MRT dump, morally).
  const mon::MonitorSession& archive() const { return archive_; }

  /// Current visibility of a prefix: the AS paths present across feeds.
  std::vector<bgp::AsPath> visible_paths(const Ipv4Prefix& prefix) const;

  /// Post-policy route-monitoring records touching `prefix`, oldest first
  /// (a BGPlay-style event timeline).
  std::vector<mon::MonitorRecord> history(const Ipv4Prefix& prefix) const;

 private:
  bgp::BgpSpeaker speaker_;
  /// Declared after speaker_, so it detaches before the speaker dies.
  mon::MonitorSession archive_;
};

}  // namespace peering::platform

// The declarative tenant intent (ISSUE 9, §5 of the paper): everything an
// experiment asks of the platform — address space, announcement scope per
// PoP and peer class, policy knobs (prepend/communities), ADD-PATH needs,
// and capability grants — in one document. The intent never names concrete
// artifacts (tap devices, netlink routes, filter text); the IntentCompiler
// lowers it into those, and the TenantOrchestrator applies the result
// transactionally across the fleet. Intents are value types: equal intents
// compile to byte-identical artifacts, which is what makes amends diffable
// and fleet state reproducible.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "bgp/types.h"
#include "enforce/capabilities.h"
#include "netbase/prefix.h"
#include "netbase/result.h"
#include "platform/configdb.h"
#include "platform/model.h"

namespace peering::tenant {

/// 64-bit FNV-1a of `s`, continuing from `h` (start from kFnv1aOffset):
/// the hash behind intent and compiled-tenant fingerprints.
constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;
std::uint64_t fnv1a(std::uint64_t h, const std::string& s);

/// Announcement scope at one PoP: which classes of interconnect the
/// tenant's routes may be exported to there. An empty class set means
/// every class at that PoP.
struct PopScope {
  std::string pop_id;
  std::set<platform::InterconnectType> peer_classes;

  bool allows(platform::InterconnectType type) const {
    return peer_classes.empty() || peer_classes.count(type) > 0;
  }
};

/// One experiment-as-tenant, declaratively. Everything here is reviewable
/// intent; nothing is a platform artifact.
struct TenantIntent {
  std::string id;
  std::string description;
  std::string contact;

  /// Address space: either a pool request (allocated at approval) or an
  /// explicit admin assignment (controlled hijacks of platform space).
  int prefix_count = 1;
  std::vector<Ipv4Prefix> explicit_prefixes;

  /// Announcement scope. Empty = every PoP, every peer class.
  std::vector<PopScope> scopes;

  /// Policy knobs applied to every exported announcement.
  int prepend = 0;
  std::vector<bgp::Community> communities;

  /// Session shape: experiments normally take the full ADD-PATH fan-out.
  bool add_path = true;

  /// Capability grants (trimmed or expanded by the reviewer).
  std::set<enforce::Capability> capabilities;
  int max_poisoned_asns = 0;
  int max_communities = 0;
  int max_updates_per_day = 144;
  std::uint64_t traffic_rate_bps = 0;

  /// Structural validation against the platform model: non-empty id, a
  /// positive allocation request, known PoPs in every scope, and knobs
  /// consistent with the requested capabilities.
  Status validate(const platform::PlatformModel& model) const;

  /// The PoPs this tenant is provisioned at, ascending. Empty scopes
  /// resolve to every PoP in the model.
  std::vector<std::string> resolve_pops(
      const platform::PlatformModel& model) const;

  /// Scope entry for a PoP; nullptr when the intent has explicit scopes
  /// and none of them names `pop_id`.
  const PopScope* scope_for(const std::string& pop_id) const;

  /// The web-form proposal this intent files with the config database.
  platform::ExperimentProposal to_proposal() const;

  /// Stable content fingerprint (FNV-1a over a canonical rendering).
  /// Equal intents — regardless of scope ordering — share a fingerprint.
  std::string fingerprint() const;
};

}  // namespace peering::tenant

// BGP advertisement transformation of the reference SPVP model (spvp.cpp):
// export filter at the sender, AS-path bookkeeping, loop rejection and import
// filter at the receiver — the extended-SPVP abstractions of Appendix A/B.
// The RPVP adapter (bgp.cpp) keeps its own copy of the transformation over
// interned routes and shares only bgp_rank() below, so the SPVP oracle checks
// the explorer's BGP semantics with code of its own;
// tests/test_spvp_reference.cpp cross-checks the two transformations.
#pragma once

#include <optional>

#include "config/network.hpp"
#include "protocols/process.hpp"

namespace plankton {

/// A route value before interning (the SPVP model passes these in messages).
struct BgpAdvert {
  std::vector<NodeId> path;  ///< next hop first, origin last
  std::uint32_t local_pref = 100;
  std::uint16_t as_path_len = 0;
  CommunityBits communities = 0;
  bool learned_ibgp = false;
  NodeId egress = kNoNode;
  std::uint32_t metric = 0;

  friend bool operator==(const BgpAdvert&, const BgpAdvert&) = default;
};

/// importₙ,ₚ(exportₚ,ₙ(route held by p)) over plain values. `holder_path`
/// is p's current path (next hop first). Returns nullopt when either filter
/// rejects, the path would loop through n, or an iBGP next hop is
/// unresolvable. `upstream` supplies IGP costs for iBGP metrics (may be
/// null, meaning cost 0 / sessions assumed up).
std::optional<BgpAdvert> bgp_transform(const Network& net, const Prefix& prefix,
                                       NodeId p, NodeId n, const BgpAdvert& held,
                                       const UpstreamResolver* upstream);

/// The BGP decision process as a comparable tuple (bigger = preferred):
/// local-pref desc, AS-path length asc, eBGP over iBGP, IGP metric asc.
struct BgpRank {
  std::int64_t local_pref = -1;
  std::int64_t neg_as_len = 0;
  std::int64_t ebgp = 0;  ///< 1 = learned over eBGP
  std::int64_t neg_metric = 0;
  friend auto operator<=>(const BgpRank&, const BgpRank&) = default;
};

/// Ranks a BgpAdvert (the SPVP model) or an interned Route (the RPVP
/// adapter): both carry the four fields the decision process reads.
template <typename R>
[[nodiscard]] inline BgpRank bgp_rank(const R& r) {
  return BgpRank{static_cast<std::int64_t>(r.local_pref),
                 -std::int64_t{r.as_path_len}, r.learned_ibgp ? 0 : 1,
                 -std::int64_t{r.metric}};
}

}  // namespace plankton

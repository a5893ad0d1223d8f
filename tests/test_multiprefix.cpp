// Multi-prefix PECs end to end: overlapping prefixes run as separate RPVP
// phases whose converged states combine through longest-prefix match in the
// FIB (paper §3.1's point that prefix lengths matter within a PEC, and
// §3.3's per-prefix execution).
#include <gtest/gtest.h>

#include "config/parser.hpp"
#include "core/verifier.hpp"

namespace plankton {
namespace {

TEST(MultiPrefix, MoreSpecificOspfWinsOverCovering) {
  // hub--spec and hub--cover: cover originates 10.0.0.0/8, spec originates
  // 10.1.0.0/16. Traffic for 10.1.x.x at hub must go to spec, other 10.x to
  // cover.
  const ParsedNetwork parsed = parse_network_config(R"(
node hub
node spec
node cover
link hub spec
link hub cover
ospf hub enable
ospf spec originate 10.1.0.0/16
ospf cover originate 10.0.0.0/8
)");
  const Network& net = parsed.net;
  const NodeId hub = *net.find_device("hub");
  Verifier v(net, {});
  // The 10.1/16 PEC contains both prefixes; the 10/8-only PEC just one.
  const PecId pec_spec = v.pecs().find(IpAddr(10, 1, 2, 3));
  const PecId pec_cover = v.pecs().find(IpAddr(10, 200, 0, 1));
  EXPECT_NE(pec_spec, pec_cover);
  EXPECT_EQ(v.pecs().pecs[pec_spec].prefixes.size(), 2u);
  EXPECT_EQ(v.pecs().pecs[pec_cover].prefixes.size(), 1u);

  const WaypointPolicy to_spec({hub}, {*net.find_device("spec")});
  EXPECT_EQ(v.verify_address(IpAddr(10, 1, 2, 3), to_spec).verdict,
            Verdict::kHolds);
  const WaypointPolicy to_cover({hub}, {*net.find_device("cover")});
  EXPECT_EQ(v.verify_address(IpAddr(10, 200, 0, 1), to_cover).verdict,
            Verdict::kHolds);
  EXPECT_EQ(v.verify_address(IpAddr(10, 1, 2, 3), to_cover).verdict,
            Verdict::kViolated)
      << "/16 PEC must use the more specific route";
}

TEST(MultiPrefix, StaticOnCoveringPrefixLosesToSpecificOspf) {
  const ParsedNetwork parsed = parse_network_config(R"(
node hub
node spec
node sink
link hub spec
link hub sink
ospf hub enable
ospf spec originate 10.1.0.0/16
static hub 10.0.0.0/8 via sink
)");
  const Network& net = parsed.net;
  const NodeId hub = *net.find_device("hub");
  Verifier v(net, {});
  // 10.1.x: the /16 OSPF route (more specific) shadows the /8 static despite
  // the static's lower admin distance.
  const WaypointPolicy to_spec({hub}, {*net.find_device("spec")});
  EXPECT_EQ(v.verify_address(IpAddr(10, 1, 9, 9), to_spec).verdict,
            Verdict::kHolds);
  // 10.200.x: only the static applies; traffic goes to sink and blackholes.
  const BlackholeFreedomPolicy no_drop({hub});
  EXPECT_EQ(v.verify_address(IpAddr(10, 200, 0, 1), no_drop).verdict,
            Verdict::kViolated);
}

TEST(MultiPrefix, OspfAndBgpOnSamePrefixPreferEbgpByAdminDistance) {
  // dst originates P into OSPF; an eBGP island also carries P; at the
  // border, eBGP (AD 20) beats OSPF (AD 110).
  const ParsedNetwork parsed = parse_network_config(R"(
node border
node igp
node ebgp1
link border igp
link border ebgp1
ospf border enable
ospf igp originate 10.5.0.0/16
bgp border asn 65001
bgp ebgp1 asn 65002
bgp-session border ebgp1 ebgp
bgp ebgp1 originate 10.5.0.0/16
)");
  const Network& net = parsed.net;
  const NodeId border = *net.find_device("border");
  Verifier v(net, {});
  const WaypointPolicy via_bgp({border}, {*net.find_device("ebgp1")});
  EXPECT_EQ(v.verify_address(IpAddr(10, 5, 1, 1), via_bgp).verdict,
            Verdict::kHolds)
      << "eBGP admin distance must beat OSPF for the same prefix";
}

TEST(MultiPrefix, PhasesShareCoordinatedFailures) {
  // Overlapping prefixes from different origins; under one failure both
  // phases must see the same topology (no mixed failure states).
  const ParsedNetwork parsed = parse_network_config(R"(
node a
node b
node c
link a b
link b c
link a c
ospf a enable
ospf b originate 10.0.0.0/8
ospf c originate 10.1.0.0/16
)");
  const Network& net = parsed.net;
  VerifyOptions vo;
  vo.explore.max_failures = 1;
  Verifier v(net, vo);
  const NodeId a = *net.find_device("a");
  const ReachabilityPolicy reach({a});
  // Both destinations stay reachable under any single failure (triangle).
  EXPECT_EQ(v.verify_address(IpAddr(10, 1, 0, 1), reach).verdict,
            Verdict::kHolds);
  EXPECT_EQ(v.verify_address(IpAddr(10, 200, 0, 1), reach).verdict,
            Verdict::kHolds);
}

TEST(MultiPrefix, AnycastPrefixDeliversToNearestOrigin) {
  // Both ends of a line originate the same prefix (anycast): the middle
  // node reaches it in one hop.
  const ParsedNetwork parsed = parse_network_config(R"(
node l
node m
node r
link l m
link m r
ospf l originate 10.9.9.0/24
ospf m enable
ospf r originate 10.9.9.0/24
)");
  const Network& net = parsed.net;
  Verifier v(net, {});
  const NodeId m = *net.find_device("m");
  const BoundedPathLengthPolicy one_hop({m}, 1);
  EXPECT_EQ(v.verify_address(IpAddr(10, 9, 9, 1), one_hop).verdict,
            Verdict::kHolds);
}

}  // namespace
}  // namespace plankton

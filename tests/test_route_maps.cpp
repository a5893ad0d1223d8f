// Route maps driving the verification outcome end to end: local-pref
// steering, community tagging + matching, AS-path prepending, deny filters.
#include <gtest/gtest.h>

#include "config/parser.hpp"
#include "core/verifier.hpp"

namespace plankton {
namespace {

/// Diamond: src peers with left and right, both peer with dst (origin).
ParsedNetwork diamond(const std::string& extra) {
  return parse_network_config(R"(
node src
node left
node right
node dst
link src left
link src right
link left dst
link right dst
bgp src asn 65001
bgp left asn 65002
bgp right asn 65003
bgp dst asn 65004
bgp-session src left ebgp
bgp-session src right ebgp
bgp-session left dst ebgp
bgp-session right dst ebgp
bgp dst originate 10.9.0.0/16
)" + extra);
}

VerifyResult check_waypoint(const Network& net, const char* wp) {
  const NodeId src = *net.find_device("src");
  const NodeId w = *net.find_device(wp);
  VerifyOptions vo;
  Verifier v(net, vo);
  const WaypointPolicy policy({src}, {w});
  return v.verify_address(IpAddr(10, 9, 1, 1), policy);
}

TEST(RouteMaps, WithoutSteeringEitherSideCanWin) {
  const ParsedNetwork parsed = diamond("");
  // Ties everywhere: some convergence goes left, some right — a waypoint
  // through either single side must be violable.
  EXPECT_EQ(check_waypoint(parsed.net, "left").verdict, Verdict::kViolated);
  EXPECT_EQ(check_waypoint(parsed.net, "right").verdict, Verdict::kViolated);
}

TEST(RouteMaps, LocalPrefSteersAllTraffic) {
  const ParsedNetwork parsed = diamond(
      "route-map src left import permit set-local-pref 200\n");
  EXPECT_EQ(check_waypoint(parsed.net, "left").verdict, Verdict::kHolds);
  EXPECT_EQ(check_waypoint(parsed.net, "right").verdict, Verdict::kViolated);
}

TEST(RouteMaps, PrependMakesPathLoseOnLength) {
  const ParsedNetwork parsed = diamond(
      "route-map right dst import permit prepend 3\n");
  // Routes via right carry +3 AS hops: src deterministically prefers left.
  EXPECT_EQ(check_waypoint(parsed.net, "left").verdict, Verdict::kHolds);
}

TEST(RouteMaps, DenyFilterRemovesPath) {
  const ParsedNetwork parsed = diamond(
      "route-map-default left dst import deny\n");
  // Left never learns the prefix: all traffic goes right.
  EXPECT_EQ(check_waypoint(parsed.net, "right").verdict, Verdict::kHolds);
  const NodeId src = *parsed.net.find_device("src");
  Verifier v(parsed.net, {});
  const ReachabilityPolicy reach({src});
  EXPECT_EQ(v.verify_address(IpAddr(10, 9, 1, 1), reach).verdict,
            Verdict::kHolds);
}

TEST(RouteMaps, CommunityTagTriggersRemotePolicy) {
  // dst tags exports to right with BACKUP; src depresses BACKUP-tagged
  // routes: all traffic steered via left.
  const ParsedNetwork parsed = diamond(
      "route-map dst right export permit add-community BACKUP\n"
      "route-map src right import permit match-community BACKUP "
      "set-local-pref 50\n");
  EXPECT_EQ(check_waypoint(parsed.net, "left").verdict, Verdict::kHolds);
}

TEST(RouteMaps, ExactPrefixMatchDoesNotCatchOthers) {
  const ParsedNetwork parsed = diamond(
      "bgp dst originate 172.20.0.0/16\n"
      "route-map src right import deny match-prefix 10.9.0.0/16\n");
  // 10.9/16 can only arrive via left; 172.20/16 is unaffected.
  EXPECT_EQ(check_waypoint(parsed.net, "left").verdict, Verdict::kHolds);
  const NodeId src = *parsed.net.find_device("src");
  Verifier v(parsed.net, {});
  const WaypointPolicy via_right({src}, {*parsed.net.find_device("right")});
  EXPECT_EQ(v.verify_address(IpAddr(172, 20, 0, 1), via_right).verdict,
            Verdict::kViolated)
      << "172.20/16 is not filtered, so right remains possible";
}

TEST(RouteMaps, OrLongerMatchCoversSubPrefixes) {
  const ParsedNetwork parsed = diamond(
      "bgp dst originate 10.9.128.0/17\n"
      "route-map src right import deny match-prefix 10.9.0.0/16 or-longer\n");
  // Both 10.9.0.0/16 and 10.9.128.0/17 are blocked on the right session.
  Verifier v(parsed.net, {});
  const NodeId src = *parsed.net.find_device("src");
  const WaypointPolicy via_left({src}, {*parsed.net.find_device("left")});
  EXPECT_EQ(v.verify_address(IpAddr(10, 9, 200, 1), via_left).verdict,
            Verdict::kHolds);
}

TEST(RouteMaps, MaxPathLenFilterCutsLongRoutes) {
  const ParsedNetwork parsed = diamond(
      "route-map right dst import permit prepend 4\n"
      "route-map src right import deny match-max-path-len 10\n"
      "route-map-default src right import permit\n");
  // Hmm: deny clause matches routes with as_path_len <= 10 — i.e. it blocks
  // the (short) legitimate route too... the semantics under test: the right
  // route (len 1+4=5 <= 10) is denied; left wins.
  EXPECT_EQ(check_waypoint(parsed.net, "left").verdict, Verdict::kHolds);
}

}  // namespace
}  // namespace plankton

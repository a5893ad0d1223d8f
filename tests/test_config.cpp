// Configuration model and the text-format parser.
#include <gtest/gtest.h>

#include "config/parser.hpp"

namespace plankton {
namespace {

TEST(Parser, FullFeatureRoundTrip) {
  const char* text = R"(
# full feature exercise
node r1 loopback 1.1.1.1
node r2 loopback 2.2.2.2
node r3
link r1 r2 cost 10
link r2 r3 cost 5 cost-ba 7
ospf r1 enable
ospf r2 originate 10.2.0.0/16
ospf r3 no-loopback
static r1 172.16.0.0/12 via r2
static r2 172.17.0.0/16 via-ip 1.1.1.1
static r3 0.0.0.0/0 drop
bgp r1 asn 65001
bgp r2 asn 65002
bgp-session r1 r2 ebgp
bgp r1 originate 203.0.113.0/24
route-map r1 r2 import permit match-prefix 203.0.0.0/16 or-longer \
    set-local-pref 250 add-community PEERS
route-map r2 r1 export deny match-community PEERS
route-map-default r2 r1 export permit
)";
  const ParsedNetwork parsed = parse_network_config(text);
  const Network& net = parsed.net;
  ASSERT_EQ(net.devices.size(), 3u);
  EXPECT_EQ(net.device(0).loopback, IpAddr(1, 1, 1, 1));
  EXPECT_EQ(net.topo.link_count(), 2u);
  const Link& l2 = net.topo.link(1);
  EXPECT_EQ(l2.cost_ab, 5u);
  EXPECT_EQ(l2.cost_ba, 7u);
  EXPECT_TRUE(net.device(0).ospf.enabled);
  EXPECT_EQ(net.device(1).ospf.originated.size(), 1u);
  ASSERT_EQ(net.device(0).statics.size(), 1u);
  EXPECT_EQ(net.device(0).statics[0].via_neighbor, 1u);
  ASSERT_EQ(net.device(1).statics.size(), 1u);
  EXPECT_EQ(*net.device(1).statics[0].via_ip, IpAddr(1, 1, 1, 1));
  EXPECT_TRUE(net.device(2).statics[0].drop);
  ASSERT_TRUE(net.device(0).bgp.has_value());
  EXPECT_EQ(net.device(0).bgp->asn, 65001u);
  const auto* session = net.device(0).bgp->session_with(1);
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(session->import.clauses.size(), 1u);
  const auto& clause = session->import.clauses[0];
  EXPECT_EQ(clause.match.prefix_mode, RouteMapMatch::PrefixMode::kOrLonger);
  EXPECT_EQ(*clause.action.set_local_pref, 250u);
  ASSERT_TRUE(clause.action.add_community.has_value());
  EXPECT_EQ(parsed.communities.at("PEERS"), *clause.action.add_community);
  const auto* back = net.device(1).bgp->session_with(0);
  ASSERT_NE(back, nullptr);
  EXPECT_FALSE(back->export_.clauses[0].action.permit);
  EXPECT_TRUE(back->export_.default_permit);
  EXPECT_TRUE(net.validate().empty());
}

TEST(Parser, ReportsLineNumbers) {
  try {
    parse_network_config("node a\nlink a b\n");
    FAIL() << "expected ConfigParseError";
  } catch (const ConfigParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(Parser, RejectsDuplicateNode) {
  EXPECT_THROW(parse_network_config("node a\nnode a\n"), ConfigParseError);
}

TEST(Parser, RejectsUnknownDirective) {
  EXPECT_THROW(parse_network_config("frobnicate x\n"), ConfigParseError);
}

TEST(Parser, RejectsBadPrefix) {
  EXPECT_THROW(parse_network_config("node a\nospf a originate 10.0.0.0/40\n"),
               ConfigParseError);
}

TEST(Parser, RejectsOutOfRangeNumbers) {
  // Untrusted socket input (the serve daemon): a number wider than the field
  // it lands in must be a parse error, never a silent truncation.
  const char* base =
      "node a\nnode b\nlink a b\n"
      "bgp a asn 65001\nbgp b asn 65002\nbgp-session a b ebgp\n";
  // prepend is u8.
  EXPECT_THROW(
      parse_network_config(std::string(base) +
                           "route-map a b import permit prepend 256\n"),
      ConfigParseError);
  EXPECT_NO_THROW(
      parse_network_config(std::string(base) +
                           "route-map a b import permit prepend 255\n"));
  // match-max-path-len is u16.
  EXPECT_THROW(
      parse_network_config(
          std::string(base) +
          "route-map a b import deny match-max-path-len 65536\n"),
      ConfigParseError);
  // Link costs are u32.
  EXPECT_THROW(parse_network_config("node a\nnode b\nlink a b cost 4294967296\n"),
               ConfigParseError);
  // Negative numbers never silently wrap.
  EXPECT_THROW(parse_network_config("node a\nnode b\nlink a b cost -1\n"),
               ConfigParseError);
}

TEST(Parser, RejectsDanglingLinkOption) {
  EXPECT_THROW(parse_network_config("node a\nnode b\nlink a b cost\n"),
               ConfigParseError);
  EXPECT_THROW(parse_network_config("node a\nnode b\nlink a b cost 5 cost-ba\n"),
               ConfigParseError);
}

TEST(Parser, NothrowOverloadReportsErrorsWithoutThrowing) {
  ParsedNetwork out;
  std::string error;
  ASSERT_TRUE(parse_network_config("node a\nnode b\nlink a b\n", out, error));
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(out.net.devices.size(), 2u);

  EXPECT_FALSE(parse_network_config("node a\nnode a\n", out, error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_TRUE(out.net.devices.empty())
      << "a failed parse must not leave partial state in `out`";
}

TEST(Validate, CatchesAsymmetricSessions) {
  Network net;
  const NodeId a = net.add_device("a", IpAddr(1, 1, 1, 1));
  const NodeId b = net.add_device("b", IpAddr(2, 2, 2, 2));
  net.topo.add_link(a, b);
  net.device(a).bgp.emplace();
  net.device(b).bgp.emplace();
  BgpSession s;
  s.peer = b;
  net.device(a).bgp->sessions.push_back(s);  // one-sided
  const auto problems = net.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("symmetrically"), std::string::npos);
}

TEST(Validate, CatchesEbgpWithoutLink) {
  Network net;
  const NodeId a = net.add_device("a");
  const NodeId b = net.add_device("b");
  net.device(a).bgp.emplace();
  net.device(b).bgp.emplace();
  for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
    BgpSession s;
    s.peer = y;
    net.device(x).bgp->sessions.push_back(s);
  }
  const auto problems = net.validate();
  EXPECT_FALSE(problems.empty());
}

TEST(Validate, CatchesAmbiguousStatic) {
  Network net;
  const NodeId a = net.add_device("a");
  const NodeId b = net.add_device("b");
  net.topo.add_link(a, b);
  StaticRoute sr;
  sr.dst = *Prefix::parse("10.0.0.0/8");
  sr.via_neighbor = b;
  sr.drop = true;  // two modes at once
  net.device(a).statics.push_back(sr);
  EXPECT_FALSE(net.validate().empty());
}

TEST(Config, MentionedPrefixesCoverAllSources) {
  const ParsedNetwork parsed = parse_network_config(R"(
node a loopback 9.9.9.9
node b
link a b
ospf a originate 10.0.0.0/8
static b 172.16.0.0/12 via a
bgp a asn 1
bgp b asn 2
bgp-session a b ebgp
bgp a originate 203.0.113.0/24
route-map b a import permit match-prefix 198.51.100.0/24
)");
  const auto prefixes = parsed.net.mentioned_prefixes();
  auto has = [&prefixes](const char* text) {
    return std::find(prefixes.begin(), prefixes.end(), *Prefix::parse(text)) !=
           prefixes.end();
  };
  EXPECT_TRUE(has("10.0.0.0/8"));
  EXPECT_TRUE(has("172.16.0.0/12"));
  EXPECT_TRUE(has("203.0.113.0/24"));
  EXPECT_TRUE(has("198.51.100.0/24"));
  EXPECT_TRUE(has("9.9.9.9/32"));
}

TEST(Config, AdminDistanceOrdering) {
  EXPECT_LT(admin_distance(Protocol::kConnected), admin_distance(Protocol::kStatic));
  EXPECT_LT(admin_distance(Protocol::kStatic), admin_distance(Protocol::kEbgp));
  EXPECT_LT(admin_distance(Protocol::kEbgp), admin_distance(Protocol::kOspf));
  EXPECT_LT(admin_distance(Protocol::kOspf), admin_distance(Protocol::kIbgp));
}

}  // namespace
}  // namespace plankton

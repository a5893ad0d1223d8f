#include "config/parser.hpp"

#include <string>
#include <unordered_map>
#include <vector>

#include "netbase/parse_int.hpp"

namespace plankton {
namespace {

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size() || line[i] == '#') break;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

class Parser {
 public:
  ParsedNetwork run(std::string_view text) {
    std::size_t pos = 0;
    line_no_ = 0;
    std::string pending;  // supports trailing-backslash continuations
    while (pos <= text.size()) {
      const std::size_t eol = text.find('\n', pos);
      std::string_view raw = text.substr(
          pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
      ++line_no_;
      std::string_view trimmed = raw;
      while (!trimmed.empty() && (trimmed.back() == '\r' || trimmed.back() == ' '))
        trimmed.remove_suffix(1);
      if (!trimmed.empty() && trimmed.back() == '\\') {
        pending.append(trimmed.substr(0, trimmed.size() - 1));
        pending.push_back(' ');
      } else {
        pending.append(trimmed);
        if (!pending.empty()) handle_line(pending);
        pending.clear();
      }
      if (eol == std::string_view::npos) break;
      pos = eol + 1;
    }
    if (!pending.empty()) handle_line(pending);
    return std::move(result_);
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ConfigParseError(line_no_, message);
  }

  NodeId node_of(std::string_view name) const {
    const auto it = node_ids_.find(name);
    if (it == node_ids_.end()) {
      throw ConfigParseError(line_no_, "unknown node '" + std::string(name) + "'");
    }
    return it->second;
  }

  IpAddr ip_of(std::string_view text) const {
    const auto a = IpAddr::parse(text);
    if (!a) throw ConfigParseError(line_no_, "bad IPv4 address '" + std::string(text) + "'");
    return *a;
  }

  Prefix prefix_of(std::string_view text) const {
    const auto p = Prefix::parse(text);
    if (!p) throw ConfigParseError(line_no_, "bad prefix '" + std::string(text) + "'");
    return *p;
  }

  // `max` bounds the accepted value so narrower destination fields
  // (uint8/uint16) get a parse error instead of a silent truncating cast —
  // the daemon feeds this parser from an untrusted socket, so "route-map ...
  // prepend 256" must be rejected, not become prepend 0. parse_int already
  // rejects sign characters, non-digits, and values beyond uint32.
  std::uint32_t uint_of(std::string_view text,
                        std::uint32_t max = UINT32_MAX) const {
    std::uint32_t v = 0;
    if (!parse_int(text, v))
      throw ConfigParseError(line_no_, "bad number '" + std::string(text) + "'");
    if (v > max) {
      throw ConfigParseError(line_no_, "number '" + std::string(text) +
                                           "' out of range (max " +
                                           std::to_string(max) + ")");
    }
    return v;
  }

  std::uint8_t community_of(std::string_view name) {
    const std::string key(name);
    auto it = result_.communities.find(key);
    if (it != result_.communities.end()) return it->second;
    if (result_.communities.size() >= 32) fail("too many distinct communities (max 32)");
    const auto bit = static_cast<std::uint8_t>(result_.communities.size());
    result_.communities.emplace(key, bit);
    return bit;
  }

  void handle_line(std::string_view line) {
    const auto t = tokenize(line);
    if (t.empty()) return;
    const std::string_view kw = t[0];
    if (kw == "node") return handle_node(t);
    if (kw == "link") return handle_link(t);
    if (kw == "ospf") return handle_ospf(t);
    if (kw == "static") return handle_static(t);
    if (kw == "bgp") return handle_bgp(t);
    if (kw == "bgp-session") return handle_bgp_session(t);
    if (kw == "route-map") return handle_route_map(t);
    if (kw == "route-map-default") return handle_route_map_default(t);
    fail("unknown directive '" + std::string(kw) + "'");
  }

  void handle_node(const std::vector<std::string_view>& t) {
    if (t.size() != 2 && t.size() != 4) fail("usage: node <name> [loopback <ip>]");
    const std::string_view name = t[1];
    if (node_ids_.contains(name)) fail("duplicate node '" + std::string(name) + "'");
    IpAddr loopback;
    if (t.size() == 4) {
      if (t[2] != "loopback") fail("expected 'loopback'");
      loopback = ip_of(t[3]);
    }
    node_ids_.emplace(name, result_.net.add_device(std::string(name), loopback));
  }

  void handle_link(const std::vector<std::string_view>& t) {
    if (t.size() < 3) fail("usage: link <a> <b> [cost <n>] [cost-ba <n>]");
    const NodeId a = node_of(t[1]);
    const NodeId b = node_of(t[2]);
    std::uint32_t cost_ab = 1, cost_ba = 1;
    bool saw_cost = false;
    std::size_t i = 3;
    for (; i + 1 < t.size(); i += 2) {
      if (t[i] == "cost") {
        cost_ab = uint_of(t[i + 1]);
        if (!saw_cost) cost_ba = cost_ab;
        saw_cost = true;
      } else if (t[i] == "cost-ba") {
        cost_ba = uint_of(t[i + 1]);
      } else {
        fail("unknown link option '" + std::string(t[i]) + "'");
      }
    }
    // A dangling option token ("link a b cost") used to be silently ignored.
    if (i != t.size()) fail("link option '" + std::string(t[i]) + "' needs a value");
    result_.net.topo.add_link(a, b, cost_ab, cost_ba);
  }

  void handle_ospf(const std::vector<std::string_view>& t) {
    if (t.size() < 3) fail("usage: ospf <node> enable|originate <prefix>");
    auto& dev = result_.net.device(node_of(t[1]));
    if (t[2] == "enable") {
      dev.ospf.enabled = true;
    } else if (t[2] == "originate" && t.size() == 4) {
      dev.ospf.enabled = true;
      dev.ospf.originated.push_back(prefix_of(t[3]));
    } else if (t[2] == "no-loopback") {
      dev.ospf.advertise_loopback = false;
    } else if (t[2] == "redistribute-static") {
      dev.ospf.enabled = true;
      dev.ospf.redistribute_static = true;
    } else {
      fail("bad ospf directive");
    }
  }

  void handle_static(const std::vector<std::string_view>& t) {
    if (t.size() < 4) fail("usage: static <node> <prefix> via <n>|via-ip <ip>|drop");
    StaticRoute sr;
    sr.dst = prefix_of(t[2]);
    if (t[3] == "via" && t.size() == 5) {
      sr.via_neighbor = node_of(t[4]);
    } else if (t[3] == "via-ip" && t.size() == 5) {
      sr.via_ip = ip_of(t[4]);
    } else if (t[3] == "drop" && t.size() == 4) {
      sr.drop = true;
    } else {
      fail("bad static route form");
    }
    result_.net.device(node_of(t[1])).statics.push_back(sr);
  }

  void handle_bgp(const std::vector<std::string_view>& t) {
    if (t.size() != 3 && t.size() != 4) {
      fail("usage: bgp <node> asn <n> | originate <prefix> | redistribute-ospf");
    }
    auto& dev = result_.net.device(node_of(t[1]));
    if (!dev.bgp) dev.bgp.emplace();
    if (t[2] == "asn" && t.size() == 4) {
      dev.bgp->asn = uint_of(t[3]);
    } else if (t[2] == "originate" && t.size() == 4) {
      dev.bgp->originated.push_back(prefix_of(t[3]));
    } else if (t[2] == "redistribute-ospf" && t.size() == 3) {
      dev.bgp->redistribute_ospf = true;
    } else {
      fail("bad bgp directive");
    }
  }

  void handle_bgp_session(const std::vector<std::string_view>& t) {
    if (t.size() != 4 || (t[3] != "ebgp" && t[3] != "ibgp"))
      fail("usage: bgp-session <a> <b> ebgp|ibgp");
    const NodeId a = node_of(t[1]);
    const NodeId b = node_of(t[2]);
    const bool ibgp = t[3] == "ibgp";
    for (const auto& [self, peer] : {std::pair{a, b}, std::pair{b, a}}) {
      auto& dev = result_.net.device(self);
      if (!dev.bgp) dev.bgp.emplace();
      if (dev.bgp->session_with(peer) != nullptr) fail("duplicate bgp session");
      BgpSession s;
      s.peer = peer;
      s.ibgp = ibgp;
      dev.bgp->sessions.push_back(std::move(s));
    }
  }

  RouteMap& map_for(const std::vector<std::string_view>& t) {
    auto& dev = result_.net.device(node_of(t[1]));
    if (!dev.bgp) fail("node has no bgp config");
    auto* session = dev.bgp->session_with(node_of(t[2]));
    if (session == nullptr) fail("no bgp session between given nodes");
    if (t[3] == "import") return session->import;
    if (t[3] == "export") return session->export_;
    fail("expected import|export");
  }

  void handle_route_map(const std::vector<std::string_view>& t) {
    if (t.size() < 5) {
      fail("usage: route-map <node> <peer> import|export permit|deny [options]");
    }
    RouteMap& rm = map_for(t);
    RouteMapClause clause;
    if (t[4] == "permit") {
      clause.action.permit = true;
    } else if (t[4] == "deny") {
      clause.action.permit = false;
    } else {
      fail("expected permit|deny");
    }
    std::size_t i = 5;
    while (i < t.size()) {
      const std::string_view opt = t[i];
      if (opt == "or-longer") {
        clause.match.prefix_mode = RouteMapMatch::PrefixMode::kOrLonger;
        ++i;
        continue;
      }
      if (i + 1 >= t.size()) fail("option '" + std::string(opt) + "' needs a value");
      const std::string_view val = t[i + 1];
      if (opt == "match-prefix") {
        clause.match.prefix = prefix_of(val);
      } else if (opt == "match-community") {
        clause.match.community = community_of(val);
      } else if (opt == "match-max-path-len") {
        clause.match.max_path_len =
            static_cast<std::uint16_t>(uint_of(val, UINT16_MAX));
      } else if (opt == "set-local-pref") {
        clause.action.set_local_pref = uint_of(val);
      } else if (opt == "add-community") {
        clause.action.add_community = community_of(val);
      } else if (opt == "prepend") {
        clause.action.prepend = static_cast<std::uint8_t>(uint_of(val, UINT8_MAX));
      } else {
        fail("unknown route-map option '" + std::string(opt) + "'");
      }
      i += 2;
    }
    rm.clauses.push_back(std::move(clause));
  }

  void handle_route_map_default(const std::vector<std::string_view>& t) {
    if (t.size() != 5) fail("usage: route-map-default <node> <peer> import|export permit|deny");
    RouteMap& rm = map_for(t);
    if (t[4] == "permit") {
      rm.default_permit = true;
    } else if (t[4] == "deny") {
      rm.default_permit = false;
    } else {
      fail("expected permit|deny");
    }
  }

  ParsedNetwork result_;
  std::size_t line_no_ = 0;
  /// Device name -> id. Every link/ospf/static/bgp line names devices; a
  /// Network::find_device scan per name would make parsing quadratic in the
  /// device count. Transparent hashing looks tokens up without a copy.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, NodeId, NameHash, std::equal_to<>> node_ids_;
};

}  // namespace

ParsedNetwork parse_network_config(std::string_view text) {
  return Parser{}.run(text);
}

bool parse_network_config(std::string_view text, ParsedNetwork& out,
                          std::string& error) {
  try {
    out = Parser{}.run(text);
    return true;
  } catch (const ConfigParseError& e) {
    out = ParsedNetwork{};
    error = e.what();
    return false;
  }
}

}  // namespace plankton

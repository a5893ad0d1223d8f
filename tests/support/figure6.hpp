// The paper's Figure 6 network, shared between the deterministic-node
// narrative tests (test_bgp_figure6.cpp) and the policy spec tests
// (test_policies.cpp).
#pragma once

#include "config/network.hpp"

namespace plankton::testsupport {

/// Figure 6 topology (each node its own AS, R1 the origin):
///   R1 peers R2, R3; R2 peers R4, R5; R3 peers R4;  R4 peers R6; R5 peers R6.
///   R5's import from R2 sets the highest local-pref; R6's import from R5
///   sets a LOWER local-pref ("Lower local pref for R5").
struct Figure6 {
  Network net;
  NodeId r1, r2, r3, r4, r5, r6;

  Figure6() {
    r1 = add("R1");
    r2 = add("R2");
    r3 = add("R3");
    r4 = add("R4");
    r5 = add("R5");
    r6 = add("R6");
    session(r1, r2);
    session(r1, r3);
    session(r2, r4);
    session(r2, r5);
    session(r3, r4);
    session(r4, r6);
    session(r5, r6);
    net.device(r1).bgp->originated.push_back(*Prefix::parse("10.0.0.0/16"));
    // R5 prefers routes from R2 with the globally highest local-pref.
    RouteMapClause high;
    high.action.set_local_pref = 300;
    net.device(r5).bgp->session_with(r2)->import.clauses.push_back(high);
    // R6 depresses routes learned from R5.
    RouteMapClause low;
    low.action.set_local_pref = 50;
    net.device(r6).bgp->session_with(r5)->import.clauses.push_back(low);
  }

  NodeId add(const char* name) {
    const NodeId id = net.add_device(name);
    net.device(id).bgp.emplace();
    net.device(id).bgp->asn = 65000 + id;
    return id;
  }
  void session(NodeId a, NodeId b) {
    net.topo.add_link(a, b);
    BgpSession sa;
    sa.peer = b;
    net.device(a).bgp->sessions.push_back(sa);
    BgpSession sb;
    sb.peer = a;
    net.device(b).bgp->sessions.push_back(sb);
  }
};

}  // namespace plankton::testsupport

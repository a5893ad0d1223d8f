#include "rpvp/replay.hpp"

#include <vector>

namespace plankton {

ReplayResult replay_trail(const Network& net, const Pec& pec, const Trail& trail,
                          const UpstreamProvider* upstream) {
  ReplayResult result;
  result.failures = net.topo.no_failures();

  std::vector<PrefixTask> tasks = make_tasks(net, pec);
  ModelContext ctx;
  ctx.net = &net;
  std::vector<std::vector<RouteId>> ribs(
      tasks.size(), std::vector<RouteId>(net.topo.node_count(), kNoRoute));
  int current_task = -1;
  bool prepared = false;
  std::size_t upstream_choice = 0;

  auto fail = [&result](std::string message) {
    result.ok = false;
    result.error = std::move(message);
    return result;
  };

  auto prepare_all = [&] {
    std::vector<const UpstreamResolver*> ups;
    if (upstream != nullptr) {
      ups = upstream->outcomes(result.failures);
      if (ups.empty()) return false;
      ctx.upstream = ups[upstream_choice < ups.size() ? upstream_choice : 0];
    }
    for (auto& t : tasks) t.process->prepare(result.failures, ctx);
    return true;
  };

  for (const TrailEvent& e : trail.events) {
    switch (e.kind) {
      case TrailEvent::Kind::kFailLink:
        if (prepared) return fail("failure event after protocol start");
        if (e.link >= net.topo.link_count()) return fail("unknown link in trail");
        result.failures.fail(e.link);
        break;
      case TrailEvent::Kind::kUpstreamOutcome:
        if (prepared) return fail("upstream choice after protocol start");
        upstream_choice = e.phase;
        break;
      case TrailEvent::Kind::kBeginPrefix: {
        if (!prepared) {
          if (!prepare_all()) return fail("no upstream outcome for failure set");
          prepared = true;
        }
        const int next = static_cast<int>(e.phase);
        if (next != current_task + 1 || next >= static_cast<int>(tasks.size())) {
          return fail("out-of-order prefix phase in trail");
        }
        current_task = next;
        auto& proc = *tasks[current_task].process;
        for (const NodeId o : proc.origins()) {
          ribs[current_task][o] = proc.origin_route(o, ctx);
        }
        break;
      }
      case TrailEvent::Kind::kSelect: {
        if (current_task < 0) return fail("select before any prefix phase");
        auto& proc = *tasks[current_task].process;
        auto& rib = ribs[current_task];
        if (e.node >= rib.size()) return fail("unknown node in trail");
        RouteId route = kNoRoute;
        if (e.peer == kNoNode) {
          // Merged (OSPF ECMP) update: recompute from current neighbor state.
          std::vector<RouteId> advs;
          for (const NodeId p : proc.peers(e.node)) {
            advs.push_back(proc.advertised(p, e.node, rib[p], ctx));
          }
          route = proc.merge(e.node, advs, ctx);
        } else {
          route = proc.advertised(e.peer, e.node, rib[e.peer], ctx);
        }
        if (route == kNoRoute) {
          return fail("trail step not applicable: " + net.topo.name(e.node) +
                      " has no usable update" +
                      (e.peer != kNoNode ? " from " + net.topo.name(e.peer) : ""));
        }
        rib[e.node] = route;
        break;
      }
      case TrailEvent::Kind::kWithdraw:
        if (current_task < 0) return fail("withdraw before any prefix phase");
        ribs[current_task][e.node] = kNoRoute;
        break;
    }
  }
  if (!prepared && !prepare_all()) {
    return fail("no upstream outcome for failure set");
  }

  std::vector<TaskRib> task_ribs;
  task_ribs.reserve(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    task_ribs.push_back(TaskRib{tasks[t].prefix_idx,
                                tasks[t].process->protocol(), ribs[t]});
  }
  result.dp = build_dataplane(net, pec, result.failures, task_ribs, ctx);
  result.ok = true;
  return result;
}

}  // namespace plankton

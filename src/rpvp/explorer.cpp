#include "rpvp/explorer.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "protocols/bgp.hpp"
#include "protocols/ospf.hpp"

namespace plankton {

std::vector<PrefixTask> make_tasks(const Network& net, const Pec& pec) {
  std::vector<PrefixTask> tasks;
  for (std::size_t pi = 0; pi < pec.prefixes.size(); ++pi) {
    const PecPrefix& pp = pec.prefixes[pi];
    if (!pp.ospf_origins.empty()) {
      PrefixTask t;
      t.prefix_idx = static_cast<std::uint8_t>(pi);
      t.process = std::make_unique<OspfProcess>(net, pp.prefix, pp.ospf_origins);
      tasks.push_back(std::move(t));
    }
    if (!pp.bgp_origins.empty()) {
      PrefixTask t;
      t.prefix_idx = static_cast<std::uint8_t>(pi);
      t.process = std::make_unique<BgpProcess>(net, pp.prefix, pp.bgp_origins);
      tasks.push_back(std::move(t));
    }
  }
  return tasks;
}

Explorer::Explorer(const Network& net, const Pec& pec, std::vector<PrefixTask> tasks,
                   const Policy& policy, ExploreOptions opts,
                   const UpstreamProvider* upstream)
    : net_(net),
      pec_(pec),
      tasks_(std::move(tasks)),
      policy_(policy),
      opts_(opts),
      upstream_provider_(upstream),
      engine_(make_search_engine(opts.engine_kind)) {
  ctx_.net = &net_;
  const std::size_t n = net.topo.node_count();
  const std::size_t t = tasks_.size();
  rib_.assign(t, std::vector<RouteId>(n, kNoRoute));
  status_.assign(t, std::vector<NodeStatus>(n));
  is_origin_.assign(t, std::vector<std::uint8_t>(n, 0));
  member_.assign(t, std::vector<std::uint8_t>(n, 0));
  codec_.reset(t);
  influencer_.reset(n);
  in_comp_.reset(n);
  active_.resize(t);
  for (auto& a : active_) a.reset(n);
  statuses_stale_.assign(t, 0);
  for (std::size_t i = 0; i < t; ++i) {
    // The incremental expand path replays members() order from a sorted
    // active set; the documented ascending-order contract must hold.
    assert(std::is_sorted(tasks_[i].process->members().begin(),
                          tasks_[i].process->members().end()));
    for (const NodeId o : tasks_[i].process->origins()) is_origin_[i][o] = 1;
    for (const NodeId m : tasks_[i].process->members()) member_[i][m] = 1;
  }
  ad_cache_.reset(t);
  sleep_words_ = (n + 63) / 64;
  // Scratch arenas: size for the worst case up front so the hot path never
  // grows them (peer lists are bounded by the node count).
  advs_scratch_.reserve(n);
  cands_scratch_.reserve(n);
  updates_scratch_.reserve(n);
  update_peers_scratch_.reserve(n);
  enabled_scratch_.reserve(n);
  filtered_scratch_.reserve(n);
  bfs_queue_.reserve(n);
  ribs_scratch_.reserve(t);
  status_log_.reserve(n);
  sources_ = policy_.sources();

  // §4.2 applicability: the paper applies source early-stop and influence
  // pruning only when the policy names sources, no other PEC depends on this
  // one (record_outcomes is off: a dependent reads every converged state),
  // and (for influence) a single prefix defines the PEC. We additionally
  // require protocol-only routing (no statics, one protocol per prefix) so a
  // source's committed control-plane path is guaranteed to coincide with the
  // hop-by-hop data-plane walk (see DESIGN.md).
  early_stop_ok_ = opts_.policy_pruning && !sources_.empty() &&
                   !opts_.record_outcomes;
  for (const auto& pp : pec_.prefixes) {
    if (!pp.static_routes.empty()) early_stop_ok_ = false;
    if (!pp.ospf_origins.empty() && !pp.bgp_origins.empty()) early_stop_ok_ = false;
  }
  influence_active_ = early_stop_ok_ && pec_.prefixes.size() == 1;
  is_source_node_.assign(n, 0);
  for (const NodeId s : sources_) is_source_node_[s] = 1;

  // POR applicability. The DFS engine only: source sets need its LIFO path
  // and its por_extend() calls between siblings, and every other engine
  // explores the unreduced move tree (BFS is the POR-free reference). The
  // exact visited store only (the sleep-aware store is exact — pairing it
  // with the bitstate store would silently change the Fig. 9 ablation
  // semantics). The §4.2 source early-stop needs care: the sources' routes
  // at the cut are linearization-invariant under consistent-only
  // execution, so verdicts survive the reduction — but the cut state itself
  // (non-source RIBs) is order-dependent, so the cut-state *multiset*
  // shrinks. POR therefore turns itself off whenever something enumerates
  // cut states: find-all duplicate-violation reporting, or inconsistent
  // execution (where even source routes churn). Outcome recording needs no
  // term here: it turns the early-stop off.
  //
  // It also stays off when no task can branch. Under consistent execution
  // with deterministic nodes and merged ECMP updates, an OSPF phase is one
  // SPF-ordered path (§4.1.2): deterministic_node() always names one
  // enabled node and merging gives it exactly one update. With every task
  // such a phase no state has two moves, so sleep and source sets prune
  // nothing and the run uses the exact visited store, as --no-por does.
  // The unreduced search is the reference, so a wrong rule here would cost
  // time, never a state.
  const bool cut_states_observed =
      early_stop_ok_ && (!opts_.consistent_only || opts_.find_all_violations);
  const bool spf_only =
      opts_.consistent_only && opts_.deterministic_nodes && opts_.merge_updates &&
      std::all_of(tasks_.begin(), tasks_.end(),
                  [](const PrefixTask& t) {
                    return t.process->protocol() == Protocol::kOspf;
                  });
  por_ = opts_.por && opts_.engine_kind == SearchEngineKind::kDfs &&
         opts_.visited == VisitedKind::kExact && !cut_states_observed &&
         !spf_only;

  // The topology terms of the SPF lemma (docs/architecture.md "Failure
  // relevance", steps 1-2): every link cost is positive in both directions,
  // which the SPF order argument needs, and one link joins each pair of
  // devices. advertised() costs a session by its cheapest live link, so
  // route metrics equal SPF distances with parallel links too, but no test
  // corpus has parallel links, so the rules resting on the lemma stay off
  // for them.
  bool spf_links = true;
  for (LinkId l = 0; spf_links && l < net_.topo.link_count(); ++l) {
    const Link& k = net_.topo.link(l);
    spf_links = k.cost_ab != 0 && k.cost_ba != 0 &&
                net_.topo.find_link(k.a, k.b) == l &&
                net_.topo.find_link(k.b, k.a) == l;
  }

  // Failure relevance (docs/architecture.md lists the conditions and the
  // lemma). An SPF-ordered phase is one path under every engine, so the
  // engine does not matter, but the bitstate store can cut a move-by-move
  // walk of F's path short. Statics and the influence BFS read live links
  // beyond the SPF DAG.
  failure_relevance_ = opts_.max_failures > 0 && opts_.lec_failures &&
                       opts_.visited == VisitedKind::kExact && spf_only &&
                       spf_links && !influence_active_ && !opts_.record_outcomes;
  for (const auto& pp : pec_.prefixes) {
    if (!pp.static_routes.empty()) failure_relevance_ = false;
  }

  // SPF-ordered phases run as one pass (docs/architecture.md "SPF-ordered
  // phases"): the lemma's path, committed in (dist, id) order. A §4.2 stop
  // could cut that path, so it keeps the move-by-move search, and so does
  // incremental_expand = false, the rescan reference path. The pass never
  // probes the visited store, so the store's kind does not matter.
  spf_pass_ = spf_only && spf_links && !early_stop_ok_ &&
              opts_.incremental_expand;

  // The visited store is fixed here for the whole run. The sleep-aware
  // store replaces it under POR, and an SPF pass never probes one; build it
  // only when the search probes it.
  if (!por_ && !spf_pass_) visited_.emplace(opts_.visited, opts_.bloom_bits);

  // Failure-set reuse and the patched FIB (docs/architecture.md
  // "Failure-set runs reuse the no-failure run"): every buffer sized here.
  base_rib_.resize(t);
  if (spf_pass_) {
    for (auto& b : base_rib_) b.reserve(n);
    spf_changed_.reset(n);
  }
  fib_rib_.assign(t, std::vector<RouteId>(n, kNoRoute));
  static_node_.assign(n, 0);
  for (const auto& pp : pec_.prefixes) {
    for (const auto& [dev, idx] : pp.static_routes) static_node_[dev] = 1;
  }
  changed_.reserve(n);
  old_entry_.nexthops.reserve(n);
  dp_.entries.resize(n);
  one_pass_sig_ = opts_.suppress_equivalent && policy_.supports_equivalence() &&
                  sources_.empty() && policy_.interesting().empty();
  fib_sig_ = walks_.signature(dp_, {}, {});
}

ExploreResult Explorer::run() {
  const auto start = std::chrono::steady_clock::now();
  has_deadline_ = opts_.budget.deadline.count() > 0;
  deadline_ = deadline_after(start, opts_.budget.deadline);
  // The bitstate store or a single followed execution covers only part of
  // the state space: no violation then is not a proof.
  result_.exhaustive = can_prove(opts_);
  explore_failures(0, nullptr);
  result_.stats.frontier_peak = engine_->frontier_peak();
  account_model_bytes();
  result_.stats.elapsed = std::chrono::steady_clock::now() - start;
  return std::move(result_);
}

std::size_t Explorer::account_model_bytes() {
  SearchStats& s = result_.stats;
  s.bytes_paths = ctx_.paths.bytes();
  s.bytes_routes = ctx_.routes.bytes();
  s.bytes_visited = failure_sets_seen_.bytes() + signatures_seen_.bytes();
  if (visited_) {
    s.bytes_visited += visited_->bytes();
  } else if (por_) {
    s.bytes_visited += por_index_.bytes() +
                       por_entries_.capacity() * sizeof(PorEntry) +
                       por_pool_.capacity() * sizeof(std::uint64_t) +
                       indep_.bytes();
  }
  s.bytes_ad_cache = ad_cache_.bytes();
  std::size_t stack = status_log_.capacity() * sizeof(NodeStatus) +
                      s.max_depth * sizeof(TrailEvent) * 2;
  for (const auto& r : rib_) stack += r.capacity() * sizeof(RouteId);
  for (const auto& st : status_) stack += st.capacity() * sizeof(NodeStatus);
  s.bytes_stack_peak = stack + engine_->bytes();
  return s.model_bytes();
}

bool Explorer::budget_exhausted() {
  if (result_.budget_tripped != BudgetKind::kNone) return true;
  // The state cap is checked on every call: trip points are a deterministic
  // function of the exploration order, so two runs with the same budget stop
  // at the same state (the budget-determinism tests pin this down).
  if (opts_.budget.max_states != 0 &&
      result_.stats.states_stored > opts_.budget.max_states) {
    result_.budget_tripped = BudgetKind::kStates;
    return true;
  }
  // Clock reads and memory accounting amortize over 256 model steps to stay
  // off the hot path.
  if ((++limit_check_counter_ & 0xff) != 0) return false;
  ++result_.stats.budget_checks;
  if (has_deadline_ && std::chrono::steady_clock::now() > deadline_) {
    result_.budget_tripped = BudgetKind::kDeadline;
    return true;
  }
  if (opts_.budget.max_bytes != 0 &&
      account_model_bytes() > opts_.budget.max_bytes) {
    result_.budget_tripped = BudgetKind::kMemory;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Failure phase (§4.1.4, §4.3)
// ---------------------------------------------------------------------------

const std::vector<std::uint64_t>& Explorer::dec_signatures() const {
  // The signature is failure-independent (config, PEC, policy only), but it
  // used to be recomputed — with O(nodes × prefixes) std::find scans — at
  // every node of the failure tree. Compute once, reuse everywhere.
  if (!dec_sigs_.empty()) return dec_sigs_;
  std::vector<std::uint64_t> sig(net_.topo.node_count());
  for (NodeId n = 0; n < sig.size(); ++n) {
    const auto& dev = net_.device(n);
    std::uint64_t h = hash_mix(dev.ospf.enabled ? 2 : 1);
    if (dev.bgp) h = hash_combine(h, dev.bgp->asn + 1);
    for (std::size_t pi = 0; pi < pec_.prefixes.size(); ++pi) {
      const PecPrefix& pp = pec_.prefixes[pi];
      if (std::find(pp.ospf_origins.begin(), pp.ospf_origins.end(), n) !=
          pp.ospf_origins.end()) {
        h = hash_combine(h, 0x10 + pi * 4);
      }
      if (std::find(pp.bgp_origins.begin(), pp.bgp_origins.end(), n) !=
          pp.bgp_origins.end()) {
        h = hash_combine(h, 0x11 + pi * 4);
      }
      for (const auto& [dev_id, idx] : pp.static_routes) {
        if (dev_id != n) continue;
        const StaticRoute& sr = net_.device(n).statics[idx];
        h = hash_combine(h, 0x12 + pi * 4);
        std::uint64_t mode = 1;
        if (sr.via_neighbor != kNoNode) {
          mode = 2 + std::uint64_t{sr.via_neighbor};
        } else if (sr.via_ip) {
          mode = hash_mix(sr.via_ip->value());
        }
        h = hash_combine(h, mode);
      }
    }
    for (const NodeId s : sources_) {
      if (s == n) h = hash_combine(h, 0x50adull);
    }
    // Interesting nodes each get a unique color so DEC merging never
    // repositions them (§4.3).
    const auto interesting = policy_.interesting();
    for (std::size_t i = 0; i < interesting.size(); ++i) {
      if (interesting[i] == n) h = hash_combine(h, 0x9000 + i);
    }
    sig[n] = h;
  }
  dec_sigs_ = std::move(sig);
  return dec_sigs_;
}

std::vector<LinkId> Explorer::failure_candidates(LinkId next_link) const {
  if (opts_.lec_failures) {
    // (The LEC branch used to construct-and-discard a scratch vector for
    // the exhaustive path below; keep each mode's storage to itself.)
    const DecPartition dec =
        DecPartition::compute(net_.topo, dec_signatures(), failures_);
    return dec.lec_representatives(net_.topo, failures_);
  }
  std::vector<LinkId> out;
  for (LinkId l = next_link; l < net_.topo.link_count(); ++l) {
    if (!failures_.is_failed(l)) out.push_back(l);
  }
  return out;
}

Explorer::Flow Explorer::explore_failures(LinkId next_link,
                                          const std::vector<std::uint8_t>* dag) {
  if (budget_exhausted()) return Flow::kStop;
  // Different LEC pick orders can produce the same failure set; explore each
  // set once. (With ordered enumeration the hash is unique anyway.)
  if (!failure_sets_seen_.insert(hash_combine(failures_.hash(), 0xfee1))) {
    return Flow::kContinue;
  }
  const std::size_t violations_before = result_.violations.size();
  if (dag == nullptr && check_failure_set() == Flow::kStop) return Flow::kStop;
  if (static_cast<int>(failures_.count()) >= opts_.max_failures) {
    return Flow::kContinue;
  }
  // Failure relevance: below a violation-free run, failing a link that no
  // route can cross replays the same RIB sequence to the same data plane.
  std::vector<std::uint8_t> own_dag;
  if (dag == nullptr && failure_relevance_ &&
      result_.violations.size() == violations_before &&
      unbound_upstream(failures_)) {
    own_dag = spf_dag_links();
    dag = &own_dag;
  }
  for (const LinkId l : failure_candidates(next_link)) {
    const FailureSet saved = failures_;
    failures_.fail(l);
    TrailEvent ev;
    ev.kind = TrailEvent::Kind::kFailLink;
    ev.link = l;
    trail_.events.push_back(ev);
    const bool same_run =
        dag != nullptr && (*dag)[l] == 0 && unbound_upstream(failures_);
    const Flow f =
        explore_failures(opts_.lec_failures ? 0 : l + 1, same_run ? dag : nullptr);
    trail_.events.pop_back();
    failures_ = saved;
    if (f == Flow::kStop) return Flow::kStop;
  }
  return Flow::kContinue;
}

std::vector<std::uint8_t> Explorer::spf_dag_links() const {
  std::vector<std::uint8_t> on_dag(net_.topo.link_count(), 0);
  for (const PrefixTask& t : tasks_) {
    // failure_relevance_ admits OSPF tasks only, and make_tasks builds an
    // OspfProcess for each. It also requires one link per pair of devices,
    // so each parent arc is one link.
    const auto& ospf = static_cast<const OspfProcess&>(*t.process);
    for (const NodeId x : ospf.spf_order()) {
      for (const NodeId p : ospf.spf_parents(x)) {
        on_dag[net_.topo.find_link(x, p)] = 1;
      }
    }
  }
  return on_dag;
}

bool Explorer::unbound_upstream(const FailureSet& f) const {
  if (upstream_provider_ == nullptr) return true;
  const std::vector<const UpstreamResolver*> ups = upstream_provider_->outcomes(f);
  return ups.size() == 1 && ups.front() == nullptr;
}

Explorer::Flow Explorer::check_failure_set() {
  ++result_.stats.failure_sets;
  std::vector<const UpstreamResolver*> ups;
  if (upstream_provider_ != nullptr) {
    ups = upstream_provider_->outcomes(failures_);
    if (ups.empty()) return Flow::kContinue;  // upstream has no converged state
  } else {
    ups.push_back(nullptr);
  }
  for (std::size_t i = 0; i < ups.size(); ++i) {
    // An upstream outcome resolves iBGP and recursive static next hops, so
    // the FIB starts over under every binding but none-after-none.
    if (ups[i] != nullptr || ctx_.upstream != nullptr) fib_full_ = true;
    ctx_.upstream = ups[i];
    for (auto& t : tasks_) t.process->prepare(failures_, ctx_);
    if (por_) por_prepare();
    if (opts_.ad_cache && !spf_pass_) {
      // One cache generation per (failure set, upstream outcome index):
      // prepare() changed the live-peer lists, and upstream-dependent
      // advertised() results (iBGP IGP costs, next-hop resolvability) must
      // never be reused across ctx_.upstream bindings. A pass never reads
      // the cache; rebuild_statuses() binds it if expand() is called later.
      ad_cache_.invalidate();
      for (std::size_t t = 0; t < tasks_.size(); ++t) {
        ad_cache_.bind(t, *tasks_[t].process, net_.topo.node_count());
      }
    }
    codec_.begin_root(failures_.hash(),
                      ups[i] != nullptr ? ups[i]->outcome_hash() : 0);
    const bool note = ups.size() > 1;
    if (note) {
      TrailEvent ev;
      ev.kind = TrailEvent::Kind::kUpstreamOutcome;
      ev.phase = static_cast<std::uint32_t>(i);
      trail_.events.push_back(ev);
    }
    const Flow f = begin_phase(0);
    if (note) trail_.events.pop_back();
    if (f == Flow::kStop) return Flow::kStop;
  }
  return Flow::kContinue;
}

// ---------------------------------------------------------------------------
// Per-prefix RPVP phases
// ---------------------------------------------------------------------------

Explorer::Flow Explorer::begin_phase(std::size_t task_idx) {
  if (task_idx == tasks_.size()) return handle_converged();
  codec_.begin_phase(task_idx);
  auto& proc = *tasks_[task_idx].process;
  auto& rib = rib_[task_idx];
  std::fill(rib.begin(), rib.end(), kNoRoute);
  for (const NodeId o : proc.origins()) {
    const RouteId r = proc.origin_route(o, ctx_);
    rib[o] = r;
    codec_.record(task_idx, o, kNoRoute, r);
  }
  TrailEvent ev;
  ev.kind = TrailEvent::Kind::kBeginPrefix;
  ev.phase = static_cast<std::uint32_t>(task_idx);
  trail_.events.push_back(ev);
  Flow f = Flow::kContinue;
  if (spf_pass_) {
    // The pass keeps no statuses; expand() rebuilds them if a caller asks.
    statuses_stale_[task_idx] = 1;
    f = spf_pass(task_idx);
  } else {
    rebuild_statuses(task_idx);
    if (por_) {
      // Fresh phase subtree: empty sleep set at the root, and races never
      // reach past the phase entry (the previous phases' moves are fixed
      // context for this phase, not reorderable events).
      por_ensure_depth(por_depth_);
      std::fill_n(sleep_stack_.begin() + por_depth_ * sleep_words_,
                  sleep_words_, 0);
      std::fill_n(subtree_stack_.begin() + por_depth_ * sleep_words_,
                  sleep_words_, 0);
      entry_stack_[por_depth_] = kPorNoEntry;
      phase_root_stack_.push_back(por_depth_);
    }
    f = engine_->search(*this, task_idx);
    if (por_) phase_root_stack_.pop_back();
  }
  trail_.events.pop_back();
  return f;
}

void Explorer::rebuild_statuses(std::size_t task_idx) {
  // From scratch; from here on refresh_node maintains the statuses and the
  // active set incrementally (dirty-set protocol).
  if (spf_pass_ && opts_.ad_cache) {
    // check_failure_set() left the cache unbound for the pass.
    ad_cache_.invalidate();
    ad_cache_.bind(task_idx, *tasks_[task_idx].process,
                   net_.topo.node_count());
  }
  active_[task_idx].clear();
  for (auto& st : status_[task_idx]) st = NodeStatus{};
  for (const NodeId m : tasks_[task_idx].process->members()) {
    refresh_node(task_idx, m);
  }
  statuses_stale_[task_idx] = 0;
}

Explorer::Flow Explorer::spf_pass(std::size_t task_idx) {
  // The one path of an SPF-ordered phase (docs/architecture.md "SPF-ordered
  // phases"): each reachable non-origin member adopts the merge of its
  // shortest-path parents' advertisements, in (dist, id) order. Any other
  // committed peer's advertisement costs more than dist(x), so merge() would
  // drop it; the parents come in peers() order, so merge() picks the same
  // first best update and the same representative path. Each state gets
  // what the DFS engine and apply() give it: a budget check and a
  // stored-state count, and per commit a deterministic step, a transition
  // and a trail event. No state on the path is §4.1.1-inconsistent, and the
  // last one has nothing enabled, so the path ends in advance() unless the
  // budget stops it.
  // The order comes from the Dijkstra settle order (spf_order()), which
  // needs no sort: with positive costs a (dist, id) heap settles nodes in
  // exactly that order.
  //
  // The pass counts its states instead of probing the visited store, since
  // none can repeat within run(): a phase's pass runs once per (failure set,
  // upstream outcome), as every phase before it is one pass with one end
  // state; the state key mixes in both; and each commit adds a route at a
  // node that had none.
  //
  // After the no-failure run, whose RIB base_rib_ keeps, a node takes its
  // no-failure route without advertised() or merge() when prepare() left
  // its parents and their sessions as they were and each parent holds its
  // no-failure route: by induction over the order, both merge inputs are
  // those of the no-failure run, and routes are interned by content
  // (docs/architecture.md "Failure-set runs reuse the no-failure run").
  const auto& proc = static_cast<const OspfProcess&>(*tasks_[task_idx].process);
  const std::span<const NodeId> order = proc.spf_order();
  const std::vector<std::uint8_t>& is_origin = is_origin_[task_idx];
  auto& rib = rib_[task_idx];
  const std::vector<RouteId>& base = base_rib_[task_idx];
  if (!base.empty()) {
    spf_changed_.begin();
    for (const NodeId x : proc.spf_changed()) spf_changed_.mark(x);
  }
  const auto keeps_base_route = [&](NodeId x) {
    if (base.empty() || spf_changed_.marked(x)) return false;
    for (const NodeId p : proc.spf_parents(x)) {
      if (rib[p] != base[p]) return false;
    }
    return true;
  };
  const auto store = [this] {
    ++result_.stats.states_stored;
    result_.stats.max_depth =
        std::max<std::uint64_t>(result_.stats.max_depth, trail_.events.size());
  };
  if (budget_exhausted()) return Flow::kStop;
  store();
  Flow flow = Flow::kContinue;
  std::size_t end = 0;  // order[0, end) is committed (or an origin)
  while (end < order.size()) {
    const NodeId x = order[end++];
    if (is_origin[x] != 0) continue;
    assert(member_[task_idx][x] != 0);
    RouteId r = kNoRoute;
    if (keeps_base_route(x)) {
      r = base[x];
      ++result_.stats.routes_reused;
    } else {
      advs_scratch_.clear();
      for (const NodeId p : proc.spf_parents(x)) {
        advs_scratch_.push_back(proc.advertised(p, x, rib[p], ctx_));
      }
      r = proc.merge(x, advs_scratch_, ctx_);
    }
    // A reachable member with no candidate means the lemma does not hold.
    assert(r != kNoRoute);
    ++result_.stats.det_steps;
    rib[x] = r;
    codec_.record(task_idx, x, kNoRoute, r);
    TrailEvent ev;
    ev.kind = TrailEvent::Kind::kSelect;
    ev.phase = static_cast<std::uint32_t>(task_idx);
    ev.node = x;
    ev.route = r;
    trail_.events.push_back(ev);
    ++result_.stats.states_explored;
    if (budget_exhausted()) {
      flow = Flow::kStop;
      break;
    }
    store();
  }
  if (flow != Flow::kStop) {
    if (failures_.empty() && base.empty()) base_rib_[task_idx] = rib;
    flow = advance(task_idx);
  }
  while (end > 0) {
    const NodeId x = order[--end];
    if (is_origin[x] != 0) continue;
    trail_.events.pop_back();
    codec_.record(task_idx, x, rib[x], kNoRoute);
    rib[x] = kNoRoute;
  }
  return flow;
}

Explorer::Flow Explorer::advance(std::size_t task_idx) {
  return begin_phase(task_idx + 1);
}

bool Explorer::mark_visited(std::size_t task_idx) {
  if (por_) return por_mark_visited(task_idx);
  if (!visited_->insert(codec_.state_key(task_idx))) {
    ++result_.stats.revisits_skipped;
    return false;
  }
  ++result_.stats.states_stored;
  result_.stats.max_depth =
      std::max<std::uint64_t>(result_.stats.max_depth, trail_.events.size());
  return true;
}

void Explorer::refresh_node(std::size_t task_idx, NodeId n) {
  auto& proc = *tasks_[task_idx].process;
  NodeStatus& st = status_[task_idx][n];
  const bool was_enabled = st.enabled;
  st = NodeStatus{};
  ++result_.stats.dirty_refreshes;
  if (is_origin_[task_idx][n] != 0 || member_[task_idx][n] == 0) {
    if (was_enabled) active_[task_idx].erase(n);
    return;
  }
  auto& rib = rib_[task_idx];
  const StateView view(rib);
  const RouteId cur = rib[n];
  const std::span<const NodeId> peers = proc.peers(n);
  if (proc.merge_equal_updates() && opts_.merge_updates) {
    advs_scratch_.clear();
    for (std::size_t i = 0; i < peers.size(); ++i) {
      advs_scratch_.push_back(adv(proc, task_idx, n, i, peers[i]));
    }
    const RouteId cand = proc.merge(n, advs_scratch_, ctx_);
    st.merge_candidate = cand;
    st.enabled = cand != cur;
  } else {
    const bool invalid = cur != kNoRoute && !proc.valid(n, cur, view, ctx_);
    const RouteId base = invalid ? kNoRoute : cur;
    bool can_update = false;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const RouteId a = adv(proc, task_idx, n, i, peers[i]);
      if (a != kNoRoute && proc.compare(n, a, base, ctx_) > 0) {
        can_update = true;
        break;
      }
    }
    st.enabled = invalid || can_update;
  }
  st.conflict = st.enabled && cur != kNoRoute && opts_.consistent_only;
  if (st.enabled != was_enabled) {
    if (st.enabled) {
      active_[task_idx].insert(n);
    } else {
      active_[task_idx].erase(n);
    }
  }
}

void Explorer::collect_updates(std::size_t task_idx, NodeId n) {
  updates_scratch_.clear();
  update_peers_scratch_.clear();
  auto& proc = *tasks_[task_idx].process;
  if (proc.merge_equal_updates() && opts_.merge_updates) {
    updates_scratch_.push_back(status_[task_idx][n].merge_candidate);
    update_peers_scratch_.push_back(kNoNode);
    return;
  }
  auto& rib = rib_[task_idx];
  const StateView view(rib);
  const RouteId cur = rib[n];
  const bool invalid = cur != kNoRoute && !proc.valid(n, cur, view, ctx_);
  const RouteId base = invalid ? kNoRoute : cur;
  const std::span<const NodeId> peers = proc.peers(n);
  cands_scratch_.clear();
  for (std::size_t i = 0; i < peers.size(); ++i) {
    const RouteId a = adv(proc, task_idx, n, i, peers[i]);
    if (a != kNoRoute && proc.compare(n, a, base, ctx_) > 0) {
      cands_scratch_.emplace_back(a, peers[i]);
    }
  }
  // U = best(...) — the maximal elements of the ranking (line 13 of Alg. 1).
  for (const auto& [r, p] : cands_scratch_) {
    bool dominated = false;
    for (const auto& [r2, p2] : cands_scratch_) {
      (void)p2;
      if (proc.compare(n, r2, r, ctx_) > 0) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      updates_scratch_.push_back(r);
      update_peers_scratch_.push_back(p);
    }
  }
}

bool Explorer::sources_all_committed(std::size_t task_idx) const {
  for (const NodeId s : sources_) {
    if (member_[task_idx][s] != 0 && rib_[task_idx][s] == kNoRoute) return false;
  }
  return true;
}

void Explorer::compute_influencers(std::size_t task_idx) {
  influencer_.begin();  // O(1) epoch bump, not an O(nodes) refill
  auto& proc = *tasks_[task_idx].process;
  auto& rib = rib_[task_idx];
  bfs_queue_.clear();
  for (const NodeId s : sources_) {
    if (member_[task_idx][s] != 0 && rib[s] == kNoRoute &&
        !influencer_.marked(s)) {
      influencer_.mark(s);
      bfs_queue_.push_back(s);
    }
  }
  // Advertisements reach an uncommitted source only through uncommitted
  // nodes (§4.2): committed nodes never re-advertise (§4.1.1).
  while (!bfs_queue_.empty()) {
    const NodeId n = bfs_queue_.back();
    bfs_queue_.pop_back();
    for (const NodeId p : proc.peers(n)) {
      if (influencer_.marked(p)) continue;
      if (rib[p] != kNoRoute) continue;  // committed: blocks propagation
      influencer_.mark(p);
      bfs_queue_.push_back(p);
    }
  }
}

bool Explorer::influence_allows(NodeId n) const {
  return !influence_active_ || influencer_.marked(n);
}

void Explorer::apply(std::size_t task_idx, SearchMove& m) {
  auto& rib = rib_[task_idx];
  m.prev = rib[m.node];
  rib[m.node] = m.route;
  codec_.record(task_idx, m.node, m.prev, m.route);
  TrailEvent ev;
  ev.kind = m.kind == SearchMove::Kind::kWithdraw ? TrailEvent::Kind::kWithdraw
                                                  : TrailEvent::Kind::kSelect;
  ev.phase = static_cast<std::uint32_t>(task_idx);
  ev.node = m.node;
  ev.peer = m.peer;
  ev.route = m.route;
  trail_.events.push_back(ev);
  // The dirty set is the move's node and its peers. Log their pre-move
  // statuses as one frame, then recompute them for the new RIB.
  const std::span<const NodeId> peers = tasks_[task_idx].process->peers(m.node);
  const auto& status = status_[task_idx];
  status_log_.push_back(status[m.node]);
  for (const NodeId p : peers) status_log_.push_back(status[p]);
  refresh_node(task_idx, m.node);
  for (const NodeId p : peers) refresh_node(task_idx, p);
  if (por_) por_on_apply(task_idx, m);
  ++result_.stats.states_explored;
}

void Explorer::undo(std::size_t task_idx, const SearchMove& m) {
  if (por_) por_on_undo(task_idx, m);
  trail_.events.pop_back();
  rib_[task_idx][m.node] = m.prev;
  codec_.record(task_idx, m.node, m.route, m.prev);
  // Pop apply()'s frame in reverse. A status is a pure function of the
  // node's and its peers' RIB entries (protocols/process.hpp), and moves
  // undo in LIFO order (engine/search.hpp), so the logged statuses are
  // exactly what a recomputation would return here.
  const std::span<const NodeId> peers = tasks_[task_idx].process->peers(m.node);
  for (std::size_t i = peers.size(); i-- > 0;) {
    restore_status(task_idx, peers[i]);
  }
  restore_status(task_idx, m.node);
}

void Explorer::restore_status(std::size_t task_idx, NodeId n) {
  const NodeStatus saved = status_log_.back();
  status_log_.pop_back();
  NodeStatus& st = status_[task_idx][n];
  if (saved.enabled != st.enabled) {
    if (saved.enabled) {
      active_[task_idx].insert(n);
    } else {
      active_[task_idx].erase(n);
    }
  }
  st = saved;
}

Explorer::Step Explorer::expand(std::size_t task_idx,
                                std::vector<SearchMove>& moves,
                                std::size_t move_budget) {
  auto& proc = *tasks_[task_idx].process;
  if (statuses_stale_[task_idx] != 0) rebuild_statuses(task_idx);

  // The active set holds exactly the members whose status is enabled
  // (conflict implies enabled), maintained incrementally by refresh_node and
  // iterated in ascending id order — the same nodes, in the same order, the
  // O(members) rescan below visits. The rescan is kept as the reference
  // path (opt matrix, tests/test_exploration_equivalence.cpp).
  const std::span<const NodeId> scan =
      opts_.incremental_expand ? active_[task_idx].items()
                               : std::span<const NodeId>(proc.members());
  enabled_scratch_.clear();
  std::vector<NodeId>& enabled = enabled_scratch_;
  for (const NodeId n : scan) {
    const NodeStatus& st = status_[task_idx][n];
    if (st.conflict) {
      // §4.1.1: a committed node wants to change. Only committed peers
      // advertise, an invalid route's next hop is committed, and a committed
      // node never changes, so the conflict persists on every consistent
      // extension: no converged state extends this execution.
      ++result_.stats.pruned_inconsistent;
      por_mark_terminal();  // inconsistency is sleep-set-independent
      return Step::kPruned;
    }
    if (st.enabled) enabled.push_back(n);
  }

  // §4.2 influence pruning only narrows the enabled set: a node that cannot
  // reach an uncommitted source through uncommitted nodes need not move.
  if (influence_active_) {
    compute_influencers(task_idx);
    std::erase_if(enabled, [&](NodeId n) { return !influence_allows(n); });
  }

  if (enabled.empty()) {
    por_mark_terminal();
    return Step::kConverged;  // converged (E = ∅)
  }

  // §4.2: once every source has decided, the policy outcome for this phase
  // is fixed; finish the execution here.
  if (early_stop_ok_ && sources_all_committed(task_idx)) {
    por_mark_terminal();
    return Step::kConverged;
  }

  // §4.1.2: deterministic nodes first.
  const bool det_allowed =
      opts_.deterministic_nodes && opts_.consistent_only &&
      (tasks_[task_idx].process->protocol() != Protocol::kEbgp || opts_.det_nodes_bgp);
  if (det_allowed) {
    bool tie_ok = false;
    const NodeId dn = proc.deterministic_node(enabled, StateView(rib_[task_idx]),
                                              ctx_, tie_ok);
    if (dn != kNoNode) {
      collect_updates(task_idx, dn);
      if (!updates_scratch_.empty()) {
        // Branch over this node's (possibly tied) updates only (Fig. 6,
        // steps 4-5).
        if (!tie_ok && updates_scratch_.size() == 1) {
          ++result_.stats.det_steps;
        } else {
          ++result_.stats.nondet_branches;
        }
        enabled.assign(1, dn);
        return emit_moves(task_idx, moves, enabled, move_budget, true);
      }
    }
  }

  // §4.1.3: decision independence — branch only inside the uncommitted
  // component containing the lowest enabled node; other components commute.
  if (opts_.decision_independence && enabled.size() > 1) {
    auto& rib = rib_[task_idx];
    in_comp_.begin();
    bfs_queue_.clear();
    bfs_queue_.push_back(enabled.front());
    in_comp_.mark(enabled.front());
    while (!bfs_queue_.empty()) {
      const NodeId n = bfs_queue_.back();
      bfs_queue_.pop_back();
      for (const NodeId p : proc.peers(n)) {
        if (in_comp_.marked(p) || rib[p] != kNoRoute) continue;
        // Only information flow couples decisions: skip session edges over
        // which neither endpoint can ever send a new advertisement.
        if (!proc.can_transmit(n, p) && !proc.can_transmit(p, n)) continue;
        in_comp_.mark(p);
        bfs_queue_.push_back(p);
      }
    }
    filtered_scratch_.clear();
    for (const NodeId n : enabled) {
      if (in_comp_.marked(n)) filtered_scratch_.push_back(n);
    }
    if (!filtered_scratch_.empty()) enabled.swap(filtered_scratch_);
  }

  if (early_stop_ok_ && enabled.size() > 1) {
    // Cut-minimizing emission order: uncommitted policy sources first, so the
    // canonical (first-explored) linearizations reach the §4.2 source-commit
    // cut with as little irrelevant progress as possible; under POR, sleep
    // and source sets then prune most late-source orderings. Applied
    // unconditionally so the single-execution engine's leftmost path is the
    // same path every exhaustive engine (POR on or off) explores first.
    std::stable_partition(enabled.begin(), enabled.end(), [&](NodeId n) {
      return is_source_node_[n] != 0;
    });
  }

  return emit_moves(task_idx, moves, enabled, move_budget, false);
}

Explorer::Step Explorer::emit_moves(std::size_t task_idx,
                                    std::vector<SearchMove>& moves,
                                    std::vector<NodeId>& nodes,
                                    std::size_t move_budget,
                                    bool deterministic) {
  const std::size_t w = sleep_words_;
  std::uint64_t* emitted = nullptr;
  std::size_t emit_n = nodes.size();
  if (por_) {
    const std::uint64_t* sleep = &sleep_stack_[por_depth_ * w];
    std::size_t kept = 0;
    for (const NodeId n : nodes) {
      if (mask_test(sleep, n)) continue;  // covered by an earlier sibling
      if (!por_mask_scratch_.empty() &&
          !mask_test(por_mask_scratch_.data(), n)) {
        continue;  // difference rule: covered by the stored visit
      }
      nodes[kept++] = n;
    }
    result_.stats.por_pruned += nodes.size() - kept;
    nodes.resize(kept);
    por_mask_scratch_.clear();
    if (kept == 0) return Step::kPruned;  // not terminal: context-dependent
    por_ensure_depth(por_depth_);
    std::uint64_t* enabled = &enabled_stack_[por_depth_ * w];
    emitted = &emitted_stack_[por_depth_ * w];
    std::fill_n(enabled, w, 0);
    std::fill_n(emitted, w, 0);
    std::fill_n(bt_stack_.begin() + por_depth_ * w, w, 0);
    std::fill_n(prior_stack_.begin() + por_depth_ * w, w, 0);
    for (const NodeId n : nodes) mask_set(enabled, n);
    // Source-set lazy emission: hand the engine only the first awake node's
    // moves. Races observed inside its subtree request exactly the siblings
    // whose orderings that subtree does not cover (por_race → por_extend);
    // everything never requested is never explored. Deterministic states are
    // the §4.1.2 exception: dn alone is the theorem's choice, and with
    // enabled = emitted = {dn} race requests here resolve to nothing.
    if (!deterministic) {
      emit_n = 1;
      if (kept > 1) ++result_.stats.por_source_sets;
    }
  }
  // A state counts once as a branch point when it offers several nodes or
  // one node several updates; without POR a withdraw does not set the count
  // off. The deterministic path counted its own step.
  bool counted = deterministic;
  for (std::size_t i = 0; i < emit_n; ++i) {
    if (moves.size() >= move_budget) break;  // engine won't take more
    const NodeId n = nodes[i];
    if (!deterministic) collect_updates(task_idx, n);
    if (!counted && (nodes.size() > 1 || updates_scratch_.size() > 1) &&
        (por_ || !updates_scratch_.empty())) {
      ++result_.stats.nondet_branches;
      counted = true;
    }
    push_node_moves(n, moves);
    if (por_) mask_set(emitted, n);
  }
  // Difference-rule re-visit: the earlier visit's subtree (seeded into this
  // depth's summary by por_mark_visited) must also file its requests against
  // the enabled frame that now exists — the sweep in por_mark_visited ran
  // before it was set.
  if (por_) por_race_mask(task_idx, &subtree_stack_[por_depth_ * w]);
  return Step::kBranch;
}

void Explorer::push_node_moves(NodeId n, std::vector<SearchMove>& moves) const {
  if (updates_scratch_.empty()) {
    // Invalid node with no usable advertisement: withdraw (naive mode).
    SearchMove m;
    m.kind = SearchMove::Kind::kWithdraw;
    m.node = n;
    m.route = kNoRoute;
    moves.push_back(m);
    return;
  }
  for (std::size_t i = 0; i < updates_scratch_.size(); ++i) {
    SearchMove m;
    m.kind = SearchMove::Kind::kSelect;
    m.node = n;
    m.peer = update_peers_scratch_[i];
    m.route = updates_scratch_[i];
    moves.push_back(m);
  }
}

// ---------------------------------------------------------------------------
// Dynamic partial-order reduction (sleep + source sets)
// docs/architecture.md "Partial-order reduction"
// ---------------------------------------------------------------------------

void Explorer::por_prepare() {
  // Once per (failure set × upstream outcome): peers() — and with it the
  // move footprints — depend on which sessions the failure set leaves up.
  const auto t0 = std::chrono::steady_clock::now();
  indep_.reset(tasks_.size(), net_.topo.node_count());
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    const auto& proc = *tasks_[t].process;
    for (const NodeId m : proc.members()) {
      indep_.add_transition(t, m, proc.peers(m));
    }
  }
  result_.stats.por_footprint_time +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0);
}

void Explorer::por_ensure_depth(std::size_t depth) {
  const std::size_t need = (depth + 1) * sleep_words_;
  if (sleep_stack_.size() < need) {
    sleep_stack_.resize(need, 0);
    prior_stack_.resize(need, 0);
    enabled_stack_.resize(need, 0);
    emitted_stack_.resize(need, 0);
    bt_stack_.resize(need, 0);
    subtree_stack_.resize(need, 0);
  }
  if (entry_stack_.size() <= depth) {
    entry_stack_.resize(depth + 1, kPorNoEntry);
  }
}

bool Explorer::por_mark_visited(std::size_t task_idx) {
  const std::size_t w = sleep_words_;
  const std::uint64_t* cur = &sleep_stack_[por_depth_ * w];
  // The re-exploration restriction (difference rule below) applies only to
  // the expand() that immediately follows; every visit starts unrestricted.
  por_mask_scratch_.clear();
  const std::uint64_t key = codec_.state_key(task_idx);
  const auto fresh = static_cast<std::uint32_t>(por_entries_.size() + 1);
  const std::uint32_t id = por_index_.find_or_insert(
      key, fresh, [&](std::uint32_t c) { return por_entries_[c - 1].key == key; });
  const std::uint32_t idx = id - 1;  // index ids are entry index + 1
  if (id == fresh) {
    PorEntry e;
    e.key = key;
    e.off = static_cast<std::uint32_t>(por_pool_.size());
    por_entries_.push_back(e);
    por_pool_.insert(por_pool_.end(), cur, cur + w);  // the arrival sleep set
    por_pool_.insert(por_pool_.end(), w, 0);          // subtree summary
    ++result_.stats.states_stored;
    por_cur_entry_ = idx;
    entry_stack_[por_depth_] = idx;
    result_.stats.max_depth =
        std::max<std::uint64_t>(result_.stats.max_depth, trail_.events.size());
    return true;
  }
  PorEntry& e = por_entries_[idx];
  if ((e.flags & kPorTerminal) != 0) {
    // Converged or inconsistency-pruned: the classification is independent
    // of the sleep set, so the revisit is always redundant.
    ++result_.stats.revisits_skipped;
    return false;
  }
  std::uint64_t* stored = &por_pool_[e.off];
  bool subset = true;
  for (std::size_t i = 0; i < w; ++i) {
    if ((stored[i] & ~cur[i]) != 0) {
      subset = false;
      break;
    }
  }
  // Whether we skip or partially re-explore, the subtree explored from this
  // state on earlier visits stays part of the current path's coverage:
  // replay its executed-node summary against the path for source-set race
  // detection, and seed the live summary with it so ancestors inherit it
  // (por_on_undo).
  const std::uint64_t* sum = stored + w;
  std::copy(sum, sum + w, subtree_stack_.begin() + por_depth_ * w);
  por_race_mask(task_idx, sum);
  if (subset) {
    // stored ⊆ current: every move awake now was awake then — the earlier
    // exploration covers this visit entirely.
    ++result_.stats.revisits_skipped;
    return false;
  }
  // Godefroid's difference rule (state caching + sleep sets): re-explore
  // only the moves that were asleep on the stored visit but are awake now
  // (stored ∖ current) — everything else is covered by the earlier visit.
  // Children keep the plain arrival sleep set; the restriction is an
  // emission filter, not a sleep set. The stored mask shrinks to the
  // intersection, strictly, which bounds the number of re-visits.
  por_mask_scratch_.resize(w);
  for (std::size_t i = 0; i < w; ++i) {
    por_mask_scratch_[i] = stored[i] & ~cur[i];
    stored[i] &= cur[i];
  }
  por_cur_entry_ = idx;
  entry_stack_[por_depth_] = idx;
  result_.stats.max_depth =
      std::max<std::uint64_t>(result_.stats.max_depth, trail_.events.size());
  return true;
}

void Explorer::por_mark_terminal() {
  if (!por_ || por_cur_entry_ == kPorNoEntry) return;
  por_entries_[por_cur_entry_].flags |= kPorTerminal;
}

void Explorer::por_on_apply(std::size_t task_idx, const SearchMove& m) {
  const std::size_t w = sleep_words_;
  const std::size_t d = por_depth_;
  por_ensure_depth(d + 1);
  // Classic sleep-set inheritance: the child sleeps everything the parent
  // slept plus the siblings explored before this move, minus whatever this
  // move conflicts with. Only *previously explored* siblings go in (prior),
  // never later ones — mutual sleeping would drop both orders of an
  // independent pair.
  sleep_child(&sleep_stack_[(d + 1) * w], &sleep_stack_[d * w],
              &prior_stack_[d * w], indep_.row(task_idx, m.node), w);
  mask_set(&prior_stack_[d * w], m.node);
  por_race(task_idx, m.node, d);
  ++por_depth_;
  // Fresh frames for the child state — por_on_undo and por_race read them
  // even when the child is skipped as visited and never expands.
  std::fill_n(subtree_stack_.begin() + (d + 1) * w, w, 0);
  std::fill_n(enabled_stack_.begin() + (d + 1) * w, w, 0);
  std::fill_n(emitted_stack_.begin() + (d + 1) * w, w, 0);
  std::fill_n(bt_stack_.begin() + (d + 1) * w, w, 0);
  entry_stack_[d + 1] = kPorNoEntry;
}

void Explorer::por_on_undo(std::size_t task_idx, const SearchMove& m) {
  (void)task_idx;
  const std::size_t w = sleep_words_;
  const std::size_t child = por_depth_;
  const std::size_t d = child - 1;
  // The child's expansion is complete: persist what its subtree executed so
  // future cache hits on it can replay the races (merge, never overwrite —
  // difference-rule re-visits only add executions).
  const std::uint32_t e = entry_stack_[child];
  if (e != kPorNoEntry) {
    std::uint64_t* sum = &por_pool_[por_entries_[e].off + w];
    for (std::size_t i = 0; i < w; ++i) sum[i] |= subtree_stack_[child * w + i];
  }
  // Awake siblings no race ever demanded are source-set savings.
  for (std::size_t i = 0; i < w; ++i) {
    result_.stats.por_pruned += static_cast<std::uint64_t>(std::popcount(
        enabled_stack_[child * w + i] & ~emitted_stack_[child * w + i]));
  }
  for (std::size_t i = 0; i < w; ++i) {
    subtree_stack_[d * w + i] |= subtree_stack_[child * w + i];
  }
  mask_set(&subtree_stack_[d * w], m.node);
  --por_depth_;
}

void Explorer::por_race(std::size_t task_idx, NodeId node,
                        std::size_t below_depth) {
  // Every awake enabled-but-unexplored sibling of an ancestor state (this
  // phase only — earlier phases are fixed context, not reorderable events)
  // that conflicts with `node` must eventually be explored from that
  // ancestor: only an executed conflicting event can disable it, and a
  // maximal execution cannot end with it still enabled, so a sibling whose
  // first-move class would otherwise be lost is guaranteed to file this
  // request before its class disappears. dep is reflexive, so this subsumes
  // the classic racing-node request (`node` re-requests itself wherever it
  // is an unexplored enabled choice).
  // Empty outside run() (tests drive the SearchModel interface directly):
  // sweep from depth 0, which can only over-request backtracks, never lose.
  const std::size_t root = phase_root_stack_.empty() ? 0 : phase_root_stack_.back();
  const std::uint64_t* dep = indep_.row(task_idx, node);
  const std::size_t w = sleep_words_;
  for (std::size_t i = root; i <= below_depth; ++i) {
    for (std::size_t j = 0; j < w; ++j) {
      bt_stack_[i * w + j] |= enabled_stack_[i * w + j] &
                              ~emitted_stack_[i * w + j] & dep[j];
    }
  }
}

void Explorer::por_race_mask(std::size_t task_idx, const std::uint64_t* mask) {
  // Replaying a cached subtree's executions: one ancestor sweep with the
  // union of their dependence rows instead of one sweep per node.
  const std::size_t w = sleep_words_;
  por_dep_scratch_.assign(w, 0);
  bool any = false;
  for (std::size_t wi = 0; wi < w; ++wi) {
    std::uint64_t bits = mask[wi];
    while (bits != 0) {
      const auto n = static_cast<NodeId>(
          wi * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      const std::uint64_t* dep = indep_.row(task_idx, n);
      for (std::size_t j = 0; j < w; ++j) por_dep_scratch_[j] |= dep[j];
      any = true;
    }
  }
  if (!any) return;
  const std::size_t root = phase_root_stack_.empty() ? 0 : phase_root_stack_.back();
  for (std::size_t i = root; i <= por_depth_; ++i) {
    for (std::size_t j = 0; j < w; ++j) {
      bt_stack_[i * w + j] |= enabled_stack_[i * w + j] &
                              ~emitted_stack_[i * w + j] & por_dep_scratch_[j];
    }
  }
}

void Explorer::por_extend(std::size_t task_idx,
                          std::vector<SearchMove>& moves) {
  if (!por_) return;
  const std::size_t w = sleep_words_;
  const std::size_t d = por_depth_;
  std::uint64_t* bt = &bt_stack_[d * w];
  std::uint64_t* em = &emitted_stack_[d * w];
  const std::uint64_t* en = &enabled_stack_[d * w];
  for (std::size_t i = 0; i < w; ++i) {
    std::uint64_t take = bt[i] & en[i] & ~em[i];
    bt[i] = 0;
    em[i] |= take;
    while (take != 0) {
      const auto n = static_cast<NodeId>(i * 64 +
                                         static_cast<std::size_t>(
                                             std::countr_zero(take)));
      take &= take - 1;
      collect_updates(task_idx, n);
      push_node_moves(n, moves);
    }
  }
}

Explorer::Flow Explorer::handle_converged() {
  ++result_.stats.converged_states;
  ribs_scratch_.clear();
  std::vector<TaskRib>& ribs = ribs_scratch_;
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    ribs.push_back(TaskRib{tasks_[t].prefix_idx, tasks_[t].process->protocol(),
                           rib_[t]});
  }
  // Patched in place: warm, the FIB, the signature and the policy walks
  // below allocate nothing (tests/test_hot_path_alloc.cpp).
  update_dataplane(ribs);
  assert(dataplane_is_fresh(ribs));
  assert(!one_pass_sig_ || fib_sig_ == walks_.signature(dp_, {}, {}));
  const DataPlane& dp = dp_;

  // Outcome recording must happen before equivalence suppression: dependent
  // PECs need every converged state, while suppression only elides redundant
  // *policy checks* (§3.5).
  if (opts_.record_outcomes) {
    // (Duplicate converged data planes reached via different branches are
    // stored once; the outcome hash below is the dedup key.)
    PecOutcome out;
    out.failures = failures_;
    out.upstream_hash =
        ctx_.upstream != nullptr ? ctx_.upstream->outcome_hash() : 0;
    out.dp = dp;
    out.igp_cost.assign(net_.topo.node_count(), kInfiniteCost);
    for (NodeId n = 0; n < net_.topo.node_count(); ++n) {
      for (std::size_t t = 0; t < tasks_.size(); ++t) {
        if (tasks_[t].process->protocol() != Protocol::kOspf) continue;
        const RouteId r = rib_[t][n];
        if (r == kNoRoute) continue;
        out.igp_cost[n] = ctx_.routes.get(r).metric;
        break;  // tasks are in LPM (most-specific-first) prefix order
      }
      if (dp.at(n).kind == FwdKind::kLocal) out.igp_cost[n] = 0;
    }
    std::uint64_t h = hash_combine(out.failures.hash(), out.upstream_hash);
    h = hash_combine(h, hash_span<std::uint32_t>(out.igp_cost));
    for (const auto& e : dp.entries) {
      h = hash_combine(h, static_cast<std::uint64_t>(e.kind));
      h = hash_span<NodeId>(e.nexthops, h);
    }
    out.hash = h;
    const std::size_t seen_bytes = outcomes_seen_.bytes();
    if (outcomes_seen_.insert(h)) {
      // A running total, so the budget check every 256 steps stays O(1):
      // the outcome, its heap, and any growth of the dedup table.
      result_.stats.bytes_outcomes +=
          sizeof(PecOutcome) + out.igp_cost.capacity() * sizeof(std::uint32_t) +
          out.dp.bytes() + (outcomes_seen_.bytes() - seen_bytes);
      result_.outcomes.push_back(std::move(out));
    }
  }

  if (opts_.suppress_equivalent && policy_.supports_equivalence()) {
    const std::uint64_t sig =
        one_pass_sig_ ? fib_sig_
                      : walks_.signature(dp, sources_, policy_.interesting());
    if (!signatures_seen_.insert(sig)) {
      ++result_.stats.suppressed_checks;
      // This plane repeats a checked plane's signature. Until a violation
      // is found every checked plane held, so this one holds too: the
      // premise of suppression itself. After one, it may repeat that one.
      plane_held_ = result_.violations.empty();
      return Flow::kContinue;
    }
  }

  ++result_.stats.policy_checks;
  const ConvergedView view{net_, pec_, dp, ribs, ctx_, walks_, changed_, plane_held_};
  std::string why;
  plane_held_ = policy_.check(view, why);
  if (!plane_held_) {
    Violation v;
    v.failures = failures_;
    v.trail = trail_;
    v.trail_text = trail_.describe(net_.topo, ctx_.routes, ctx_.paths);
    v.message = std::move(why);
    result_.violations.push_back(std::move(v));
    if (!opts_.find_all_violations) return Flow::kStop;
  }
  return Flow::kContinue;
}

void Explorer::update_dataplane(std::span<const TaskRib> ribs) {
  // An entry reads its node's routes, the PEC's config at the node, and,
  // through a static route or an iBGP route, the failure set and the
  // upstream outcome (build_entry). So a node whose routes are those the
  // plane was built from and that has no static route keeps its entry.
  // check_failure_set() sets fib_full_ whenever an upstream outcome is
  // bound, since a new binding may move any iBGP entry.
  changed_.clear();
  const bool all = fib_full_;
  fib_full_ = false;
  for (NodeId n = 0; n < dp_.entries.size(); ++n) {
    bool stale = all || static_node_[n] != 0;
    for (std::size_t t = 0; t < tasks_.size() && !stale; ++t) {
      stale = rib_[t][n] != fib_rib_[t][n];
    }
    if (!stale) continue;
    for (std::size_t t = 0; t < tasks_.size(); ++t) fib_rib_[t][n] = rib_[t][n];
    FibEntry& entry = dp_.entries[n];
    old_entry_ = entry;
    build_entry(net_, pec_, failures_, ribs, ctx_, n, entry);
    ++result_.stats.fib_entries_rebuilt;
    if (entry == old_entry_) continue;
    if (one_pass_sig_) {
      fib_sig_ += fib_entry_term(n, entry) - fib_entry_term(n, old_entry_);
    }
    changed_.push_back(n);
  }
}

bool Explorer::dataplane_is_fresh(std::span<const TaskRib> ribs) {
  build_dataplane(net_, pec_, failures_, ribs, ctx_, oracle_dp_);
  return oracle_dp_ == dp_;
}

}  // namespace plankton

// The explicit-state model checker for RPVP (paper §3.3–§3.4, §4).
//
// One Explorer instance performs the exhaustive search for one PEC (or one
// SCC of mutually-dependent PECs, which share a task list):
//
//   failure phase (§4.1.4, §4.3)
//     └─ upstream-outcome choice (§3.2)
//          └─ per-prefix RPVP phases (§3.3), each driven by a pluggable
//             SearchEngine over (node, update) choices with:
//               · consistent-execution pruning        (§4.1.1, Theorem 1)
//               · deterministic-node execution        (§4.1.2, Theorem 2)
//               · decision independence (ample sets)  (§4.1.3)
//               · policy-based pruning + influence    (§4.2)
//               · exact or bitstate visited store     (§4.4, Fig. 9)
//                  └─ FIB assembly + policy callback  (§3.5)
//
// The Explorer is the SearchModel: it owns protocol semantics and pruning.
// State identity lives in the StateCodec, visited storage in the
// VisitedBackend, and search order in the SearchEngine (src/engine/) — each
// replaceable without touching the protocols.
//
// Every optimization is individually toggleable for the Fig. 8 ablations.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "checker/stats.hpp"
#include "checker/trail.hpp"
#include "dataplane/fib.hpp"
#include "engine/active_set.hpp"
#include "engine/independence.hpp"
#include "engine/search.hpp"
#include "engine/state_codec.hpp"
#include "engine/visited.hpp"
#include "eqclass/dec.hpp"
#include "netbase/flat_index.hpp"
#include "pec/pec.hpp"
#include "policy/policy.hpp"
#include "protocols/process.hpp"
#include "rpvp/ad_cache.hpp"

namespace plankton {

struct ExploreOptions {
  int max_failures = 0;

  // §4 optimizations (all on by default; Fig. 8 turns them off):
  bool consistent_only = true;       ///< §4.1.1
  bool deterministic_nodes = true;   ///< §4.1.2
  /// §4.1.2 BGP-specific detection only (the paper's Fig. 8 iBGP ablation
  /// disables "the detection of deterministic nodes in BGP" while keeping
  /// OSPF's SPF ordering).
  bool det_nodes_bgp = true;
  bool decision_independence = true; ///< §4.1.3
  /// §4.3: DEC/LEC representative failures, and failure relevance (a set
  /// whose newest link is on no SPF DAG of its parent's run takes the
  /// parent's result; docs/architecture.md "Failure relevance").
  bool lec_failures = true;
  bool policy_pruning = true;        ///< §4.2
  bool suppress_equivalent = true;   ///< §3.5 equivalence of converged states

  /// Visited-set storage (§4.4, Fig. 9): exact, or bitstate/Bloom.
  /// `bloom_bits` sizes the kBitstate filter.
  VisitedKind visited = VisitedKind::kExact;
  std::size_t bloom_bits = std::size_t{1} << 27;

  /// OSPF ECMP merging (the paper's special-case multipath deviation,
  /// §3.4.2). When false, equal-cost updates are processed one peer at a
  /// time exactly as RPVP Algorithm 1 states them — the "unoptimized model"
  /// of the Fig. 8 ablations (single best path, heavy irrelevant
  /// non-determinism).
  bool merge_updates = true;

  // Hot-path mechanics (exploration-neutral: these change how states are
  // expanded, never which states are explored — the equivalence tests
  // assert identical exploration counts and violations across the on/off
  // matrix; only the mechanics' own counters move):
  /// Memoize advertised() per directed live session edge (rpvp/ad_cache.hpp).
  bool ad_cache = true;
  /// Dynamic partial-order reduction over advertisement interleavings:
  /// sleep sets + source-set backtracking, driven by the footprint
  /// commutativity oracle (engine/independence.hpp). Meant to prune
  /// redundant interleavings only, but it is known to lose converged states
  /// where a trace is cut early or influence pruning hides a node
  /// (docs/architecture.md "Partial-order reduction" names the cases; CLI
  /// --no-por). Active under the kDfs engine
  /// with the exact visited backend only: every other engine explores the
  /// unreduced move tree, as por = false does. The model turns it off
  /// itself whenever a composition it cannot prove sound would arise, and
  /// when no task can branch (every task an OSPF phase under
  /// consistent_only, deterministic_nodes and merge_updates: one
  /// SPF-ordered path, nothing to prune); see Explorer's constructor.
  bool por = true;
  /// Consume the incrementally maintained enabled set in expand() instead
  /// of rescanning every process member (engine/active_set.hpp), and run
  /// each SPF-ordered OSPF phase as one pass that commits its members in
  /// (dist, id) order, with no expand() at all (docs/architecture.md
  /// "SPF-ordered phases"). false rescans, and walks those phases move by
  /// move: the reference path.
  bool incremental_expand = true;

  /// Resource governance (checker/budget.hpp) — the only limit. The state
  /// cap is checked on every step, the deadline and the memory cap (against
  /// the checker's own deterministic byte accounting) every 256 steps.
  /// Exhaustion sets ExploreResult::budget_tripped and the verdict degrades
  /// to kInconclusive — never a hold. Under the Verifier the deadline is the
  /// whole-run budget, sliced per PEC.
  ResourceBudget budget;
  bool find_all_violations = false;
  /// Keep converged states for dependent PECs. Another PEC reads every one,
  /// so this also turns off the §4.2 source early-stop.
  bool record_outcomes = false;

  /// Exploration strategy for the per-prefix move tree (engine/search.hpp):
  /// kDfs (the paper's strategy) or kBfs (shortest counterexample trails).
  /// With por = false both visit the same state set; kBfs only reorders it
  /// (tests/test_engine_differential.cpp). kSingleExecution is
  /// Batfish-style simulation (paper Fig. 1, "all data planes" row): one
  /// non-deterministic execution path instead of all of them. Its violations
  /// are real, but it misses those that only occur under other
  /// advertisement orderings (e.g. BGP wedgies), so a violation-free run is
  /// not exhaustive and never a hold.
  SearchEngineKind engine_kind = SearchEngineKind::kDfs;

  [[nodiscard]] static ExploreOptions naive() {
    ExploreOptions o;
    o.consistent_only = false;
    o.deterministic_nodes = false;
    o.decision_independence = false;
    o.lec_failures = false;
    o.policy_pruning = false;
    o.suppress_equivalent = false;
    o.por = false;
    return o;
  }
};

/// True when a run under `o` can end in a proof: an exhaustive engine
/// (is_exhaustive) over the exact visited store. Otherwise no run is
/// exhaustive, so none is a hold and none can transfer to a dedup class
/// member. With the verifier's cyclic-SCC flag this fixes each run's
/// ExploreResult::exhaustive before the run starts; only a budget trip can
/// still cost a run its proof.
[[nodiscard]] inline bool can_prove(const ExploreOptions& o) {
  return is_exhaustive(o.engine_kind) && o.visited == VisitedKind::kExact;
}

/// One per-prefix control-plane execution (§3.3: "executing the control
/// plane for each prefix in the PEC separately").
struct PrefixTask {
  std::uint8_t prefix_idx = 0;
  std::unique_ptr<RoutingProcess> process;
};

/// Builds the task list for a PEC from its per-prefix config slices.
std::vector<PrefixTask> make_tasks(const Network& net, const Pec& pec);

struct Violation {
  FailureSet failures;
  Trail trail;
  std::string trail_text;  ///< trail rendered against the run's route tables
  std::string message;
};

/// A recorded converged state, consumed by dependent PECs via the scheduler
/// (the paper writes these to an in-memory filesystem; we keep them in an
/// in-memory store).
struct PecOutcome {
  FailureSet failures;
  std::uint64_t upstream_hash = 0;
  DataPlane dp;
  /// Per node: IGP cost of the best OSPF route for the most specific prefix
  /// (kInfiniteCost when none) — what iBGP ranking needs from this PEC.
  std::vector<std::uint32_t> igp_cost;
  std::uint64_t hash = 0;  ///< identity for downstream context hashing
};

struct ExploreResult {
  /// Which budget axis ended the search early (kNone = ran to completion).
  BudgetKind budget_tripped = BudgetKind::kNone;
  /// False when coverage was not a proof: the single-execution engine
  /// followed one path, the bitstate visited store was selected, or (set by
  /// the verifier) the PEC belongs to or depends on an approximated cyclic
  /// SCC. A violation-free search with exhaustive == false is a coverage
  /// claim, not a hold.
  bool exhaustive = true;
  /// Every counterexample found (the first only, unless
  /// find_all_violations). Non-empty means violated.
  std::vector<Violation> violations;
  std::vector<PecOutcome> outcomes;
  SearchStats stats;

  [[nodiscard]] Verdict verdict() const {
    return classify(!violations.empty(), budget_tripped, exhaustive);
  }
};

/// One PEC's result as the verifier merges it, emitted by the scheduler's
/// task body. `result.outcomes` is always empty: recorded outcomes go to the
/// OutcomeStore instead.
struct PecReport {
  PecId pec = 0;
  std::string pec_str;
  ExploreResult result;
  /// Representative PEC this report was translated from (kNoPec when the PEC
  /// was explored natively). Translated reports carry the representative's
  /// stats for reference but are excluded from VerifyResult::total, so the
  /// aggregate counts only work actually performed.
  PecId translated_from = kNoPec;
};

/// Supplies, per coordinated failure set, the alternative upstream converged
/// outcomes this PEC may observe (§3.2). Nullptr entries are allowed and mean
/// "no upstream information".
class UpstreamProvider {
 public:
  virtual ~UpstreamProvider() = default;
  [[nodiscard]] virtual std::vector<const UpstreamResolver*> outcomes(
      const FailureSet& failures) const = 0;
};

class Explorer final : public SearchModel {
 public:
  Explorer(const Network& net, const Pec& pec, std::vector<PrefixTask> tasks,
           const Policy& policy, ExploreOptions opts,
           const UpstreamProvider* upstream = nullptr);

  ExploreResult run();

  /// The interning context (exposed so callers can render trails).
  [[nodiscard]] const ModelContext& context() const { return ctx_; }

  /// Canonical key of the current state of phase `task_idx` — the key the
  /// visited store records.
  [[nodiscard]] std::uint64_t state_key(std::size_t task_idx) const {
    return codec_.state_key(task_idx);
  }

  // -- SearchModel (driven by the SearchEngine) -----------------------------
  bool budget_exhausted() override;
  bool mark_visited(std::size_t task_idx) override;
  Step expand(std::size_t task_idx, std::vector<SearchMove>& moves,
              std::size_t move_budget) override;
  void apply(std::size_t task_idx, SearchMove& m) override;
  void undo(std::size_t task_idx, const SearchMove& m) override;
  SearchFlow advance(std::size_t task_idx) override;
  void por_extend(std::size_t task_idx, std::vector<SearchMove>& moves) override;

 private:
  using Flow = SearchFlow;

  // -- failure phase --------------------------------------------------------
  /// `dag` is non-null when the newest link of failures_ lies off the SPF
  /// DAG of a violation-free ancestor's run (docs/architecture.md "Failure
  /// relevance"): that run stands for this set's, so the set is recorded but
  /// not re-run, and its own children inherit the same DAG.
  Flow explore_failures(LinkId next_link, const std::vector<std::uint8_t>* dag);
  Flow check_failure_set();
  /// Per link: 1 when it is live and some task's route can cross it, i.e.
  /// it joins a node to one of its shortest-path parents, read off the OSPF
  /// processes as the last check_failure_set() prepared them.
  [[nodiscard]] std::vector<std::uint8_t> spf_dag_links() const;
  /// True when the upstream provider binds no outcome under `f` ({nullptr}).
  [[nodiscard]] bool unbound_upstream(const FailureSet& f) const;
  [[nodiscard]] std::vector<LinkId> failure_candidates(LinkId next_link) const;
  /// Failure-independent DEC node signatures, computed once and cached
  /// (they depend only on config, policy and PEC — not on failures_).
  [[nodiscard]] const std::vector<std::uint64_t>& dec_signatures() const;

  // -- prefix phases --------------------------------------------------------
  Flow begin_phase(std::size_t task_idx);
  /// Runs an SPF-ordered phase as one pass instead of a search (spf_pass_).
  Flow spf_pass(std::size_t task_idx);
  Flow handle_converged();
  /// Brings dp_ to the current RIBs, rebuilding only the entries whose
  /// inputs can have changed since its last build, lists in changed_ the
  /// entries that differ, and keeps fib_sig_ current.
  void update_dataplane(std::span<const TaskRib> ribs);
  /// Debug oracle: dp_ equals a build of every entry from scratch.
  [[nodiscard]] bool dataplane_is_fresh(std::span<const TaskRib> ribs);

  // per-node status maintenance
  /// Recomputes every status of the phase and its active set.
  void rebuild_statuses(std::size_t task_idx);
  void refresh_node(std::size_t task_idx, NodeId n);
  /// Pops the newest status_log_ entry into n's status (undo()).
  void restore_status(std::size_t task_idx, NodeId n);
  void collect_updates(std::size_t task_idx, NodeId n);
  [[nodiscard]] bool influence_allows(NodeId n) const;
  void compute_influencers(std::size_t task_idx);
  [[nodiscard]] bool sources_all_committed(std::size_t task_idx) const;

  /// advertised(p, n, rib[p]) through the AdCache when enabled. `peer_idx`
  /// is p's index in proc.peers(n) under the current failure set.
  RouteId adv(const RoutingProcess& proc, std::size_t task_idx, NodeId n,
              std::size_t peer_idx, NodeId p) {
    const RouteId in = rib_[task_idx][p];
    if (opts_.ad_cache) {
      return ad_cache_.advertised(proc, task_idx, n, peer_idx, p, in, ctx_,
                                  result_.stats);
    }
    return proc.advertised(p, n, in, ctx_);
  }

  const Network& net_;
  const Pec& pec_;
  std::vector<PrefixTask> tasks_;
  const Policy& policy_;
  ExploreOptions opts_;
  const UpstreamProvider* upstream_provider_;

  ModelContext ctx_;
  FailureSet failures_;
  StateCodec codec_;                        ///< canonical state identity
  /// Visited storage; empty under POR, whose sleep-aware store replaces it,
  /// and for an SPF pass, which never probes one.
  std::optional<VisitedBackend> visited_;
  std::unique_ptr<SearchEngine> engine_;    ///< pluggable search strategy
  VisitedSet failure_sets_seen_;
  VisitedSet signatures_seen_;
  VisitedSet outcomes_seen_;

  // Per-task state while exploring:
  struct NodeStatus {
    bool enabled = false;
    bool conflict = false;  ///< committed node wants to change (§4.1.1)
    RouteId merge_candidate = kNoRoute;
  };
  std::vector<std::vector<RouteId>> rib_;           ///< [task][node]
  std::vector<std::vector<NodeStatus>> status_;     ///< [task][node]
  std::vector<std::vector<std::uint8_t>> is_origin_;///< [task][node]
  std::vector<std::vector<std::uint8_t>> member_;   ///< [task][node]
  /// Nodes with status enabled, maintained incrementally by refresh_node
  /// (dirty-set protocol, engine/search.hpp) — what expand() consumes.
  std::vector<IncrementalActiveSet> active_;        ///< [task]
  /// Pre-move statuses: apply() pushes one frame (the move's node, then its
  /// peers) and undo() pops it in reverse, restoring instead of recomputing.
  std::vector<NodeStatus> status_log_;
  /// 1 when the phase was last entered by spf_pass(), which keeps no
  /// statuses: expand() rebuilds them first.
  std::vector<std::uint8_t> statuses_stale_;        ///< [task]
  StampSet influencer_;                             ///< per node, current task
  bool influence_active_ = false;                   ///< §4.2 influence pruning usable
  bool early_stop_ok_ = false;                      ///< §4.2 source early-stop usable
  /// Failure relevance usable: a set whose newest link is off its parent's
  /// SPF DAG takes the parent's result (§4.3, with lec_failures).
  bool failure_relevance_ = false;
  /// Every phase is SPF-ordered and runs as one pass (spf_pass()).
  bool spf_pass_ = false;

  AdCache ad_cache_;                                ///< advertised() memo

  // -- dynamic partial-order reduction (sleep + source sets) ---------------
  // docs/architecture.md "Partial-order reduction": sleep sets, source-set
  // lazy sibling emission with race-driven backtracking, subtree summaries.
  // DFS only: the sleep sets live in per-depth frames of the engine's path.
  bool por_ = false;
  std::size_t sleep_words_ = 0;               ///< ceil(nodes / 64)
  IndependenceOracle indep_;                  ///< footprint commutativity
  std::vector<std::uint8_t> is_source_node_;  ///< policy source membership
  std::size_t por_depth_ = 0;                 ///< applied moves on path
  // Per-depth frames of the DFS path (each sleep_words_ wide):
  std::vector<std::uint64_t> sleep_stack_;    ///< inherited sleep sets
  std::vector<std::uint64_t> prior_stack_;    ///< explored earlier siblings
  std::vector<std::uint64_t> enabled_stack_;  ///< awake enabled nodes
  std::vector<std::uint64_t> emitted_stack_;  ///< node groups handed out
  std::vector<std::uint64_t> bt_stack_;       ///< pending backtrack requests
  std::vector<std::uint64_t> subtree_stack_;  ///< executed-node summaries
  std::vector<std::uint32_t> entry_stack_;    ///< visited entry per depth
  std::vector<std::size_t> phase_root_stack_; ///< por_depth_ at phase entry
  // Sleep-aware visited store — replaces the visited backend when POR is on
  // (the ⊆-rule needs the stored sleep mask; the DFS race replay needs the
  // subtree summary; terminal states are skipped under any sleep set):
  struct PorEntry {
    std::uint64_t key = 0;  ///< full state key: the index's equality test
    std::uint32_t flags = 0;
    std::uint32_t off = 0;  ///< index into por_pool_
  };
  static constexpr std::uint32_t kPorTerminal = 1;
  static constexpr std::uint32_t kPorNoEntry = 0xffffffffu;
  FlatIndex por_index_;  ///< state key -> entry index + 1
  std::vector<PorEntry> por_entries_;
  std::vector<std::uint64_t> por_pool_;  ///< per entry: sleep + summary
  std::uint32_t por_cur_entry_ = kPorNoEntry;  ///< entry of the state being expanded
  /// Difference-rule re-exploration restriction for the expand() that
  /// immediately follows por_mark_visited (empty = unrestricted).
  std::vector<std::uint64_t> por_mask_scratch_;
  std::vector<std::uint64_t> por_dep_scratch_;  ///< replay dep-row union
  /// expand()'s one emission step: appends the moves of `nodes`, whose
  /// first node's updates are already collected when `deterministic`
  /// (§4.1.2's node, alone). Under POR it drops sleeping nodes and narrows
  /// the rest to a source set; otherwise it stops once `move_budget` moves
  /// are out.
  Step emit_moves(std::size_t task_idx, std::vector<SearchMove>& moves,
                  std::vector<NodeId>& nodes, std::size_t move_budget,
                  bool deterministic);
  /// Appends n's moves from updates_scratch_ (collect_updates(n)): one
  /// select per update, or the naive-mode withdraw when there is none.
  void push_node_moves(NodeId n, std::vector<SearchMove>& moves) const;
  void por_prepare();
  void por_ensure_depth(std::size_t depth);
  bool por_mark_visited(std::size_t task_idx);
  void por_mark_terminal();
  void por_on_apply(std::size_t task_idx, const SearchMove& m);
  void por_on_undo(std::size_t task_idx, const SearchMove& m);
  void por_race(std::size_t task_idx, NodeId node, std::size_t below_depth);
  void por_race_mask(std::size_t task_idx, const std::uint64_t* mask);

  // Scratch arenas: per-call buffers hoisted out of the hot path so a
  // steady-state apply/undo/expand cycle performs zero heap allocations
  // (tests/test_hot_path_alloc.cpp pins this down).
  std::vector<RouteId> advs_scratch_;               ///< refresh_node merge inputs
  std::vector<std::pair<RouteId, NodeId>> cands_scratch_;  ///< collect_updates
  std::vector<RouteId> updates_scratch_;            ///< collect_updates output
  std::vector<NodeId> update_peers_scratch_;        ///< collect_updates output
  std::vector<NodeId> enabled_scratch_;             ///< expand enabled list
  std::vector<NodeId> filtered_scratch_;            ///< §4.1.3 component filter
  std::vector<NodeId> bfs_queue_;                   ///< influencer/component BFS
  StampSet in_comp_;                                ///< §4.1.3 component marks
  std::vector<TaskRib> ribs_scratch_;               ///< handle_converged view
  DataPlane dp_;                                    ///< handle_converged FIB
  WalkMemo walks_;                                  ///< policy walks, signatures

  // Failure-set reuse (docs/architecture.md "Failure-set runs reuse the
  // no-failure run"). Sized once per Explorer.
  /// [task][node]: the RIB each SPF pass ended with under no failures, the
  /// first run; empty until that pass completes.
  std::vector<std::vector<RouteId>> base_rib_;
  StampSet spf_changed_;  ///< per node: OspfProcess::spf_changed() of the pass
  /// [task][node]: the routes dp_ was last built from.
  std::vector<std::vector<RouteId>> fib_rib_;
  /// Per node: 1 when it has a static route in this PEC, whose entry reads
  /// the failure set and the upstream outcome, so it is rebuilt every time.
  std::vector<std::uint8_t> static_node_;
  bool fib_full_ = true;  ///< the next build rebuilds every entry
  std::vector<NodeId> changed_;  ///< entries the last build changed
  FibEntry old_entry_;  ///< update_dataplane scratch, next hops sized once
  /// The one-pass signature of dp_ (sum of fib_entry_term), kept current
  /// when one_pass_sig_: the policy names no sources and no interesting
  /// nodes, and suppression is on.
  std::uint64_t fib_sig_ = 0;
  bool one_pass_sig_ = false;
  /// The plane dp_ showed before its last update satisfied the policy: its
  /// check held, or the check was suppressed before any violation.
  bool plane_held_ = false;
  DataPlane oracle_dp_;  ///< dataplane_is_fresh() scratch (Debug builds)
  mutable std::vector<std::uint64_t> dec_sigs_;     ///< cached dec_signatures()

  Trail trail_;
  ExploreResult result_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::uint64_t limit_check_counter_ = 0;

  /// The one model-memory rule: fills the bytes_* fields of result_.stats
  /// from the structures the search holds now and returns their sum
  /// (SearchStats::model_bytes()), bytes_outcomes being the running total
  /// the outcome recorder keeps. The memory-budget check and run()'s report
  /// both call it.
  std::size_t account_model_bytes();

  std::span<const NodeId> sources_;  ///< the policy's sources
};

}  // namespace plankton

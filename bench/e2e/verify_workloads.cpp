// Verify workloads: repeated in-process verifications through the public
// Verifier API — the path plankton_verify takes — from config text to
// verdict.
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "config/parser.hpp"
#include "eqclass/pec_dedup.hpp"
#include "sched/deps.hpp"

namespace plankton::bench_e2e {

namespace {

/// One repetition's timings, all from the same clock reads.
struct Rep {
  double parse_ms = 0;
  double setup_ms = 0;   ///< parse + Verifier construction
  double verify_ms = 0;  ///< parse to verdict
  Verdict verdict = Verdict::kError;
};

std::vector<PecId> targets_of(const VerifySpec& spec, const PecSet& pecs) {
  return spec.single_pec ? std::vector<PecId>{pecs.find(spec.target)}
                         : pecs.routed();
}

/// The layer calls Verifier makes, timed one by one on `net` outside the
/// parse-to-verdict chain: PEC partition, dependency graph, and dedup
/// classing with the dependency-closure masks verify_pecs builds. The
/// fingerprints the serve cache keys on are timed too, though verification
/// does not compute them.
struct LayerTimes {
  double pec_ms = 0;
  double deps_ms = 0;
  double classes_ms = 0;
};

LayerTimes time_layer_calls(const VerifySpec& spec, const Network& net,
                            const Policy& policy, Tracer& tracer,
                            LayerSamples& layers) {
  LayerTimes lt;
  Clock::time_point t = Clock::now();
  const auto lap = [&t] {
    const Clock::time_point now = Clock::now();
    const double ms = ms_between(t, now);
    t = now;
    return ms;
  };
  PecSet pecs;
  {
    Tracer::Span s(tracer, "pec.compute");
    pecs = compute_pecs(net);
  }
  lt.pec_ms = lap();
  layers.add("pec.compute_ms", lt.pec_ms);
  PecDependencies deps;
  {
    Tracer::Span s(tracer, "sched.deps");
    deps = compute_dependencies(net, pecs);
  }
  lt.deps_ms = lap();
  layers.add("sched.deps_ms", lt.deps_ms);

  const std::vector<PecId> targets = targets_of(spec, pecs);
  std::vector<std::uint8_t> needed(pecs.pecs.size(), 0);
  std::vector<std::uint8_t> is_target(pecs.pecs.size(), 0);
  std::vector<PecId> frontier = targets;
  for (const PecId p : targets) is_target[p] = 1;
  while (!frontier.empty()) {
    const PecId p = frontier.back();
    frontier.pop_back();
    if (needed[p] != 0) continue;
    needed[p] = 1;
    for (const PecId q : deps.depends_on[p]) frontier.push_back(q);
  }
  lap();
  PecClassSet classes;
  {
    Tracer::Span s(tracer, "eqclass.classes");
    classes = compute_pec_classes(net, pecs, deps, policy, needed, is_target);
    s.arg("classes", static_cast<double>(classes.stats.classes));
  }
  lt.classes_ms = lap();
  layers.add("eqclass.classes_ms", lt.classes_ms);
  const double n_classes = static_cast<double>(classes.stats.classes);
  layers.add("eqclass.pec_classes", n_classes);
  // PECs verified per class; a target dedup does not apply to counts as its
  // own class.
  layers.add("eqclass.compression",
             n_classes > 0 ? static_cast<double>(targets.size()) / n_classes
                           : 1.0);
  {
    Tracer::Span s(tracer, "eqclass.fingerprints");
    (void)compute_pec_fingerprints(net, pecs);
  }
  layers.add("eqclass.fingerprints_ms", lap());
  return lt;
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Explorer and engine counters of one verification. Exploration time sums
/// SearchStats::elapsed over the natively explored reports (translated dedup
/// members repeat their representative's stats).
double record_search_layers(const VerifyResult& r, LayerSamples& layers) {
  double explore_ms = 0;
  for (const PecReport& rep : r.reports) {
    if (rep.translated_from == kNoPec) {
      explore_ms +=
          std::chrono::duration<double, std::milli>(rep.result.stats.elapsed)
              .count();
    }
  }
  const SearchStats& t = r.total;
  layers.add("rpvp.explore_ms", explore_ms);
  layers.add("rpvp.states_explored", static_cast<double>(t.states_explored));
  layers.add("rpvp.states_per_s",
             explore_ms > 0
                 ? static_cast<double>(t.states_explored) / (explore_ms / 1e3)
                 : 0.0);
  layers.add("rpvp.failure_sets", static_cast<double>(t.failure_sets));
  layers.add("rpvp.ad_cache_hit_ratio",
             ratio(t.ad_cache_hits, t.ad_cache_hits + t.ad_cache_misses));
  layers.add("policy.checks", static_cast<double>(t.policy_checks));
  layers.add("engine.states_stored", static_cast<double>(t.states_stored));
  // Skipped revisits over all arrivals (each arrival is stored or skipped).
  layers.add("engine.revisit_ratio",
             ratio(t.revisits_skipped, t.states_stored + t.revisits_skipped));
  layers.add("engine.por_pruned", static_cast<double>(t.por_pruned));
  layers.add("rpvp.model_mb",
             static_cast<double>(t.model_bytes()) / (1024.0 * 1024.0));
  return explore_ms;
}

/// Parse, construct, verify — the chain a plankton_verify user waits for.
/// With `layers` set, the layer calls are timed afterwards on the same
/// network and the search counters recorded.
Rep run_rep(const VerifySpec& spec, const Policy& policy, Tracer& tracer,
            std::uint64_t id, LayerSamples* layers) {
  Tracer::Span rep_span(tracer, "verify.rep", id);
  Rep rep;
  const Clock::time_point t0 = Clock::now();
  ParsedNetwork parsed;
  {
    Tracer::Span s(tracer, "config.parse");
    parsed = parse_network_config(spec.config);
  }
  const Clock::time_point t1 = Clock::now();
  std::optional<Verifier> verifier;
  {
    Tracer::Span s(tracer, "verifier.construct");
    verifier.emplace(parsed.net, spec.opts);
  }
  const Clock::time_point t2 = Clock::now();
  VerifyResult result;
  {
    Tracer::Span s(tracer, "verifier.verify_pecs");
    result = verifier->verify_pecs(targets_of(spec, verifier->pecs()), policy);
    s.arg("states_explored", static_cast<double>(result.total.states_explored));
  }
  const Clock::time_point t3 = Clock::now();
  rep.parse_ms = ms_between(t0, t1);
  rep.setup_ms = ms_between(t0, t2);
  rep.verify_ms = ms_between(t0, t3);
  rep.verdict = result.verdict;
  if (layers == nullptr) return rep;

  Tracer::Span layer_span(tracer, "verify.layer_calls", id);
  layers->add("config.parse_ms", rep.parse_ms);
  const LayerTimes lt = time_layer_calls(spec, parsed.net, policy, tracer,
                                         *layers);
  const double explore_ms = record_search_layers(result, *layers);
  // Everything in parse-to-verdict no named layer covers: plan building,
  // scheduling, Explorer construction and teardown (freeing the visited
  // store), report merging, and the gap between the in-chain layer calls
  // and their separately timed repeats.
  layers->add("sched.unattributed_ms", rep.verify_ms - rep.parse_ms -
                                           lt.pec_ms - lt.deps_ms -
                                           lt.classes_ms - explore_ms);
  return rep;
}

/// Repetitions until `seconds` have passed, at least `min_reps`.
template <typename Fn>
void repeat_for(double seconds, std::size_t min_reps, Fn&& fn) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::size_t i = 0; i < min_reps || Clock::now() < deadline; ++i) {
    fn(i);
  }
}

void check_verdict(const Rep& rep, const VerifySpec& spec, RunResult& out) {
  out.op(rep.verdict == spec.expect,
         std::string("verdict ") + to_string(rep.verdict) + ", expected " +
             to_string(spec.expect));
}

}  // namespace

void run_verify_e2e(const VerifySpec& spec, const RunOptions& ro,
                    RunResult& out) {
  const std::unique_ptr<Policy> policy =
      spec.make_policy(parse_network_config(spec.config).net);
  Tracer off(false);
  // An untimed first verification takes the first-touch page faults. The
  // peak RSS is read right after it: what one verification holds, before
  // repetitions grow the heap by fragmentation.
  check_verdict(run_rep(spec, *policy, off, 0, nullptr), spec, out);
  const double rss_mb = peak_rss_mb("self");
  Samples setup_ms;
  Samples verify_ms;
  repeat_for(ro.seconds, 3, [&](std::size_t i) {
    const Rep rep = run_rep(spec, *policy, off, i, nullptr);
    check_verdict(rep, spec, out);
    setup_ms.add(rep.setup_ms);
    verify_ms.add(rep.verify_ms);
  });

  out.metric("setup_s", setup_ms.median() / 1e3, "s");
  out.metric("verdict_p10_ms", verify_ms.pct(10), "ms");
  out.metric("peak_rss_mb", rss_mb, "MB");
  char line[200];
  std::snprintf(line, sizeof line,
                "verdict latency (ms): min %.4f p10 %.4f p25 %.4f p50 %.4f "
                "p75 %.4f p90 %.4f, n=%zu",
                verify_ms.pct(0), verify_ms.pct(10), verify_ms.pct(25),
                verify_ms.median(), verify_ms.pct(75), verify_ms.pct(90),
                verify_ms.size());
  out.note(line);
}

void run_verify_layers(const VerifySpec& spec, double seconds, Tracer& tracer,
                       LayerSamples& layers, RunResult& out) {
  const std::unique_ptr<Policy> policy =
      spec.make_policy(parse_network_config(spec.config).net);
  // Untraced and traced repetitions alternate, so host speed drifts hit
  // both alike; the ratio of their parse-to-verdict medians is the tracing
  // overhead.
  Tracer off(false);
  Samples untraced;
  Samples traced;
  repeat_for(seconds, 4, [&](std::size_t i) {
    const bool on = i % 2 == 1;
    const Rep rep = run_rep(spec, *policy, on ? tracer : off, i,
                            on ? &layers : nullptr);
    check_verdict(rep, spec, out);
    (on ? traced : untraced).add(rep.verify_ms);
  });
  layers.add("trace.overhead_pct",
             (traced.median() / untraced.median() - 1.0) * 100.0);

  const char* parts[] = {"config.parse_ms", "pec.compute_ms",
                         "sched.deps_ms",   "eqclass.classes_ms",
                         "rpvp.explore_ms", "sched.unattributed_ms"};
  std::string line = "layers (median ms):";
  double sum = 0;
  for (const char* p : parts) {
    const double v = layers.median(p);
    sum += v;
    char cell[96];
    std::snprintf(cell, sizeof cell, " %s %.3f |", p, v);
    line += cell;
  }
  char tail[96];
  std::snprintf(tail, sizeof tail, " sum %.3f vs verify_s %.3f", sum,
                traced.median());
  out.note(line + tail);
}

}  // namespace plankton::bench_e2e

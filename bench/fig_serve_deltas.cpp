// Delta-replay bench for the plankton_serve verdict cache (the PR-8
// verification-as-a-service acceptance run): a K=6 OSPF fat tree (45
// devices, 18 edge /24 PECs, link costs perturbed so every PEC is its own
// dedup class and the cold baseline is honest) goes resident in a ServeState,
// then a replay of 18 single-prefix static-route deltas re-queries loop
// freedom after each one.
//
// Claims checked (and recorded in BENCH_serve.json):
//   · each delta moves exactly one PEC: the other 17 stay cache hits, so the
//     non-moved hit ratio across the replay is 17/18 ≈ 94% (>= 90% floor);
//   · the p50 post-delta re-verify latency sits >= 5x below the cold full
//     run (only the moved PEC explores);
//   · a violating delta (mutually-pointing statics: a forwarding loop) is
//     caught through the cache path — hits never mask it — and the verdict +
//     violation set is identical to fresh dedup-off and por-off full
//     verifications of the same config (the differential arms);
//   · cached verdicts equal fresh verification bit-for-bit: re-querying the
//     warm cache and fresh arms agree on every probe;
//   · crash durability: a journal compaction (the graceful-shutdown
//     snapshot of config text and clean-hold keys) then a simulated kill -9
//     followed by a PKJ1 journal replay rebuilds every dependency-cone
//     fingerprint bit-identically, warm-starts the cache from the snapshot,
//     and reproduces the delta-replay hit ratio (17/18 ≈ 94.4%) post-crash.
//
// Output: BENCH_serve.json (override with argv[1] or PLANKTON_BENCH_JSON).
// Exit code 0 when every claim holds, 1 otherwise.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "serve/journal.hpp"
#include "serve/serve.hpp"
#include "workload/fat_tree.hpp"

namespace {

using namespace plankton;
using namespace plankton::serve;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

VerifyOptions bench_opts() {
  VerifyOptions vo;
  // Deterministic violation sets across engines/arms (SKILL gotcha: without
  // find-all, the first violation found is interleaving-order dependent).
  vo.explore.find_all_violations = true;
  return bench::assert_unbudgeted(vo);
}

std::string viol_key(const ViolationText& v) { return v.pec + "|" + v.message; }

std::vector<std::string> viol_set(const VerdictReplyMsg& r) {
  std::vector<std::string> out;
  for (const ViolationText& v : r.violations) out.push_back(viol_key(v));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    bench::JsonSink::instance().set_path(argv[1]);
  } else if (std::getenv("PLANKTON_BENCH_JSON") == nullptr) {
    bench::JsonSink::instance().set_path("BENCH_serve.json");
  }
  bench::header("fig_serve_deltas",
                "serve daemon delta replay -> BENCH_serve.json");

  FatTreeOptions o;
  o.k = 6;
  FatTree ft = make_fat_tree(o);
  // Perturb link costs deterministically: symmetry would let dedup collapse
  // the 18 PECs to one class and flatter the cold baseline.
  for (LinkId l = 0; l < ft.net.topo.link_count(); ++l) {
    const std::uint32_t c = 10 + (l * 7) % 11;
    ft.net.topo.set_link_cost(l, c, c);
  }
  const std::string config = render_config(ft.net);
  const int half = o.k / 2;

  // The journal lives for the crash-recovery arm at the end: it records
  // every accepted load/delta, and its compaction snapshot carries the
  // clean-hold keys the revived daemon hits against.
  const std::string tag = std::to_string(::getpid());
  const std::string journal_path = "/tmp/plankton_serve_bench_" + tag + ".pkj";
  std::remove(journal_path.c_str());

  ServeState state{bench_opts()};
  std::string error;
  if (!state.attach_journal(journal_path, error)) {
    std::printf("FAIL: journal: %s\n", error.c_str());
    return 1;
  }
  if (!state.load(config, error)) {
    std::printf("FAIL: load: %s\n", error.c_str());
    return 1;
  }
  QueryMsg loop;
  loop.policy_spec = "loop";

  const VerdictReplyMsg cold = state.query(loop);
  const double cold_ms = static_cast<double>(cold.wall_ns) / 1e6;
  check(cold.ok && static_cast<Verdict>(cold.verdict) == Verdict::kHolds,
        "cold run holds");
  check(cold.reverified == ft.edge_prefixes.size(), "cold run explores all PECs");
  std::printf("%-44s %10.2f ms  %2llu/%llu reverified\n", "cold_full_run",
              cold_ms, static_cast<unsigned long long>(cold.reverified),
              static_cast<unsigned long long>(cold.targets));
  bench::emit("fig_serve_deltas", "cold_full_run", cold_ms, cold.reverified, 0);

  const VerdictReplyMsg warm = state.query(loop);
  check(warm.cache_hits == warm.targets && warm.reverified == 0,
        "warm re-query is all hits");
  bench::emit("fig_serve_deltas", "warm_all_hits",
              static_cast<double>(warm.wall_ns) / 1e6, warm.cache_hits, 0);

  // ------------------------------------------------------------------
  // Delta replay: one benign static per edge prefix. "static agg-P-0
  // <prefix> via edge-P-e" replicates the OSPF next hop (the agg is directly
  // attached to the originating edge), so the policy keeps holding — but the
  // PEC's fingerprint moves and exactly it re-verifies.
  // ------------------------------------------------------------------
  std::uint64_t replay_hits = 0;
  std::uint64_t replay_targets = 0;
  std::vector<double> delta_ms;
  for (std::size_t r = 0; r < ft.edge_prefixes.size(); ++r) {
    const int pod = static_cast<int>(r) / half;
    const int e = static_cast<int>(r) % half;
    ApplyDeltaMsg delta;
    delta.ops.push_back({true, "static agg-" + std::to_string(pod) + "-0 " +
                                   ft.edge_prefixes[r].str() + " via edge-" +
                                   std::to_string(pod) + "-" +
                                   std::to_string(e)});
    if (!state.apply_delta(delta, error)) {
      std::printf("FAIL: delta %zu: %s\n", r, error.c_str());
      return 1;
    }
    check(state.last_moved() == 1,
          "delta " + std::to_string(r) + " moves exactly one PEC (moved=" +
              std::to_string(state.last_moved()) + ")");
    const VerdictReplyMsg reply = state.query(loop);
    check(reply.ok && static_cast<Verdict>(reply.verdict) == Verdict::kHolds,
          "delta " + std::to_string(r) + " still holds");
    check(reply.reverified == 1 && reply.cache_hits == reply.targets - 1,
          "delta " + std::to_string(r) + " re-verifies only the moved PEC");
    replay_hits += reply.cache_hits;
    replay_targets += reply.targets;
    const double t = static_cast<double>(reply.wall_ns) / 1e6;
    delta_ms.push_back(t);
    char row[64];
    std::snprintf(row, sizeof row, "delta_%02zu hits=%llu/%llu", r,
                  static_cast<unsigned long long>(reply.cache_hits),
                  static_cast<unsigned long long>(reply.targets));
    bench::emit("fig_serve_deltas", row, t, reply.cache_hits, reply.reverified);
  }

  std::sort(delta_ms.begin(), delta_ms.end());
  const double p50 = delta_ms[delta_ms.size() / 2];
  const double p99 = delta_ms.back();
  const double hit_ratio =
      100.0 * static_cast<double>(replay_hits) / static_cast<double>(replay_targets);
  const double speedup = cold_ms / p50;
  std::printf("%-44s %9.1f %%\n", "non-moved hit ratio", hit_ratio);
  std::printf("%-44s %10.2f ms (p99 %.2f ms)\n", "p50 delta re-verify", p50, p99);
  std::printf("%-44s %9.1f x\n", "cold / p50 speedup", speedup);
  bench::emit("fig_serve_deltas", "hit_ratio_nonmoved_pct", hit_ratio,
              replay_hits, replay_targets);
  bench::emit("fig_serve_deltas", "p50_delta_ms", p50, 0, 0);
  bench::emit("fig_serve_deltas", "cold_over_p50_speedup_x", speedup, 0, 0);
  check(hit_ratio >= 90.0, "hit ratio >= 90%");
  check(speedup >= 5.0, "p50 re-verify >= 5x below the cold full run");

  // ------------------------------------------------------------------
  // Violating delta through the cache path, differentially against fresh
  // dedup-off / por-off full verifications of the identical config.
  // ------------------------------------------------------------------
  ApplyDeltaMsg breaker;
  breaker.ops.push_back(
      {true, "static agg-0-1 " + ft.edge_prefixes[0].str() + " via core-3"});
  breaker.ops.push_back(
      {true, "static core-3 " + ft.edge_prefixes[0].str() + " via agg-0-1"});
  if (!state.apply_delta(breaker, error)) {
    std::printf("FAIL: violating delta: %s\n", error.c_str());
    return 1;
  }
  const VerdictReplyMsg caught = state.query(loop);
  check(caught.ok && static_cast<Verdict>(caught.verdict) == Verdict::kViolated,
        "violating delta caught through the cache path");
  check(caught.cache_hits == caught.targets - caught.reverified &&
            caught.reverified >= 1,
        "violation found by re-verifying only moved PECs");
  bench::emit("fig_serve_deltas", "violating_delta_caught",
              static_cast<double>(caught.wall_ns) / 1e6, caught.cache_hits,
              caught.reverified);

  // The cached arm re-queries warm (every verdict served or re-verified
  // through the cache); each differential arm verifies the same config from
  // scratch with the optimization under test disabled.
  const VerdictReplyMsg cached_again = state.query(loop);
  check(viol_set(cached_again) == viol_set(caught),
        "cached violation verdict is stable across re-queries");
  struct Arm {
    const char* name;
    void (*tweak)(VerifyOptions&);
  };
  const Arm arms[] = {
      {"dedup-off", [](VerifyOptions& vo) { vo.pec_dedup = false; }},
      {"por-off", [](VerifyOptions& vo) { vo.explore.por = false; }},
  };
  for (const Arm& arm : arms) {
    VerifyOptions vo = bench_opts();
    arm.tweak(vo);
    ServeState fresh{vo};
    if (!fresh.load(state.config_text(), error)) {
      std::printf("FAIL: %s load: %s\n", arm.name, error.c_str());
      return 1;
    }
    const VerdictReplyMsg fr = fresh.query(loop);
    check(fr.ok && fr.verdict == caught.verdict,
          std::string(arm.name) + " arm agrees on the verdict");
    check(viol_set(fr) == viol_set(caught),
          std::string(arm.name) + " arm reproduces the identical violations");
    bench::emit("fig_serve_deltas", std::string("differential_") + arm.name,
                static_cast<double>(fr.wall_ns) / 1e6, fr.cache_hits,
                fr.reverified);
  }

  // Reverting the breaker restores the pre-delta cones: all hits, holds.
  ApplyDeltaMsg revert;
  for (const DeltaOp& op : breaker.ops) revert.ops.push_back({false, op.line});
  if (!state.apply_delta(revert, error)) {
    std::printf("FAIL: revert: %s\n", error.c_str());
    return 1;
  }
  const VerdictReplyMsg restored = state.query(loop);
  check(restored.ok &&
            static_cast<Verdict>(restored.verdict) == Verdict::kHolds &&
            restored.cache_hits == restored.targets,
        "reverting the violating delta restores an all-hit hold");
  bench::emit("fig_serve_deltas", "revert_all_hits",
              static_cast<double>(restored.wall_ns) / 1e6, restored.cache_hits,
              restored.reverified);

  // ------------------------------------------------------------------
  // Crash-recovery arm: compact the journal (what a graceful shutdown does),
  // record every cone fingerprint, then "kill -9" the daemon (drop the
  // ServeState with no further step — exactly what SIGKILL leaves behind)
  // and rebuild a fresh one from journal replay alone.
  // ------------------------------------------------------------------
  if (!state.compact_journal(error)) {
    std::printf("FAIL: journal compaction: %s\n", error.c_str());
    return 1;
  }
  const std::string pre_crash_config = state.config_text();
  std::vector<std::uint64_t> pre_crash_cones;
  for (std::size_t p = 0; p < state.verifier().pecs().pecs.size(); ++p) {
    pre_crash_cones.push_back(state.cone_of(p));
  }

  ServeState revived{bench_opts()};
  if (!revived.attach_journal(journal_path, error)) {
    std::printf("FAIL: revived journal: %s\n", error.c_str());
    return 1;
  }
  Journal::ReplayResult replayed;
  const auto replay_t0 = std::chrono::steady_clock::now();
  if (!revived.replay_journal(replayed, error)) {
    std::printf("FAIL: journal replay: %s\n", error.c_str());
    return 1;
  }
  const double replay_ms =
      bench::ms(std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - replay_t0));
  std::printf("%-44s %10.2f ms  %llu record(s)\n", "journal_replay", replay_ms,
              static_cast<unsigned long long>(replayed.applied));
  bench::emit("fig_serve_deltas", "crash_journal_replay", replay_ms,
              replayed.applied, replayed.torn_tail ? 1 : 0);
  check(replayed.applied == 2 && !replayed.torn_tail,
        "journal replay applies the compacted config and clean holds");
  check(revived.config_text() == pre_crash_config,
        "replayed config text is byte-identical to pre-crash");
  check(revived.verifier().pecs().pecs.size() == pre_crash_cones.size(),
        "replayed PEC partition matches pre-crash");
  for (std::size_t p = 0; p < pre_crash_cones.size(); ++p) {
    if (revived.cone_of(p) != pre_crash_cones[p]) {
      check(false, "cone fingerprint " + std::to_string(p) +
                       " drifted across crash recovery");
      break;
    }
  }

  // Warm re-query against the replayed clean holds: the replayed cones must
  // key straight into the pre-crash keys — all hits, nothing re-explored.
  check(revived.cache_stats().warm_loaded > 0, "revived cache warm-started");
  const VerdictReplyMsg post = revived.query(loop);
  check(post.ok && static_cast<Verdict>(post.verdict) == Verdict::kHolds &&
            post.cache_hits == post.targets && post.reverified == 0,
        "post-crash warm re-query is all hits");
  bench::emit("fig_serve_deltas", "crash_warm_all_hits",
              static_cast<double>(post.wall_ns) / 1e6, post.cache_hits,
              post.reverified);

  // And the revived daemon reproduces the delta-replay behaviour: a second
  // replay of benign statics (agg-P-*1* this time, so every cone is novel
  // rather than a revert to a cached one) moves exactly one PEC per delta
  // and keeps the other 17 warm — the same 17/18 ≈ 94.4% non-moved hit
  // ratio as the pre-crash replay.
  std::uint64_t crash_hits = 0;
  std::uint64_t crash_targets = 0;
  for (std::size_t r = 0; r < ft.edge_prefixes.size(); ++r) {
    const int pod = static_cast<int>(r) / half;
    const int e = static_cast<int>(r) % half;
    ApplyDeltaMsg delta;
    delta.ops.push_back({true, "static agg-" + std::to_string(pod) + "-1 " +
                                   ft.edge_prefixes[r].str() + " via edge-" +
                                   std::to_string(pod) + "-" +
                                   std::to_string(e)});
    if (!revived.apply_delta(delta, error)) {
      std::printf("FAIL: post-crash delta %zu: %s\n", r, error.c_str());
      return 1;
    }
    check(revived.last_moved() == 1,
          "post-crash delta " + std::to_string(r) + " moves exactly one PEC");
    const VerdictReplyMsg reply = revived.query(loop);
    check(reply.ok && static_cast<Verdict>(reply.verdict) == Verdict::kHolds,
          "post-crash delta " + std::to_string(r) + " still holds");
    check(reply.reverified == 1 && reply.cache_hits == reply.targets - 1,
          "post-crash delta " + std::to_string(r) +
              " re-verifies only the moved PEC");
    crash_hits += reply.cache_hits;
    crash_targets += reply.targets;
  }
  const double crash_ratio = 100.0 * static_cast<double>(crash_hits) /
                             static_cast<double>(crash_targets);
  std::printf("%-44s %9.1f %%\n", "post-crash replay hit ratio", crash_ratio);
  bench::emit("fig_serve_deltas", "crash_replay_hit_ratio_pct", crash_ratio,
              crash_hits, crash_targets);
  check(crash_ratio >= 94.4, "post-crash replay hit ratio >= 94.4%");

  std::remove(journal_path.c_str());
  std::remove((journal_path + ".tmp").c_str());

  std::printf("%s\n", failures == 0 ? "ALL CHECKS PASSED" : "CHECKS FAILED");
  return failures == 0 ? 0 : 1;
}

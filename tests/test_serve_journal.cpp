// PKJ1 write-ahead journal (src/serve/journal.*): on-disk format round trips,
// torn/corrupt tail handling, compaction, version-1 journals, and the
// crash-recovery contract the plankton_serve daemon rests on — a ServeState
// rebuilt by replaying the journal is bit-identical (per-PEC dependency-cone
// hashes, config text, violation sets) to the pre-crash resident state, and
// a compacted journal carries the verdict cache's clean holds of the
// resident config with it.
//
// The kill -9 coverage forks a child that journals a load + delta stream and
// _exit(9)s mid-append, leaving a genuinely torn final record; the parent
// replays and must land on exactly the acknowledged prefix.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "serve/journal.hpp"
#include "serve/serve.hpp"
#include "workload/fat_tree.hpp"

namespace plankton::serve {
namespace {

const char* kRing = R"(
node r0 loopback 10.0.0.1
node r1 loopback 10.0.0.2
node r2 loopback 10.0.0.3
node r3 loopback 10.0.0.4
link r0 r1 cost 10
link r1 r2 cost 10
link r2 r3 cost 10
link r3 r0 cost 10
ospf r0 no-loopback
ospf r1 no-loopback
ospf r2 no-loopback
ospf r3 no-loopback
ospf r0 originate 10.1.0.0/24
ospf r1 originate 10.2.0.0/24
ospf r2 originate 10.3.0.0/24
ospf r3 originate 10.4.0.0/24
)";

std::string tmp_path(const std::string& name) {
  const std::string p = ::testing::TempDir() + "/" + name;
  std::remove(p.c_str());
  return p;
}

/// ServeState owns mutexes (not movable), so tests construct in place and
/// load through this helper.
void load_ring(ServeState& state, const std::string& extra = "") {
  std::string error;
  ASSERT_TRUE(state.load(std::string(kRing) + extra, error)) << error;
}

QueryMsg loop_query() {
  QueryMsg q;
  q.policy_spec = "loop";
  return q;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

using Replayed = std::vector<std::pair<JournalRecord, std::string>>;

bool replay_into(const std::string& path, Replayed& records,
                 Journal::ReplayResult& stats, std::string& error) {
  records.clear();
  return Journal::replay(
      path,
      [&records](JournalRecord type, std::string_view payload) {
        records.emplace_back(type, std::string(payload));
        return true;
      },
      stats, error);
}

/// The loop-forming delta from examples/ring_loop.delta: pins 10.3.0.0/24
/// into a static forwarding loop between r0 and r1.
ApplyDeltaMsg loop_delta() {
  ApplyDeltaMsg delta;
  delta.ops.push_back({true, "static r0 10.3.0.0/24 via r1"});
  delta.ops.push_back({true, "static r1 10.3.0.0/24 via r0"});
  return delta;
}

/// Sorted (pec, message) multiset — order-insensitive violation equality.
std::vector<std::pair<std::string, std::string>> violation_multiset(
    const VerdictReplyMsg& m) {
  std::vector<std::pair<std::string, std::string>> v;
  for (const ViolationText& t : m.violations) v.emplace_back(t.pec, t.message);
  std::sort(v.begin(), v.end());
  return v;
}

// ---------------------------------------------------------------------------
// On-disk format
// ---------------------------------------------------------------------------

TEST(JournalFormat, AppendReplayRoundTrip) {
  const std::string path = tmp_path("journal_roundtrip.pkj");
  std::string error;
  {
    Journal j;
    ASSERT_TRUE(j.open(path, error)) << error;
    ASSERT_TRUE(j.append(JournalRecord::kLoadNet, "the config", error));
    ASSERT_TRUE(j.append(JournalRecord::kApplyDelta, "delta-one", error));
    ASSERT_TRUE(j.append(JournalRecord::kApplyDelta, std::string("\x00\xffx", 3),
                         error))
        << "binary payloads must survive untouched";
  }
  Replayed records;
  Journal::ReplayResult stats;
  ASSERT_TRUE(replay_into(path, records, stats, error)) << error;
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(stats.dropped_bytes, 0u);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].first, JournalRecord::kLoadNet);
  EXPECT_EQ(records[0].second, "the config");
  EXPECT_EQ(records[1].second, "delta-one");
  EXPECT_EQ(records[2].second, std::string("\x00\xffx", 3));
  std::remove(path.c_str());
}

TEST(JournalFormat, MissingFileIsAnEmptyJournal) {
  Replayed records;
  Journal::ReplayResult stats;
  std::string error;
  ASSERT_TRUE(replay_into(tmp_path("journal_never_created.pkj"), records,
                          stats, error))
      << error;
  EXPECT_TRUE(records.empty());
  EXPECT_FALSE(stats.torn_tail);
}

TEST(JournalFormat, TornTailIsDroppedCleanly) {
  const std::string path = tmp_path("journal_torn.pkj");
  std::string error;
  std::size_t after_first = 0;
  {
    Journal j;
    ASSERT_TRUE(j.open(path, error)) << error;
    ASSERT_TRUE(j.append(JournalRecord::kLoadNet, "survives", error));
    after_first = slurp(path).size();
    ASSERT_TRUE(j.append(JournalRecord::kApplyDelta,
                         "this record is cut short by the crash", error));
  }
  const std::string whole = slurp(path);
  ASSERT_GT(whole.size(), after_first);
  // Tear the final record mid-payload, as a crash mid-write would.
  dump(path, whole.substr(0, after_first + (whole.size() - after_first) / 2));

  Replayed records;
  Journal::ReplayResult stats;
  ASSERT_TRUE(replay_into(path, records, stats, error)) << error;
  ASSERT_EQ(records.size(), 1u) << "every record before the tear must apply";
  EXPECT_EQ(records[0].second, "survives");
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_GT(stats.dropped_bytes, 0u);
  std::remove(path.c_str());
}

TEST(JournalFormat, CorruptChecksumDropsTheTail) {
  const std::string path = tmp_path("journal_corrupt.pkj");
  std::string error;
  {
    Journal j;
    ASSERT_TRUE(j.open(path, error)) << error;
    ASSERT_TRUE(j.append(JournalRecord::kLoadNet, "clean", error));
    ASSERT_TRUE(j.append(JournalRecord::kApplyDelta, "about to rot", error));
  }
  std::string bytes = slurp(path);
  ASSERT_FALSE(bytes.empty());
  bytes.back() ^= 0x5a;  // flip a bit inside the final record's checksum
  dump(path, bytes);

  Replayed records;
  Journal::ReplayResult stats;
  ASSERT_TRUE(replay_into(path, records, stats, error)) << error;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].second, "clean");
  EXPECT_TRUE(stats.torn_tail);
  std::remove(path.c_str());
}

TEST(JournalFormat, BadHeaderIsAnError) {
  const std::string path = tmp_path("journal_badheader.pkj");
  dump(path, "not a PKJ1 journal at all");
  Replayed records;
  Journal::ReplayResult stats;
  std::string error;
  EXPECT_FALSE(replay_into(path, records, stats, error));
  EXPECT_FALSE(error.empty());

  Journal j;
  EXPECT_FALSE(j.open(path, error))
      << "open must refuse a file with a foreign header";
  std::remove(path.c_str());
}

TEST(JournalFormat, RewriteCompactsToASingleLoad) {
  const std::string path = tmp_path("journal_compact.pkj");
  std::string error;
  Journal j;
  ASSERT_TRUE(j.open(path, error)) << error;
  ASSERT_TRUE(j.append(JournalRecord::kLoadNet, "old config", error));
  ASSERT_TRUE(j.append(JournalRecord::kApplyDelta, "old delta", error));
  ASSERT_TRUE(j.rewrite("current config", "holds", error)) << error;

  Replayed records;
  Journal::ReplayResult stats;
  ASSERT_TRUE(replay_into(path, records, stats, error)) << error;
  ASSERT_EQ(records.size(), 2u)
      << "compaction must collapse the history to one load and its holds";
  EXPECT_EQ(records[0].first, JournalRecord::kLoadNet);
  EXPECT_EQ(records[0].second, "current config");
  EXPECT_EQ(records[1].first, JournalRecord::kCleanHolds);
  EXPECT_EQ(records[1].second, "holds");
  EXPECT_EQ(static_cast<unsigned char>(slurp(path)[4]), kJournalVersion)
      << "compaction writes a current-version header";

  // The compacted journal must still be appendable — rewrite reopens it.
  ASSERT_TRUE(j.append(JournalRecord::kApplyDelta, "new delta", error));
  ASSERT_TRUE(replay_into(path, records, stats, error)) << error;
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].second, "new delta");
  j.close();
  std::remove(path.c_str());
}

TEST(JournalFormat, VersionOneCannotHoldCleanHolds) {
  // A version-1 journal predates kCleanHolds: a type-3 record there is
  // corruption, dropped as a tail like a bad checksum.
  const std::string path = tmp_path("journal_v1_type3.pkj");
  std::string error;
  {
    Journal j;
    ASSERT_TRUE(j.open(path, error)) << error;
    ASSERT_TRUE(j.append(JournalRecord::kLoadNet, "config", error));
    ASSERT_TRUE(j.append(JournalRecord::kCleanHolds, "holds", error));
  }
  std::string bytes = slurp(path);
  bytes[4] = 1;  // version u16, little-endian
  bytes[5] = 0;
  dump(path, bytes);

  Replayed records;
  Journal::ReplayResult stats;
  ASSERT_TRUE(replay_into(path, records, stats, error)) << error;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].first, JournalRecord::kLoadNet);
  EXPECT_TRUE(stats.torn_tail);

  bytes[4] = 3;  // a version from the future is refused outright
  dump(path, bytes);
  EXPECT_FALSE(replay_into(path, records, stats, error));
  Journal j;
  EXPECT_FALSE(j.open(path, error));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ServeState recovery: replay rebuilds the pre-crash state bit-identically
// ---------------------------------------------------------------------------

TEST(ServeJournal, ReplayRebuildsBitIdenticalState) {
  const std::string path = tmp_path("serve_journal_replay.pkj");
  std::string error;

  ServeState state{VerifyOptions{}};
  ASSERT_TRUE(state.attach_journal(path, error)) << error;
  load_ring(state);
  ApplyDeltaMsg delta;
  delta.ops.push_back({true, "static r0 10.2.0.0/24 via r1"});
  ASSERT_TRUE(state.apply_delta(delta, error)) << error;
  const VerdictReplyMsg before = state.query(loop_query());
  ASSERT_TRUE(before.ok) << before.error;

  // "Crash": no compaction, no save — a fresh ServeState sees only the
  // journal and must land on the identical resident state.
  ServeState revived{VerifyOptions{}};
  ASSERT_TRUE(revived.attach_journal(path, error)) << error;
  Journal::ReplayResult stats;
  ASSERT_TRUE(revived.replay_journal(stats, error)) << error;
  EXPECT_EQ(stats.applied, 3u)
      << "the load's snapshot (kLoadNet + kCleanHolds) + one kApplyDelta";
  EXPECT_FALSE(stats.torn_tail);

  EXPECT_EQ(revived.config_text(), state.config_text());
  const std::size_t n = state.verifier().pecs().pecs.size();
  ASSERT_EQ(revived.verifier().pecs().pecs.size(), n);
  for (std::size_t p = 0; p < n; ++p) {
    EXPECT_EQ(revived.cone_of(p), state.cone_of(p))
        << "cone fingerprint drifted across replay for PEC " << p;
  }
  const VerdictReplyMsg after = revived.query(loop_query());
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.verdict, before.verdict);
  EXPECT_EQ(after.targets, before.targets);
  std::remove(path.c_str());
}

TEST(ServeJournal, ViolatingDeltaSurvivesTheCrash) {
  const std::string path = tmp_path("serve_journal_violation.pkj");
  std::string error;

  ServeState state{VerifyOptions{}};
  ASSERT_TRUE(state.attach_journal(path, error)) << error;
  load_ring(state);
  ASSERT_TRUE(state.apply_delta(loop_delta(), error)) << error;
  const VerdictReplyMsg before = state.query(loop_query());
  ASSERT_TRUE(before.ok) << before.error;
  ASSERT_EQ(static_cast<Verdict>(before.verdict), Verdict::kViolated);
  ASSERT_FALSE(before.violations.empty());

  ServeState revived{VerifyOptions{}};
  ASSERT_TRUE(revived.attach_journal(path, error)) << error;
  Journal::ReplayResult stats;
  ASSERT_TRUE(revived.replay_journal(stats, error)) << error;
  const VerdictReplyMsg after = revived.query(loop_query());
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(static_cast<Verdict>(after.verdict), Verdict::kViolated);
  EXPECT_EQ(violation_multiset(after), violation_multiset(before))
      << "replay must reproduce the identical violation multiset";
  std::remove(path.c_str());
}

TEST(ServeJournal, LoadCompactsAwayPriorHistory) {
  const std::string path = tmp_path("serve_journal_loadcompact.pkj");
  std::string error;
  ServeState state{VerifyOptions{}};
  ASSERT_TRUE(state.attach_journal(path, error)) << error;
  load_ring(state);
  ASSERT_TRUE(state.apply_delta(loop_delta(), error)) << error;
  load_ring(state);  // a fresh kLoadNet makes the old history dead

  Replayed records;
  Journal::ReplayResult stats;
  ASSERT_TRUE(replay_into(path, records, stats, error)) << error;
  ASSERT_EQ(records.size(), 2u)
      << "an accepted kLoadNet must compact the journal";
  EXPECT_EQ(records[0].first, JournalRecord::kLoadNet);
  EXPECT_EQ(records[1].first, JournalRecord::kCleanHolds);
  std::remove(path.c_str());
}

TEST(ServeJournal, CompactedJournalReplaysToTheSameState) {
  const std::string path = tmp_path("serve_journal_compactstate.pkj");
  std::string error;
  ServeState state{VerifyOptions{}};
  ASSERT_TRUE(state.attach_journal(path, error)) << error;
  load_ring(state);
  ASSERT_TRUE(state.apply_delta(loop_delta(), error)) << error;
  ASSERT_TRUE(state.compact_journal(error)) << error;

  ServeState revived{VerifyOptions{}};
  ASSERT_TRUE(revived.attach_journal(path, error)) << error;
  Journal::ReplayResult stats;
  ASSERT_TRUE(revived.replay_journal(stats, error)) << error;
  EXPECT_EQ(stats.applied, 2u)
      << "compaction folds the history into one load and its clean holds";
  const std::size_t n = state.verifier().pecs().pecs.size();
  ASSERT_EQ(revived.verifier().pecs().pecs.size(), n);
  for (std::size_t p = 0; p < n; ++p) {
    EXPECT_EQ(revived.cone_of(p), state.cone_of(p)) << "PEC " << p;
  }
  std::remove(path.c_str());
}

TEST(ServeJournal, CompactionCarriesAWarmCacheAcrossRestart) {
  const std::string path = tmp_path("serve_journal_warm.pkj");
  std::string error;
  {
    ServeState state{VerifyOptions{}};
    ASSERT_TRUE(state.attach_journal(path, error)) << error;
    load_ring(state);
    const VerdictReplyMsg cold = state.query(loop_query());
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.reverified, 4u);
    ASSERT_TRUE(state.compact_journal(error)) << error;
  }
  // "Restart": a brand-new ServeState replays the journal and, with no
  // load, serves the whole query from the restored clean holds.
  ServeState revived{VerifyOptions{}};
  ASSERT_TRUE(revived.attach_journal(path, error)) << error;
  Journal::ReplayResult stats;
  ASSERT_TRUE(revived.replay_journal(stats, error)) << error;
  EXPECT_EQ(revived.cache_stats().warm_loaded, 4u);
  EXPECT_EQ(revived.cache_stats().insertions, 0u);
  const VerdictReplyMsg warm = revived.query(loop_query());
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(static_cast<Verdict>(warm.verdict), Verdict::kHolds);
  EXPECT_EQ(warm.cache_hits, warm.targets);
  EXPECT_EQ(warm.reverified, 0u)
      << "fingerprints drifted across the restart: warm start is broken";
  std::remove(path.c_str());
}

TEST(ServeJournal, SnapshotKeepsOnlyTheResidentConfigsCleanHolds) {
  // bench/fig_serve_deltas.cpp's replay: a K=6 fat tree with perturbed costs
  // (18 PECs, each its own class) and one benign static delta per edge
  // prefix, each followed by a loop query that re-verifies the moved PEC.
  // The cache then holds a key for every PEC's cone before and after its
  // delta; only the latter can hit under the resident config.
  FatTreeOptions o;
  o.k = 6;
  FatTree ft = make_fat_tree(o);
  for (LinkId l = 0; l < ft.net.topo.link_count(); ++l) {
    const std::uint32_t c = 10 + (l * 7) % 11;
    ft.net.topo.set_link_cost(l, c, c);
  }
  const std::string path = tmp_path("serve_journal_resident.pkj");
  std::string error;
  std::uint64_t targets = 0;
  std::uint64_t resident_holds = 0;
  {
    ServeState state{VerifyOptions{}};
    ASSERT_TRUE(state.attach_journal(path, error)) << error;
    ASSERT_TRUE(state.load(render_config(ft.net), error)) << error;
    ASSERT_EQ(state.query(loop_query()).reverified, ft.edge_prefixes.size());
    const int half = o.k / 2;
    for (std::size_t r = 0; r < ft.edge_prefixes.size(); ++r) {
      const std::string pod = std::to_string(static_cast<int>(r) / half);
      const std::string edge = std::to_string(static_cast<int>(r) % half);
      ApplyDeltaMsg delta;
      delta.ops.push_back({true, "static agg-" + pod + "-0 " +
                                     ft.edge_prefixes[r].str() + " via edge-" +
                                     pod + "-" + edge});
      ASSERT_TRUE(state.apply_delta(delta, error)) << error;
      const VerdictReplyMsg reply = state.query(loop_query());
      ASSERT_EQ(static_cast<Verdict>(reply.verdict), Verdict::kHolds);
      ASSERT_EQ(reply.reverified, 1u) << "delta " << r;
      targets = reply.targets;
    }
    std::unordered_set<std::uint64_t> cones;
    for (PecId p = 0; p < state.verifier().pecs().pecs.size(); ++p) {
      cones.insert(state.cone_of(p));
    }
    for (const CacheKey& k : state.cache().keys()) {
      resident_holds += cones.contains(k.cone) ? 1 : 0;
    }
    EXPECT_GT(state.cache().size(), resident_holds)
        << "the replay left no key of an earlier config to drop";
    ASSERT_TRUE(state.compact_journal(error)) << error;
  }
  ServeState revived{VerifyOptions{}};
  ASSERT_TRUE(revived.attach_journal(path, error)) << error;
  Journal::ReplayResult stats;
  ASSERT_TRUE(revived.replay_journal(stats, error)) << error;
  EXPECT_EQ(resident_holds, targets);
  EXPECT_EQ(revived.cache_stats().warm_loaded, resident_holds);
  const VerdictReplyMsg warm = revived.query(loop_query());
  EXPECT_EQ(warm.cache_hits, warm.targets);
  EXPECT_EQ(warm.reverified, 0u);
  std::remove(path.c_str());
}

TEST(ServeJournal, VersionOneJournalStillReplays) {
  // A journal written before kCleanHolds existed: header version 1, a load
  // and a delta. It must open, replay to the same state, and keep taking
  // appends; the first compaction then moves it to the current version.
  const std::string path = tmp_path("serve_journal_v1.pkj");
  std::string error;
  {
    Journal j;
    ASSERT_TRUE(j.open(path, error)) << error;
    ASSERT_TRUE(j.append(JournalRecord::kLoadNet, kRing, error));
    ASSERT_TRUE(j.append(JournalRecord::kApplyDelta,
                         encode_apply_delta(loop_delta()), error));
  }
  std::string bytes = slurp(path);
  bytes[4] = 1;  // version u16, little-endian
  bytes[5] = 0;
  dump(path, bytes);

  ServeState oracle{VerifyOptions{}};
  load_ring(oracle);
  ASSERT_TRUE(oracle.apply_delta(loop_delta(), error)) << error;

  ServeState revived{VerifyOptions{}};
  ASSERT_TRUE(revived.attach_journal(path, error)) << error;
  Journal::ReplayResult stats;
  ASSERT_TRUE(revived.replay_journal(stats, error)) << error;
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(revived.config_text(), oracle.config_text());
  EXPECT_EQ(revived.cache_stats().warm_loaded, 0u);
  const VerdictReplyMsg got = revived.query(loop_query());
  const VerdictReplyMsg want = oracle.query(loop_query());
  ASSERT_TRUE(got.ok && want.ok) << got.error << want.error;
  EXPECT_EQ(got.verdict, want.verdict);
  EXPECT_EQ(violation_multiset(got), violation_multiset(want));

  // An append keeps the version-1 header and stays replayable.
  ApplyDeltaMsg revert;
  revert.ops.push_back({false, "static r0 10.3.0.0/24 via r1"});
  ASSERT_TRUE(revived.apply_delta(revert, error)) << error;
  EXPECT_EQ(slurp(path)[4], 1);
  Replayed records;
  ASSERT_TRUE(replay_into(path, records, stats, error)) << error;
  EXPECT_EQ(records.size(), 3u);
  EXPECT_FALSE(stats.torn_tail);

  ASSERT_TRUE(revived.compact_journal(error)) << error;
  EXPECT_EQ(static_cast<unsigned char>(slurp(path)[4]), kJournalVersion);
  std::remove(path.c_str());
}

TEST(ServeJournal, UndecodableRecordsFailReplay) {
  // An intact record (its checksum matches) whose payload does not decode
  // is not a torn tail: replay fails instead of guessing. A kCleanHolds
  // count above what its bytes hold is refused by the codec's count guard
  // before it sizes an allocation, the same way as a garbage kApplyDelta.
  std::string lying_count;
  wire::put_int(lying_count, std::uint32_t{1000});
  lying_count.append(16, '\x01');  // one key's worth of bytes
  const std::pair<JournalRecord, std::string> bad[] = {
      {JournalRecord::kCleanHolds, lying_count},
      {JournalRecord::kApplyDelta, std::string("\xff\xff\xff\xff", 4)},
  };
  for (const auto& [type, payload] : bad) {
    SCOPED_TRACE(static_cast<int>(type));
    const std::string path = tmp_path("serve_journal_undecodable.pkj");
    std::string error;
    {
      Journal j;
      ASSERT_TRUE(j.open(path, error)) << error;
      ASSERT_TRUE(j.append(JournalRecord::kLoadNet, kRing, error));
      ASSERT_TRUE(j.append(type, payload, error));
    }
    ServeState revived{VerifyOptions{}};
    ASSERT_TRUE(revived.attach_journal(path, error)) << error;
    Journal::ReplayResult stats;
    EXPECT_FALSE(revived.replay_journal(stats, error));
    EXPECT_NE(error.find("undecodable"), std::string::npos) << error;
    EXPECT_EQ(revived.cache().size(), 0u);
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// kill -9 mid-delta-stream: the fork test behind the CI chaos smoke
// ---------------------------------------------------------------------------

TEST(ServeJournal, KillNineMidDeltaStreamRecoversAcknowledgedPrefix) {
  const std::string path = tmp_path("serve_journal_kill9.pkj");

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: journal a load + two acked deltas, then die mid-append of a
    // third — a partial record with no checksum, exactly what a kill -9
    // during write_all leaves behind. _exit skips every destructor, so
    // nothing gets flushed, compacted, or tidied on the way down.
    std::string error;
    ServeState state{VerifyOptions{}};
    if (!state.attach_journal(path, error)) _exit(1);
    if (!state.load(kRing, error)) _exit(1);
    ApplyDeltaMsg d1;
    d1.ops.push_back({true, "static r0 10.2.0.0/24 via r1"});
    if (!state.apply_delta(d1, error)) _exit(1);
    if (!state.apply_delta(loop_delta(), error)) _exit(1);

    ApplyDeltaMsg d3;
    d3.ops.push_back({true, "static r2 10.1.0.0/24 via r3"});
    const std::string payload = encode_apply_delta(d3);
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) _exit(1);
    // Half a header + payload, no checksum: genuinely torn.
    std::string torn;
    torn.push_back('\x02');
    torn.push_back('\x00');
    torn.push_back('\x00');
    torn.push_back('\x00');
    torn += payload.substr(0, payload.size() / 2);
    if (::write(fd, torn.data(), torn.size()) !=
        static_cast<ssize_t>(torn.size())) {
      _exit(1);
    }
    _exit(9);
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 9)
      << "child failed before the simulated kill -9 (status " << status << ")";

  // Oracle: the same acked operations applied in-process, no journal.
  std::string error;
  ServeState oracle{VerifyOptions{}};
  load_ring(oracle);
  ApplyDeltaMsg d1;
  d1.ops.push_back({true, "static r0 10.2.0.0/24 via r1"});
  ASSERT_TRUE(oracle.apply_delta(d1, error)) << error;
  ASSERT_TRUE(oracle.apply_delta(loop_delta(), error)) << error;

  ServeState revived{VerifyOptions{}};
  ASSERT_TRUE(revived.attach_journal(path, error)) << error;
  Journal::ReplayResult stats;
  ASSERT_TRUE(revived.replay_journal(stats, error)) << error;
  EXPECT_EQ(stats.applied, 4u)
      << "the load's snapshot (2 records) + the two acknowledged deltas";
  EXPECT_TRUE(stats.torn_tail) << "the half-written third delta must be torn";
  EXPECT_GT(stats.dropped_bytes, 0u);

  EXPECT_EQ(revived.config_text(), oracle.config_text());
  const std::size_t n = oracle.verifier().pecs().pecs.size();
  ASSERT_EQ(revived.verifier().pecs().pecs.size(), n);
  for (std::size_t p = 0; p < n; ++p) {
    EXPECT_EQ(revived.cone_of(p), oracle.cone_of(p))
        << "cone fingerprint drifted across crash recovery for PEC " << p;
  }

  const VerdictReplyMsg want = oracle.query(loop_query());
  const VerdictReplyMsg got = revived.query(loop_query());
  ASSERT_TRUE(want.ok && got.ok) << want.error << got.error;
  ASSERT_EQ(static_cast<Verdict>(want.verdict), Verdict::kViolated)
      << "the second acked delta forms the loop — the oracle must see it";
  EXPECT_EQ(static_cast<Verdict>(got.verdict), Verdict::kViolated);
  EXPECT_EQ(violation_multiset(got), violation_multiset(want));

  // Recovery truncated the torn tail, so a post-recovery delta extends a
  // clean journal — and is itself replayable after the *next* crash, rather
  // than being stranded behind unparseable bytes.
  ApplyDeltaMsg revert;
  revert.ops.push_back({false, "static r0 10.3.0.0/24 via r1"});
  revert.ops.push_back({false, "static r1 10.3.0.0/24 via r0"});
  ASSERT_TRUE(revived.apply_delta(revert, error)) << error;
  Replayed records;
  Journal::ReplayResult again;
  ASSERT_TRUE(replay_into(path, records, again, error)) << error;
  EXPECT_FALSE(again.torn_tail);
  EXPECT_EQ(again.applied, 5u)
      << "the post-recovery delta must be reachable to the next replay";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace plankton::serve

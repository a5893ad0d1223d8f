// Multi-process shard coordinator (sched/shard.*): wire framing fuzz,
// coordinator data flow, cross-process determinism, and crash recovery.
//
// The headline guarantees under test:
//   · --shards {1,2,4} × {dfs, bfs} produce verdicts, violation multisets,
//     and state counts bit-identical to the in-process scheduler, on the
//     seeded random_net corpus and on the paper's Fig. 6 and fat-tree
//     workloads (corpus scales with PLANKTON_DIFF_SEEDS), every sharded run
//     through workers bootstrapped from kBootstrap;
//   · a worker that dies mid-task (FaultPlan crash@F) is detected, its task
//     reassigned, and the run still converges to the identical result;
//   · the framing decoder survives truncated, corrupt, and hostile-length
//     input without crashing or allocating absurd buffers (the
//     test_outcome_store.cpp corrupt-input pattern, extended to frames).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "core/verifier.hpp"
#include "pec/pec.hpp"
#include "sched/shard.hpp"
#include "serve/serve.hpp"
#include "support/body_transport.hpp"
#include "support/figure6.hpp"
#include "support/random_net.hpp"
#include "workload/enterprise.hpp"
#include "workload/fat_tree.hpp"
#include "workload/ring.hpp"

namespace plankton {
namespace {

using testsupport::BodyTransport;
using testsupport::Figure6;
using testsupport::RandomInstance;
using testsupport::make_random_instance;

// ---------------------------------------------------------------------------
// Framing + payload codecs (no processes involved)
// ---------------------------------------------------------------------------

sched::ViolationMsg sample_violation() {
  sched::ViolationMsg v;
  v.pec = 7;
  v.failed_links = {1, 4, 9};
  v.message = "loop R1 -> R2 -> R1";
  v.trail_text = "  [0] R2 adopts 10.0.0.0/16 via R1\n";
  return v;
}

sched::TaskDoneMsg sample_done() {
  sched::TaskDoneMsg d;
  d.task = 42;
  sched::PecDoneMsg p;
  p.pec = 7;
  p.budget_tripped = static_cast<std::uint8_t>(BudgetKind::kStates);
  p.exhaustive = 0;
  p.stats.states_explored = 1234;
  p.stats.states_stored = 99;
  p.stats.bytes_visited = 4096;
  p.stats.elapsed = std::chrono::nanoseconds(5555);
  d.pecs.push_back(p);
  p.pec = 8;
  p.budget_tripped = 0;
  p.exhaustive = 1;
  d.pecs.push_back(p);
  return d;
}

/// A representative multi-frame stream: assign + delivery + violation + done
/// + shutdown.
std::string sample_stream() {
  std::string s;
  sched::TaskAssignMsg assign;
  assign.task = 3;
  assign.evict = {2, 5};
  sched::encode_frame(s, sched::MsgType::kTaskAssign,
                      sched::encode_task_assign(assign));
  sched::OutcomeDeliveryMsg od;
  od.pec = 5;
  od.outcomes_wire = std::string("\x31\x4f\x4b\x50", 4) + "payload-ish";
  sched::encode_frame(s, sched::MsgType::kOutcomeDelivery,
                      sched::encode_outcome_delivery(od));
  sched::encode_frame(s, sched::MsgType::kViolationReport,
                      sched::encode_violation(sample_violation()));
  sched::encode_frame(s, sched::MsgType::kTaskDone,
                      sched::encode_task_done(sample_done()));
  sched::encode_frame(s, sched::MsgType::kShutdown, "");
  return s;
}

TEST(ShardFraming, RoundTripsByteByByte) {
  const std::string stream = sample_stream();
  sched::FrameDecoder dec;
  std::vector<sched::Frame> frames;
  // Worst-case delivery: one byte at a time, draining after every feed.
  for (const char c : stream) {
    dec.feed(&c, 1);
    sched::Frame f;
    while (dec.next(f) == sched::FrameDecoder::Status::kFrame) {
      frames.push_back(f);
    }
  }
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(frames[0].type, sched::MsgType::kTaskAssign);
  EXPECT_EQ(frames[4].type, sched::MsgType::kShutdown);
  EXPECT_TRUE(frames[4].payload.empty());

  sched::TaskAssignMsg assign;
  ASSERT_TRUE(sched::decode_task_assign(frames[0].payload, assign));
  EXPECT_EQ(assign.task, 3u);
  EXPECT_EQ(assign.evict, (std::vector<PecId>{2, 5}));

  sched::ViolationMsg v;
  ASSERT_TRUE(sched::decode_violation(frames[2].payload, v));
  const sched::ViolationMsg ref = sample_violation();
  EXPECT_EQ(v.pec, ref.pec);
  EXPECT_EQ(v.failed_links, ref.failed_links);
  EXPECT_EQ(v.message, ref.message);
  EXPECT_EQ(v.trail_text, ref.trail_text);

  sched::TaskDoneMsg d;
  ASSERT_TRUE(sched::decode_task_done(frames[3].payload, d));
  const sched::TaskDoneMsg dref = sample_done();
  ASSERT_EQ(d.pecs.size(), dref.pecs.size());
  EXPECT_EQ(d.task, dref.task);
  EXPECT_EQ(d.pecs[0].budget_tripped,
            static_cast<std::uint8_t>(BudgetKind::kStates));
  EXPECT_EQ(d.pecs[0].exhaustive, 0);
  EXPECT_EQ(d.pecs[1].exhaustive, 1);
  EXPECT_EQ(d.pecs[0].stats.states_explored, 1234u);
  EXPECT_EQ(d.pecs[0].stats.bytes_visited, 4096u);
  EXPECT_EQ(d.pecs[0].stats.elapsed.count(), 5555);
}

TEST(ShardFraming, TruncationNeverYieldsAFrameBeyondTheCut) {
  const std::string stream = sample_stream();
  // Count the frames a full parse yields up to each cut point; a truncated
  // stream must yield exactly the complete frames before the cut and then
  // kNeedMore — never an error, never a phantom frame.
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    sched::FrameDecoder dec;
    dec.feed(stream.data(), cut);
    sched::Frame f;
    sched::FrameDecoder::Status st;
    std::size_t frames = 0;
    while ((st = dec.next(f)) == sched::FrameDecoder::Status::kFrame) ++frames;
    EXPECT_EQ(st, sched::FrameDecoder::Status::kNeedMore) << "cut at " << cut;
    EXPECT_LE(frames, 5u);
  }
}

TEST(ShardFraming, RejectsCorruptHeaders) {
  const auto expect_poisoned = [](std::string stream, const char* what) {
    sched::FrameDecoder dec;
    dec.feed(stream.data(), stream.size());
    sched::Frame f;
    sched::FrameDecoder::Status st;
    while ((st = dec.next(f)) == sched::FrameDecoder::Status::kFrame) {
    }
    EXPECT_EQ(st, sched::FrameDecoder::Status::kError) << what;
    // Poisoned is permanent: feeding valid bytes cannot resurrect it.
    std::string good;
    sched::encode_frame(good, sched::MsgType::kShutdown, "");
    dec.feed(good.data(), good.size());
    EXPECT_EQ(dec.next(f), sched::FrameDecoder::Status::kError) << what;
  };

  std::string bad_magic = sample_stream();
  bad_magic[0] ^= 0x5a;
  expect_poisoned(bad_magic, "bad magic");

  std::string bad_version = sample_stream();
  bad_version[4] = 0x7f;
  expect_poisoned(bad_version, "unsupported version");

  std::string bad_type = sample_stream();
  bad_type[6] = 0x6e;  // type 0x..6e: far outside the enum
  expect_poisoned(bad_type, "unknown type");

  // Hostile length: a header claiming an 2^62-byte payload must be rejected
  // up front (no buffering until OOM).
  std::string hostile;
  const std::uint32_t magic = sched::kFrameMagic;
  const std::uint16_t version = sched::kFrameVersion;
  const std::uint16_t type = 1;
  const std::uint64_t huge = std::uint64_t{1} << 62;
  hostile.append(reinterpret_cast<const char*>(&magic), 4);
  hostile.append(reinterpret_cast<const char*>(&version), 2);
  hostile.append(reinterpret_cast<const char*>(&type), 2);
  hostile.append(reinterpret_cast<const char*>(&huge), 8);
  expect_poisoned(hostile, "oversized payload");
}

TEST(ShardFraming, RejectsFramesAfterShutdown) {
  // kShutdown is terminal for a stream: a late kHeartbeat (or anything else)
  // framed after it must poison the decoder, not be processed.
  const auto poisoned_after_shutdown = [](sched::MsgType late_type,
                                          const char* what) {
    std::string stream;
    sched::encode_frame(stream, sched::MsgType::kHeartbeat, "");
    sched::encode_frame(stream, sched::MsgType::kShutdown, "");
    sched::encode_frame(stream, late_type, "");
    sched::FrameDecoder dec;
    dec.feed(stream.data(), stream.size());
    sched::Frame f;
    EXPECT_EQ(dec.next(f), sched::FrameDecoder::Status::kFrame) << what;
    EXPECT_EQ(f.type, sched::MsgType::kHeartbeat) << what;
    EXPECT_EQ(dec.next(f), sched::FrameDecoder::Status::kFrame) << what;
    EXPECT_EQ(f.type, sched::MsgType::kShutdown) << what;
    EXPECT_EQ(dec.next(f), sched::FrameDecoder::Status::kError) << what;
    EXPECT_NE(dec.error().find("after shutdown"), std::string::npos) << what;
    // Permanent, like every other poisoning.
    std::string good;
    sched::encode_frame(good, sched::MsgType::kHeartbeat, "");
    dec.feed(good.data(), good.size());
    EXPECT_EQ(dec.next(f), sched::FrameDecoder::Status::kError) << what;
  };
  poisoned_after_shutdown(sched::MsgType::kHeartbeat, "heartbeat");
  poisoned_after_shutdown(sched::MsgType::kShutdown, "double shutdown");
  poisoned_after_shutdown(sched::MsgType::kQuery, "serve query");

  // The same bytes arriving one at a time must poison at the same point.
  std::string stream;
  sched::encode_frame(stream, sched::MsgType::kShutdown, "");
  sched::encode_frame(stream, sched::MsgType::kHeartbeat, "heartbeat-payload");
  sched::FrameDecoder dec;
  sched::Frame f;
  std::size_t frames = 0;
  bool errored = false;
  for (const char c : stream) {
    dec.feed(&c, 1);
    sched::FrameDecoder::Status st;
    while ((st = dec.next(f)) == sched::FrameDecoder::Status::kFrame) ++frames;
    if (st == sched::FrameDecoder::Status::kError) {
      errored = true;
      break;
    }
  }
  EXPECT_EQ(frames, 1u);
  EXPECT_TRUE(errored);
}

TEST(ShardFraming, ServeFrameTypesRoundTrip) {
  // MsgType 7..11 (the serve daemon's frames) ride the same decoder; a
  // type one past kBootstrapAck (the last cluster frame) is rejected.
  std::string stream;
  sched::encode_frame(stream, sched::MsgType::kLoadNet, "cfg");
  sched::encode_frame(stream, sched::MsgType::kApplyDelta, "ops");
  sched::encode_frame(stream, sched::MsgType::kQuery, "spec");
  sched::encode_frame(stream, sched::MsgType::kVerdictReply, "verdict");
  sched::encode_frame(stream, sched::MsgType::kCacheStats, "");
  sched::FrameDecoder dec;
  dec.feed(stream.data(), stream.size());
  sched::Frame f;
  for (const auto expected :
       {sched::MsgType::kLoadNet, sched::MsgType::kApplyDelta,
        sched::MsgType::kQuery, sched::MsgType::kVerdictReply,
        sched::MsgType::kCacheStats}) {
    ASSERT_EQ(dec.next(f), sched::FrameDecoder::Status::kFrame);
    EXPECT_EQ(f.type, expected);
  }
  EXPECT_EQ(dec.next(f), sched::FrameDecoder::Status::kNeedMore);

  std::string bad;
  const std::uint32_t magic = sched::kFrameMagic;
  const std::uint16_t version = sched::kFrameVersion;
  const std::uint16_t type = 14;  // one past kBootstrapAck
  const std::uint64_t len = 0;
  bad.append(reinterpret_cast<const char*>(&magic), 4);
  bad.append(reinterpret_cast<const char*>(&version), 2);
  bad.append(reinterpret_cast<const char*>(&type), 2);
  bad.append(reinterpret_cast<const char*>(&len), 8);
  sched::FrameDecoder dec2;
  dec2.feed(bad.data(), bad.size());
  EXPECT_EQ(dec2.next(f), sched::FrameDecoder::Status::kError);
}

TEST(ShardFraming, PayloadDecodersRejectCorruptInput) {
  const std::string assign = sched::encode_task_assign({3, {2, 5}});
  const std::string violation = sched::encode_violation(sample_violation());
  const std::string done = sched::encode_task_done(sample_done());
  sched::OutcomeDeliveryMsg odm;
  odm.pec = 5;
  odm.outcomes_wire = "nested-bytes";
  const std::string delivery = sched::encode_outcome_delivery(odm);

  // Every strict prefix of a valid payload must be rejected (decoders are
  // exact inverses: trailing garbage is rejected too).
  sched::TaskAssignMsg a;
  sched::ViolationMsg v;
  sched::TaskDoneMsg d;
  sched::OutcomeDeliveryMsg od;
  for (std::size_t cut = 0; cut < assign.size(); ++cut) {
    EXPECT_FALSE(sched::decode_task_assign(assign.substr(0, cut), a));
  }
  for (std::size_t cut = 0; cut < violation.size(); ++cut) {
    EXPECT_FALSE(sched::decode_violation(violation.substr(0, cut), v));
  }
  for (std::size_t cut = 0; cut < done.size(); ++cut) {
    EXPECT_FALSE(sched::decode_task_done(done.substr(0, cut), d));
  }
  for (std::size_t cut = 0; cut < delivery.size(); ++cut) {
    EXPECT_FALSE(sched::decode_outcome_delivery(delivery.substr(0, cut), od));
  }
  EXPECT_FALSE(sched::decode_task_assign(assign + "x", a));
  EXPECT_FALSE(sched::decode_violation(violation + "x", v));
  EXPECT_FALSE(sched::decode_task_done(done + "x", d));
  EXPECT_FALSE(sched::decode_outcome_delivery(delivery + "x", od));

  // Hostile counts: an element count far beyond the bytes present must be
  // caught by the bounds check, not turned into a huge resize.
  std::string hostile;
  const std::uint64_t task = 1;
  const std::uint32_t absurd = 0xffffffffu;
  hostile.append(reinterpret_cast<const char*>(&task), 8);
  hostile.append(reinterpret_cast<const char*>(&absurd), 4);
  EXPECT_FALSE(sched::decode_task_assign(hostile, a));
  EXPECT_TRUE(a.evict.empty()) << "failed decode must leave output empty";
  EXPECT_FALSE(sched::decode_task_done(hostile, d));
  EXPECT_TRUE(d.pecs.empty());

  // A failed decode leaves the output default-initialized.
  EXPECT_FALSE(sched::decode_violation(violation.substr(0, 8), v));
  EXPECT_TRUE(v.message.empty());
  EXPECT_TRUE(v.failed_links.empty());
}

// ---------------------------------------------------------------------------
// Cluster-transport frames (kBootstrap, kBootstrapAck) and their codecs
// ---------------------------------------------------------------------------

serve::BootstrapMsg sample_bootstrap() {
  serve::BootstrapMsg bm;
  bm.config_text = "network sample\n";
  bm.policy_spec = "reach r1 r2";
  bm.targets = {0, 3, 7};
  bm.explore.max_failures = 2;
  bm.explore.lec_failures = true;
  bm.explore.visited = VisitedKind::kHashCompact;
  bm.explore.bloom_bits = 1u << 20;
  bm.explore.budget.max_states = 12345;
  bm.explore.budget.deadline = std::chrono::milliseconds(1500);
  bm.explore.engine_kind = SearchEngineKind::kBfs;
  bm.explore.por = false;
  bm.classes = {{0, {3, 7}}, {4, {5}}};
  return bm;
}

TEST(ShardFraming, ClusterFrameTypesRoundTrip) {
  // The cluster frames ride the same decoder as everything else.
  std::string stream;
  sched::encode_frame(stream, sched::MsgType::kBootstrap,
                      serve::encode_bootstrap(sample_bootstrap()));
  sched::BootstrapAckMsg ack;
  ack.ok = 1;
  ack.plan_hash = 0xfeedfacecafebeefull;
  sched::encode_frame(stream, sched::MsgType::kBootstrapAck,
                      sched::encode_bootstrap_ack(ack));
  sched::FrameDecoder dec;
  // Byte-at-a-time delivery, like the TCP transport under a tiny MTU.
  std::vector<sched::Frame> frames;
  for (const char c : stream) {
    dec.feed(&c, 1);
    sched::Frame f;
    while (dec.next(f) == sched::FrameDecoder::Status::kFrame) {
      frames.push_back(f);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, sched::MsgType::kBootstrap);
  EXPECT_EQ(frames[1].type, sched::MsgType::kBootstrapAck);

  serve::BootstrapMsg bm;
  ASSERT_TRUE(serve::decode_bootstrap(frames[0].payload, bm));
  const serve::BootstrapMsg ref = sample_bootstrap();
  EXPECT_EQ(bm.config_text, ref.config_text);
  EXPECT_EQ(bm.policy_spec, ref.policy_spec);
  EXPECT_EQ(bm.targets, ref.targets);
  ASSERT_EQ(bm.classes.size(), ref.classes.size());
  EXPECT_EQ(bm.classes[1].members, ref.classes[1].members);
  EXPECT_EQ(bm.explore.max_failures, ref.explore.max_failures);
  EXPECT_EQ(bm.explore.visited, ref.explore.visited);
  EXPECT_EQ(bm.explore.budget.max_states, ref.explore.budget.max_states);
  EXPECT_EQ(bm.explore.budget.deadline, ref.explore.budget.deadline);
  EXPECT_EQ(bm.explore.engine_kind, ref.explore.engine_kind);
  EXPECT_EQ(bm.explore.por, ref.explore.por);

  sched::BootstrapAckMsg a2;
  ASSERT_TRUE(sched::decode_bootstrap_ack(frames[1].payload, a2));
  EXPECT_EQ(a2.ok, 1);
  EXPECT_EQ(a2.plan_hash, ack.plan_hash);

  // PecDone's three flag bytes: every BudgetKind x exhaustive x translated
  // combination survives the kTaskDone round trip.
  sched::TaskDoneMsg done;
  done.task = 9;
  for (std::uint8_t kind = 0;
       kind <= static_cast<std::uint8_t>(BudgetKind::kMemory); ++kind) {
    for (const std::uint8_t exhaustive : {0, 1}) {
      for (const std::uint8_t translated : {0, 1}) {
        sched::PecDoneMsg p;
        p.pec = static_cast<PecId>(done.pecs.size());
        p.budget_tripped = kind;
        p.exhaustive = exhaustive;
        p.translated = translated;
        p.stats.states_explored = 100 + done.pecs.size();
        done.pecs.push_back(p);
      }
    }
  }
  std::string done_stream;
  sched::encode_frame(done_stream, sched::MsgType::kTaskDone,
                      sched::encode_task_done(done));
  sched::FrameDecoder done_dec;
  done_dec.feed(done_stream.data(), done_stream.size());
  sched::Frame f;
  ASSERT_EQ(done_dec.next(f), sched::FrameDecoder::Status::kFrame);
  sched::TaskDoneMsg got;
  ASSERT_TRUE(sched::decode_task_done(f.payload, got));
  ASSERT_EQ(got.pecs.size(), 16u);
  for (std::size_t i = 0; i < got.pecs.size(); ++i) {
    EXPECT_EQ(got.pecs[i].pec, done.pecs[i].pec);
    EXPECT_EQ(got.pecs[i].budget_tripped, done.pecs[i].budget_tripped);
    EXPECT_EQ(got.pecs[i].exhaustive, done.pecs[i].exhaustive);
    EXPECT_EQ(got.pecs[i].translated, done.pecs[i].translated);
    EXPECT_EQ(got.pecs[i].stats.states_explored,
              done.pecs[i].stats.states_explored);
  }
}

TEST(ShardFraming, ClusterPayloadDecodersRejectCorruptInput) {
  const std::string bootstrap = serve::encode_bootstrap(sample_bootstrap());
  sched::BootstrapAckMsg ack;
  ack.ok = 0;
  ack.error = "plan hash mismatch";
  const std::string ackb = sched::encode_bootstrap_ack(ack);

  // Every strict prefix must be rejected and leave the output reset; every
  // payload with trailing garbage must be rejected (decoders are exact
  // inverses of their encoders).
  serve::BootstrapMsg bm;
  sched::BootstrapAckMsg am;
  for (std::size_t cut = 0; cut < bootstrap.size(); ++cut) {
    EXPECT_FALSE(serve::decode_bootstrap(bootstrap.substr(0, cut), bm))
        << "cut " << cut;
  }
  for (std::size_t cut = 0; cut < ackb.size(); ++cut) {
    EXPECT_FALSE(sched::decode_bootstrap_ack(ackb.substr(0, cut), am));
  }
  EXPECT_FALSE(serve::decode_bootstrap(bootstrap + "x", bm));
  EXPECT_TRUE(bm.config_text.empty()) << "failed decode must reset output";
  EXPECT_FALSE(sched::decode_bootstrap_ack(ackb + "x", am));

  // Out-of-range enum bytes inside the bootstrap must be rejected even when
  // the byte layout is otherwise intact. Engine bytes 3 and 4 were the
  // retired priority and random-restart engines.
  serve::BootstrapMsg bad = sample_bootstrap();
  for (const int engine : {3, 4, 99}) {
    SCOPED_TRACE("engine byte " + std::to_string(engine));
    bad.explore.engine_kind = static_cast<SearchEngineKind>(engine);
    EXPECT_FALSE(serve::decode_bootstrap(serve::encode_bootstrap(bad), bm));
  }
  bad = sample_bootstrap();
  bad.explore.visited = static_cast<VisitedKind>(7);
  EXPECT_FALSE(serve::decode_bootstrap(serve::encode_bootstrap(bad), bm));
  // Flags are strictly 0/1. A bool cannot hold 2, so the por byte of the
  // encoded payload is patched: it is the one byte where the por-on and
  // por-off encodings differ.
  bad = sample_bootstrap();
  bad.explore.por = true;
  std::string por_byte_2 = serve::encode_bootstrap(bad);
  const std::string por_off = serve::encode_bootstrap(sample_bootstrap());
  ASSERT_EQ(por_byte_2.size(), por_off.size());
  std::size_t por_at = 0;
  while (por_at < por_off.size() && por_byte_2[por_at] == por_off[por_at]) {
    ++por_at;
  }
  ASSERT_LT(por_at, por_off.size());
  ASSERT_EQ(por_byte_2[por_at], 1);
  ASSERT_TRUE(serve::decode_bootstrap(por_byte_2, bm));
  por_byte_2[por_at] = 2;
  EXPECT_FALSE(serve::decode_bootstrap(por_byte_2, bm));
  bad = sample_bootstrap();
  bad.explore.max_failures = -1;
  EXPECT_FALSE(serve::decode_bootstrap(serve::encode_bootstrap(bad), bm));

  // The class list: a class count or a member count far beyond the bytes
  // present is caught by the bounds check, not turned into a huge resize.
  // The list sits right after the targets.
  const auto with_class_words = [](std::vector<std::uint32_t> words) {
    serve::BootstrapMsg b = sample_bootstrap();
    b.classes.clear();
    std::string enc = serve::encode_bootstrap(b);
    const std::size_t at = 8 + b.config_text.size() + 8 +
                           b.policy_spec.size() + 4 + 4 * b.targets.size();
    std::string patch(4 * words.size(), '\0');
    std::memcpy(patch.data(), words.data(), patch.size());
    return enc.replace(at, 4, patch);
  };
  ASSERT_TRUE(serve::decode_bootstrap(with_class_words({0}), bm));
  EXPECT_TRUE(bm.classes.empty());
  ASSERT_TRUE(serve::decode_bootstrap(with_class_words({1, 2, 1, 9}), bm));
  ASSERT_EQ(bm.classes.size(), 1u);
  EXPECT_EQ(bm.classes[0].rep, 2u);
  EXPECT_EQ(bm.classes[0].members, (std::vector<std::uint32_t>{9}));
  EXPECT_FALSE(serve::decode_bootstrap(with_class_words({0xffffffffu}), bm));
  EXPECT_TRUE(bm.classes.empty()) << "failed decode must reset output";
  EXPECT_FALSE(
      serve::decode_bootstrap(with_class_words({1, 2, 0xffffffffu}), bm));
  EXPECT_FALSE(serve::decode_bootstrap(with_class_words({2, 2, 1, 9}), bm))
      << "a class count one above the classes present";

  // PecDone (kTaskDone payload): a budget kind past kMemory, a flag byte
  // above 1, or a PEC entry one byte short of kPecDoneWireBytes is refused.
  const auto done_with = [](auto mutate) {
    sched::TaskDoneMsg d;
    d.task = 1;
    sched::PecDoneMsg p;
    p.pec = 3;
    mutate(p);
    d.pecs.push_back(p);
    return sched::encode_task_done(d);
  };
  sched::TaskDoneMsg d;
  const std::string ok_done = done_with([](sched::PecDoneMsg&) {});
  ASSERT_TRUE(sched::decode_task_done(ok_done, d));
  ASSERT_EQ(ok_done.size(), 8 + 4 + sched::kPecDoneWireBytes)
      << "task + count + one PEC entry";
  EXPECT_FALSE(sched::decode_task_done(
      done_with([](sched::PecDoneMsg& p) {
        p.budget_tripped = static_cast<std::uint8_t>(BudgetKind::kMemory) + 1;
      }),
      d));
  EXPECT_FALSE(sched::decode_task_done(
      done_with([](sched::PecDoneMsg& p) { p.exhaustive = 2; }), d));
  EXPECT_FALSE(sched::decode_task_done(
      done_with([](sched::PecDoneMsg& p) { p.translated = 2; }), d));
  EXPECT_TRUE(d.pecs.empty()) << "failed decode must reset output";
  EXPECT_FALSE(
      sched::decode_task_done(ok_done.substr(0, ok_done.size() - 1), d));

  // Older frame headers are refused: version 1 (the 7-flag PecDone
  // layout), version 2 (the mirrored-field kBootstrap layout), version 3
  // (the explore block with the retired engine seed, split and restart
  // fields) and version 4 (the pec_dedup flag in place of the class list).
  for (const std::uint16_t old_version : {1, 2, 3, 4}) {
    SCOPED_TRACE("version " + std::to_string(old_version));
    std::string old;
    sched::encode_frame(old, sched::MsgType::kTaskDone, ok_done);
    std::memcpy(&old[4], &old_version, sizeof(old_version));
    sched::FrameDecoder old_dec;
    old_dec.feed(old.data(), old.size());
    sched::Frame f;
    EXPECT_EQ(old_dec.next(f), sched::FrameDecoder::Status::kError);
    EXPECT_NE(old_dec.error().find("version"), std::string::npos);
  }
}

TEST(ShardFraming, BootstrapCarriesEveryShippedExploreOption) {
  // Each ExploreOptions field kBootstrap ships, set away from its default,
  // must decode to the value sent: a remote worker explores under exactly
  // the coordinator's options, with no mirror field to forget.
  serve::BootstrapMsg sent;
  sent.config_text = "node r1\nnode r2\n";
  sent.policy_spec = "loop";
  sent.targets = {1, 2, 4, 6};
  sent.classes = {{1, {2, 6}}, {4, {}}};
  const ExploreOptions defaults;
  ExploreOptions& eo = sent.explore;
  eo.max_failures = 3;
  eo.consistent_only = false;
  eo.deterministic_nodes = false;
  eo.det_nodes_bgp = false;
  eo.decision_independence = false;
  eo.lec_failures = false;
  eo.policy_pruning = false;
  eo.suppress_equivalent = false;
  eo.visited = VisitedKind::kBitstate;
  eo.bloom_bits = 12345;
  eo.merge_updates = false;
  eo.ad_cache = false;
  eo.por = false;
  eo.incremental_expand = false;
  eo.budget.deadline = std::chrono::milliseconds(777);
  eo.budget.max_states = 4242;
  eo.budget.max_bytes = std::size_t{1} << 22;
  eo.budget.degrade_visited = true;
  eo.find_all_violations = true;
  eo.engine_kind = SearchEngineKind::kBfs;
  sent.heartbeat_interval_ms = 17;
  sent.fault_plan = "crash@1;gen*";
  ASSERT_NE(eo.bloom_bits, defaults.bloom_bits);
  ASSERT_NE(eo.engine_kind, defaults.engine_kind);

  serve::BootstrapMsg got;
  ASSERT_TRUE(serve::decode_bootstrap(serve::encode_bootstrap(sent), got));
  EXPECT_EQ(got.config_text, sent.config_text);
  EXPECT_EQ(got.policy_spec, sent.policy_spec);
  EXPECT_EQ(got.targets, sent.targets);
  ASSERT_EQ(got.classes.size(), sent.classes.size());
  for (std::size_t i = 0; i < sent.classes.size(); ++i) {
    EXPECT_EQ(got.classes[i].rep, sent.classes[i].rep);
    EXPECT_EQ(got.classes[i].members, sent.classes[i].members);
  }
  const ExploreOptions& ge = got.explore;
  EXPECT_EQ(ge.max_failures, eo.max_failures);
  EXPECT_EQ(ge.consistent_only, eo.consistent_only);
  EXPECT_EQ(ge.deterministic_nodes, eo.deterministic_nodes);
  EXPECT_EQ(ge.det_nodes_bgp, eo.det_nodes_bgp);
  EXPECT_EQ(ge.decision_independence, eo.decision_independence);
  EXPECT_EQ(ge.lec_failures, eo.lec_failures);
  EXPECT_EQ(ge.policy_pruning, eo.policy_pruning);
  EXPECT_EQ(ge.suppress_equivalent, eo.suppress_equivalent);
  EXPECT_EQ(ge.visited, eo.visited);
  EXPECT_EQ(ge.bloom_bits, eo.bloom_bits);
  EXPECT_EQ(ge.merge_updates, eo.merge_updates);
  EXPECT_EQ(ge.ad_cache, eo.ad_cache);
  EXPECT_EQ(ge.por, eo.por);
  EXPECT_EQ(ge.incremental_expand, eo.incremental_expand);
  EXPECT_EQ(ge.budget.deadline, eo.budget.deadline);
  EXPECT_EQ(ge.budget.max_states, eo.budget.max_states);
  EXPECT_EQ(ge.budget.max_bytes, eo.budget.max_bytes);
  EXPECT_EQ(ge.budget.degrade_visited, eo.budget.degrade_visited);
  EXPECT_EQ(ge.find_all_violations, eo.find_all_violations);
  EXPECT_EQ(ge.engine_kind, eo.engine_kind);
  EXPECT_EQ(got.heartbeat_interval_ms, sent.heartbeat_interval_ms);
  EXPECT_EQ(got.fault_plan, sent.fault_plan);

  // record_outcomes is per-PEC state run_pec_core sets on the worker; it
  // does not travel.
  sent.explore.record_outcomes = true;
  ASSERT_TRUE(serve::decode_bootstrap(serve::encode_bootstrap(sent), got));
  EXPECT_FALSE(got.explore.record_outcomes);
}

// ---------------------------------------------------------------------------
// Worker-slot supervision arithmetic
// ---------------------------------------------------------------------------

TEST(ShardSupervision, RespawnBackoffSaturatesInsteadOfOverflowing) {
  // First respawn waits the base, then doubles per death with the shift
  // capped at 6 and the result clamped to [0, 2000] ms.
  EXPECT_EQ(sched::compute_respawn_backoff_ms(25, 0), 25);
  EXPECT_EQ(sched::compute_respawn_backoff_ms(25, 1), 25);
  EXPECT_EQ(sched::compute_respawn_backoff_ms(25, 2), 50);
  EXPECT_EQ(sched::compute_respawn_backoff_ms(25, 7), 1600);
  EXPECT_EQ(sched::compute_respawn_backoff_ms(25, 8), 1600) << "shift capped";
  EXPECT_EQ(sched::compute_respawn_backoff_ms(25, 1000), 1600);
  EXPECT_EQ(sched::compute_respawn_backoff_ms(100, 1000), 2000)
      << "clamped to the 2s ceiling";
  // The regression: a large base shifted left used to overflow int into a
  // negative gate, turning the backoff into a busy fork loop. It must
  // saturate at the ceiling instead.
  EXPECT_EQ(sched::compute_respawn_backoff_ms(std::numeric_limits<int>::max(),
                                              7),
            2000);
  EXPECT_EQ(sched::compute_respawn_backoff_ms(1 << 30, 40), 2000);
  EXPECT_EQ(sched::compute_respawn_backoff_ms(0, 5), 0);
}

// ---------------------------------------------------------------------------
// Worker session shutdown hygiene (the heartbeat-beacon join)
// ---------------------------------------------------------------------------

TEST(ShardWorkerSession, NoStrayFramesAfterSessionReturns) {
  // The regression: the heartbeat beacon used to run on a detached thread
  // that could outlive the session and write a late kHeartbeat into the
  // (reused) fd. run_worker_session must join the beacon before returning,
  // so once it has returned, nothing ever writes to the socket again.
  const Network net = make_ring(4);
  const PecSet pecs = compute_pecs(net);
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  const int heartbeat_ms = 10;  // several beacons fire during the task
  const auto body = [](std::size_t, OutcomeStore&) -> std::vector<PecReport> {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    PecReport r;
    r.pec = 0;
    return {r};
  };
  int exit_code = -1;
  std::thread session([&] {
    exit_code = sched::run_worker_session(sv[1], net, pecs, 1, heartbeat_ms,
                                          {}, body);
  });

  const auto write_frame = [&](sched::MsgType type, std::string_view payload) {
    std::string out;
    sched::encode_frame(out, type, payload);
    ASSERT_EQ(send(sv[0], out.data(), out.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(out.size()));
  };
  sched::TaskAssignMsg ta;
  ta.task = 0;
  write_frame(sched::MsgType::kTaskAssign, sched::encode_task_assign(ta));

  // Drain until the worker reports the task done (heartbeats interleave).
  sched::FrameDecoder dec;
  sched::Frame f;
  char buf[1 << 12];
  bool done = false;
  while (!done) {
    const ssize_t r = read(sv[0], buf, sizeof buf);
    ASSERT_GT(r, 0);
    dec.feed(buf, static_cast<std::size_t>(r));
    while (dec.next(f) == sched::FrameDecoder::Status::kFrame) {
      if (f.type == sched::MsgType::kTaskDone) done = true;
    }
  }
  write_frame(sched::MsgType::kShutdown, "");
  session.join();
  EXPECT_EQ(exit_code, 0);

  // Drain whatever was written before the session returned; every frame
  // must still decode (a torn heartbeat would poison here)...
  for (;;) {
    const ssize_t r = recv(sv[0], buf, sizeof buf, MSG_DONTWAIT);
    if (r <= 0) break;
    dec.feed(buf, static_cast<std::size_t>(r));
  }
  while (dec.next(f) == sched::FrameDecoder::Status::kFrame) {
    EXPECT_EQ(f.type, sched::MsgType::kHeartbeat);
  }
  // ...and after a couple of beacon periods of quiet, nothing new may
  // arrive: the beacon thread is provably gone, not merely slow.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const ssize_t late = recv(sv[0], buf, sizeof buf, MSG_DONTWAIT);
  EXPECT_LT(late, 0) << "bytes written after run_worker_session returned";
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
  close(sv[0]);
  close(sv[1]);
}

// ---------------------------------------------------------------------------
// Coordinator data flow, against a synthetic body (no Verifier involved)
// ---------------------------------------------------------------------------

TEST(ShardCoordinator, StreamsOutcomesBetweenTasksAcrossProcesses) {
  // Task 0 records outcomes for PEC `producer`; task 1 (dependent) asserts
  // it can see them in its worker-local store — i.e. the delivery made it
  // coordinator -> worker across process boundaries, whatever the shard
  // assignment. The body communicates the check result through `holds`.
  const Network net = make_ring(5);
  const PecSet pecs = compute_pecs(net);
  const PecId producer = pecs.routed()[0];

  sched::TaskGraph graph;
  graph.dependents = {{1}, {}};
  graph.waiting_on = {0, 1};
  std::vector<sched::ShardTaskSpec> specs(2);
  specs[0].pecs = {producer};
  specs[1].pecs = {static_cast<PecId>(producer + 1)};
  specs[1].deps = {producer};

  const auto make_outcome = [&net] {
    PecOutcome o;
    o.failures = FailureSet(net.topo.link_count());
    o.igp_cost.assign(net.topo.node_count(), 1);
    o.dp.entries.resize(net.topo.node_count());
    o.hash = 0xabc;
    return o;
  };

  for (const int shards : {1, 2}) {
    sched::ShardRunOptions opts;
    opts.shards = shards;
    const auto body = [&](std::size_t task, OutcomeStore& upstream)
        -> std::vector<PecReport> {
      PecReport r;
      r.pec = specs[task].pecs[0];
      if (task == 0) {
        // Contract: the body publishes recorded outcomes into the local
        // store; the worker ships the store's content for a reported PEC.
        std::vector<PecOutcome> outs;
        outs.push_back(make_outcome());
        outs.push_back(make_outcome());
        outs.back().hash = 0xdef;
        upstream.put(producer, std::move(outs));
      } else {
        const auto got = upstream.get(producer);
        // The exhaustive flag travels in PecDone: it carries the check back.
        r.result.exhaustive = got.size() == 2 && got[0].hash == 0xabc &&
                              got[1].hash == 0xdef &&
                              got[0].igp_cost.size() == net.topo.node_count();
      }
      return {r};
    };
    BodyTransport tp(net, pecs, graph.size(), body);
    const sched::ShardRunResult rr = sched::run_sharded_task_graph(
        net, pecs, opts, graph, specs, tp, BodyTransport::payload(opts),
        BodyTransport::kPlanHash);
    ASSERT_TRUE(rr.ok) << rr.error;
    ASSERT_EQ(rr.reports.size(), 2u);
    for (const auto& rep : rr.reports) {
      EXPECT_TRUE(rep.result.exhaustive) << "dependent worker did not see the "
                                         << "outcomes (shards=" << shards << ")";
    }
    // The first dispatch waits for every worker's ack, so each is counted.
    EXPECT_EQ(rr.stats.frames_received, 3u + static_cast<unsigned>(shards))
        << "2 done frames + 1 outcome delivery + one bootstrap ack per worker";
    if (shards >= 2) {
      // The delivery had to cross the wire at least when the dependent landed
      // on a different worker; with locality-preferring assignment it may
      // also have been skipped — accept either, but the bytes must balance.
      EXPECT_GT(rr.stats.bytes_received, 0u);
    }
    EXPECT_EQ(rr.stats.tasks_reassigned, 0u);
  }
}

TEST(ShardCoordinator, DeterministicallyCrashingTaskErrorsOut) {
  // A body that dies on every attempt must exhaust the per-task
  // reassignment cap and surface a coordinator error — not respawn forever.
  const Network net = make_ring(4);
  const PecSet pecs = compute_pecs(net);
  sched::TaskGraph graph;
  graph.dependents = {{}};
  graph.waiting_on = {0};
  std::vector<sched::ShardTaskSpec> specs(1);
  specs[0].pecs = {0};
  sched::ShardRunOptions opts;
  opts.shards = 2;
  opts.max_reassignments_per_task = 2;
  BodyTransport tp(net, pecs, graph.size(), [](std::size_t, OutcomeStore&)
                       -> std::vector<PecReport> {
    throw std::runtime_error("boom");  // worker _exits; coordinator sees EOF
  });
  const sched::ShardRunResult rr = sched::run_sharded_task_graph(
      net, pecs, opts, graph, specs, tp, BodyTransport::payload(opts),
      BodyTransport::kPlanHash);
  EXPECT_FALSE(rr.ok);
  EXPECT_NE(rr.error.find("reassignment cap"), std::string::npos) << rr.error;
  EXPECT_GE(rr.stats.tasks_reassigned, 2u);
}

/// One single-PEC task whose body reports a clean hold.
struct OneTask {
  Network net = make_ring(4);
  PecSet pecs = compute_pecs(net);
  sched::TaskGraph graph;
  std::vector<sched::ShardTaskSpec> specs{1};
  OneTask() {
    graph.dependents = {{}};
    graph.waiting_on = {0};
    specs[0].pecs = {0};
  }
  static std::vector<PecReport> body(std::size_t, OutcomeStore&) {
    PecReport r;
    r.pec = 0;
    return {r};
  }
};

TEST(ShardCoordinator, WrongPlanHashIsACoordinatorError) {
  // A worker whose rebuilt plan hashes differently would verify other PECs
  // than the coordinator schedules: the run must stop with ok == false
  // (Verifier then recovers the verdict in-process), never dispatch to it.
  const OneTask t;
  sched::ShardRunOptions opts;
  opts.shards = 2;
  BodyTransport tp(t.net, t.pecs, t.graph.size(), &OneTask::body);
  tp.ack_hash = BodyTransport::kPlanHash + 1;
  const sched::ShardRunResult rr = sched::run_sharded_task_graph(
      t.net, t.pecs, opts, t.graph, t.specs, tp, BodyTransport::payload(opts),
      BodyTransport::kPlanHash);
  EXPECT_FALSE(rr.ok);
  EXPECT_NE(rr.error.find("plan hash"), std::string::npos) << rr.error;
  EXPECT_TRUE(rr.reports.empty());
}

TEST(ShardCoordinator, ForgedTranslationIsRefused) {
  // A translated report is a hold nobody explored, so the coordinator takes
  // one only for a listed class member whose own entry and whose
  // representative's entry in the same kTaskDone are clean. One task runs
  // PEC 0, representative of member PEC 1; each forgery below must poison
  // the worker every time until the reassignment cap ends the run, never
  // merge a clean hold for PEC 1. The control arm shows the honest
  // translation passes and derives translated_from.
  const Network net = make_ring(4);
  const PecSet pecs = compute_pecs(net);
  ASSERT_GE(pecs.pecs.size(), 3u);
  sched::TaskGraph graph;
  graph.dependents = {{}};
  graph.waiting_on = {0};
  std::vector<sched::ShardTaskSpec> specs(1);
  specs[0].pecs = {0};
  specs[0].class_members = {{1}};

  struct Arm {
    const char* name;
    std::function<void(PecReport& rep, PecReport& member)> forge;
    PecId member = 1;
  };
  const std::vector<Arm> arms = {
      {"inexhaustive representative",
       [](PecReport& rep, PecReport&) { rep.result.exhaustive = false; }},
      {"budget-tripped representative",
       [](PecReport& rep, PecReport&) {
         rep.result.budget_tripped = BudgetKind::kStates;
       }},
      {"violated representative",
       [&net](PecReport& rep, PecReport&) {
         Violation v;
         v.failures = FailureSet(net.topo.link_count());
         v.message = "forged";
         rep.result.violations.push_back(std::move(v));
       }},
      {"inexhaustive member",
       [](PecReport&, PecReport& m) { m.result.exhaustive = false; }},
      {"representative marked translated",
       [](PecReport& rep, PecReport&) { rep.translated_from = 1; }},
      {"unlisted member", [](PecReport&, PecReport&) {}, 2},
  };
  const auto run = [&](const Arm* arm) {
    sched::ShardRunOptions opts;
    opts.shards = 1;
    opts.max_reassignments_per_task = 2;
    opts.respawn_backoff_ms = 1;
    BodyTransport tp(net, pecs, graph.size(),
                     [arm](std::size_t, OutcomeStore&) -> std::vector<PecReport> {
                       PecReport rep;
                       rep.pec = 0;
                       PecReport member;
                       member.pec = arm != nullptr ? arm->member : 1;
                       member.translated_from = 0;
                       if (arm != nullptr) arm->forge(rep, member);
                       return {member, rep};
                     });
    return sched::run_sharded_task_graph(net, pecs, opts, graph, specs, tp,
                                         BodyTransport::payload(opts),
                                         BodyTransport::kPlanHash);
  };

  const sched::ShardRunResult honest = run(nullptr);
  ASSERT_TRUE(honest.ok) << honest.error;
  ASSERT_EQ(honest.reports.size(), 2u);
  for (const PecReport& r : honest.reports) {
    EXPECT_EQ(r.translated_from, r.pec == 1 ? PecId{0} : kNoPec);
  }
  for (const Arm& arm : arms) {
    SCOPED_TRACE(arm.name);
    const sched::ShardRunResult rr = run(&arm);
    EXPECT_FALSE(rr.ok);
    EXPECT_NE(rr.error.find("reassignment cap"), std::string::npos) << rr.error;
    EXPECT_EQ(rr.stats.decode_errors, 3u) << "every attempt must be refused";
    EXPECT_TRUE(rr.reports.empty());
  }
}

TEST(ShardCoordinator, SilentWorkerIsRefusedWithinTheAckBound) {
  // Workers that read kBootstrap and never answer are killed after
  // kBootstrapAckMs as failed starts; with no worker started the run ends
  // with ok == false instead of waiting on them forever. Heartbeats are off:
  // the bound must not depend on them.
  const OneTask t;
  sched::ShardRunOptions opts;
  opts.shards = 2;
  opts.heartbeat_interval_ms = 0;
  BodyTransport tp(t.net, t.pecs, t.graph.size(), &OneTask::body);
  tp.ack = false;
  const auto begin = std::chrono::steady_clock::now();
  const sched::ShardRunResult rr = sched::run_sharded_task_graph(
      t.net, t.pecs, opts, t.graph, t.specs, tp, BodyTransport::payload(opts),
      BodyTransport::kPlanHash);
  const auto waited = std::chrono::steady_clock::now() - begin;
  EXPECT_FALSE(rr.ok);
  EXPECT_NE(rr.error.find("bootstrap"), std::string::npos) << rr.error;
  EXPECT_GE(waited, std::chrono::milliseconds(sched::kBootstrapAckMs));
  EXPECT_LT(waited, std::chrono::milliseconds(sched::kBootstrapAckMs + 5000));
}

// ---------------------------------------------------------------------------
// Cross-process determinism: sharded Verifier runs vs the in-process
// scheduler
// ---------------------------------------------------------------------------

/// Everything the acceptance criteria call bit-identical: verdict, violation
/// multiset (message, failure set, and rendered trail all cross the wire),
/// and the aggregate state counters.
struct Fingerprint {
  Verdict verdict = Verdict::kHolds;
  std::size_t pecs_verified = 0;
  std::size_t pecs_support = 0;
  std::uint64_t states_explored = 0;
  std::uint64_t states_stored = 0;
  std::uint64_t converged_states = 0;
  std::uint64_t failure_sets = 0;
  std::uint64_t policy_checks = 0;
  std::multiset<std::string> violations;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.verdict == b.verdict && a.pecs_verified == b.pecs_verified &&
           a.pecs_support == b.pecs_support &&
           a.states_explored == b.states_explored &&
           a.states_stored == b.states_stored &&
           a.converged_states == b.converged_states &&
           a.failure_sets == b.failure_sets &&
           a.policy_checks == b.policy_checks && a.violations == b.violations;
  }
};

Fingerprint fingerprint(const VerifyResult& r) {
  Fingerprint fp;
  fp.verdict = r.verdict;
  fp.pecs_verified = r.pecs_verified;
  fp.pecs_support = r.pecs_support;
  fp.states_explored = r.total.states_explored;
  fp.states_stored = r.total.states_stored;
  fp.converged_states = r.total.converged_states;
  fp.failure_sets = r.total.failure_sets;
  fp.policy_checks = r.total.policy_checks;
  for (const auto& rep : r.reports) {
    for (const auto& v : rep.result.violations) {
      fp.violations.insert(rep.pec_str + "|" +
                           std::to_string(v.failures.hash()) + "|" + v.message +
                           "|" + v.trail_text);
    }
  }
  return fp;
}

/// One verification; `addr` narrows it to the PEC holding that address. A
/// sharded run must have run its tasks in workers: a refused bootstrap falls
/// back to the in-process scheduler, which is the very oracle these tests
/// compare against.
VerifyResult run_verify(const Network& net, const Policy& policy,
                        VerifyOptions vo,
                        std::optional<IpAddr> addr = std::nullopt) {
  Verifier verifier(net, vo);
  VerifyResult r =
      addr ? verifier.verify_address(*addr, policy) : verifier.verify(policy);
  if (vo.shards > 0) {
    std::uint64_t ran = 0;
    for (const std::uint64_t n : r.shard.tasks_per_shard) ran += n;
    EXPECT_GT(ran, 0u) << "the sharded run fell back to in-process";
  }
  return r;
}

TEST(ShardDeterminism, RandomCorpusMatchesInProcessAcrossShardsAndEngines) {
  // Corpus scaling: PLANKTON_DIFF_SEEDS drives the differential harness at
  // ~10x this suite's default (each instance here is 8 full verifications,
  // 6 of them forking worker pools).
  int count = 18;
  if (const char* v = std::getenv("PLANKTON_DIFF_SEEDS");
      v != nullptr && std::atoi(v) > 0) {
    count = std::max(6, std::atoi(v) / 10);
  }
  const SearchEngineKind engines[] = {SearchEngineKind::kDfs,
                                      SearchEngineKind::kBfs};
  for (int seed = 1; seed <= count; ++seed) {
    const RandomInstance inst =
        make_random_instance(static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                 ", k=" + std::to_string(inst.max_failures) + ", policy " +
                 inst.policy->name() + ")");
    for (const SearchEngineKind engine : engines) {
      VerifyOptions vo;
      vo.cores = 1;
      vo.explore = inst.explore;
      vo.explore.engine_kind = engine;
      vo.explore.find_all_violations = true;  // no early-stop nondeterminism
      vo.explore.suppress_equivalent = false;
      const Fingerprint ref =
          fingerprint(run_verify(inst.net, *inst.policy, vo));
      for (const int shards : {1, 2, 4}) {
        VerifyOptions sv = vo;
        sv.shards = shards;
        const VerifyResult r = run_verify(inst.net, *inst.policy, sv);
        EXPECT_EQ(fingerprint(r), ref)
            << "shards=" << shards << " engine=" << to_string(engine)
            << " diverged from the in-process run";
      }
    }
  }
}

TEST(ShardDeterminism, DedupAcrossShardsMatchesDedupOffInProcess) {
  // The shard x dedup cross: batch PEC verification inside forked workers
  // (translated verdicts and native fallback re-runs both crossing the wire)
  // against the dedup-off in-process oracle. State counters are excluded —
  // dedup changes them by design — but verdicts, per-PEC reports, and
  // violation multisets with rendered trails must be bit-identical.
  int count = 10;
  if (const char* v = std::getenv("PLANKTON_DIFF_SEEDS");
      v != nullptr && std::atoi(v) > 0) {
    count = std::max(6, std::atoi(v) / 20);
  }
  std::uint64_t merged = 0;
  for (int seed = 1; seed <= count; ++seed) {
    const RandomInstance inst =
        make_random_instance(static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("instance seed " + std::to_string(seed) + " (" + inst.kind +
                 ", policy " + inst.policy->name() + ")");
    VerifyOptions vo;
    vo.cores = 1;
    vo.explore = inst.explore;
    vo.explore.find_all_violations = true;
    vo.explore.suppress_equivalent = false;
    VerifyOptions off = vo;
    off.pec_dedup = false;
    const VerifyResult ref = run_verify(inst.net, *inst.policy, off);
    const Fingerprint ref_fp = fingerprint(ref);
    for (const int shards : {1, 2, 4}) {
      VerifyOptions sv = vo;
      sv.shards = shards;
      const VerifyResult r = run_verify(inst.net, *inst.policy, sv);
      merged += r.pecs_deduped;
      const Fingerprint fp = fingerprint(r);
      EXPECT_EQ(fp.verdict, ref_fp.verdict) << "shards=" << shards;
      EXPECT_EQ(fp.pecs_verified, ref_fp.pecs_verified) << "shards=" << shards;
      EXPECT_EQ(fp.pecs_support, ref_fp.pecs_support) << "shards=" << shards;
      EXPECT_EQ(fp.violations, ref_fp.violations) << "shards=" << shards;
    }
  }
  EXPECT_GT(merged, 0u) << "corpus never exercised a translated verdict "
                           "across the wire";
}

TEST(ShardDeterminism, TranslatedVerdictsCrossTheWire) {
  // Fat-tree all-PEC loop check: one class, so the workers ship one native
  // exploration plus translated member verdicts. The sharded run must match
  // the in-process dedup-on run bit for bit, counters included, and the
  // translated flag must survive the PecDoneMsg round trip (the coordinator
  // excludes translated stats from the aggregate exactly like the
  // in-process merge).
  FatTreeOptions o;
  o.k = 6;
  const FatTree ft = make_fat_tree(o);
  const LoopFreedomPolicy policy;
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const VerifyResult in_proc = run_verify(ft.net, policy, vo);
  EXPECT_EQ(in_proc.pecs_deduped, ft.edges.size() - 1);
  for (const int shards : {1, 2}) {
    VerifyOptions sv = vo;
    sv.shards = shards;
    const VerifyResult r = run_verify(ft.net, policy, sv);
    EXPECT_EQ(fingerprint(r), fingerprint(in_proc)) << "shards=" << shards;
    EXPECT_EQ(r.pecs_deduped, in_proc.pecs_deduped);
    std::size_t translated = 0;
    for (const auto& rep : r.reports) {
      if (rep.translated_from != kNoPec) ++translated;
    }
    EXPECT_EQ(translated, ft.edges.size() - 1) << "shards=" << shards;
  }
}

TEST(ShardDeterminism, DedupRerunsMatchAcrossPaths) {
  // Class members whose representative is not a clean hold re-run natively:
  // spawned as stealable subtasks in-process, inline in a shard worker. Both
  // run the same task body, and merge_report counts each native member
  // report as one re-run on both paths, so every counter below must agree
  // in-process at 1 and 4 cores and sharded at 1 and 2 workers. The second
  // arm re-runs members of a budget-tripped representative.
  struct View {
    Verdict verdict = Verdict::kHolds;
    std::multiset<std::string> violations;
    std::size_t pecs_deduped = 0;
    std::size_t dedup_reruns = 0;
    std::size_t pecs_inconclusive = 0;
    std::uint64_t states_explored = 0;
    std::size_t translated = 0;

    bool operator==(const View&) const = default;
  };
  const auto view = [](const VerifyResult& r) {
    View v;
    v.verdict = r.verdict;
    v.violations = fingerprint(r).violations;
    v.pecs_deduped = r.pecs_deduped;
    v.dedup_reruns = r.dedup_reruns;
    v.pecs_inconclusive = r.pecs_inconclusive;
    v.states_explored = r.total.states_explored;
    for (const auto& rep : r.reports) {
      if (rep.translated_from != kNoPec) ++v.translated;
    }
    return v;
  };
  struct Arm {
    const char* name;
    FatTreeOptions::CoreStatics statics;
    std::uint64_t max_states;
    std::size_t classes, reruns, violations, inconclusive;
    std::uint64_t states;
  };
  const Arm arms[] = {
      {"broken statics, find-all", FatTreeOptions::CoreStatics::kBroken, 0,
       1, 17, 18, 0, 792},
      {"matching statics, 5-state budget",
       FatTreeOptions::CoreStatics::kMatching, 5, 1, 17, 0, 18, 108},
  };
  for (const Arm& arm : arms) {
    SCOPED_TRACE(arm.name);
    FatTreeOptions o;
    o.k = 6;
    o.statics = arm.statics;
    const FatTree ft = make_fat_tree(o);
    const LoopFreedomPolicy policy;
    VerifyOptions vo;
    vo.explore.find_all_violations = true;
    vo.explore.budget.max_states = arm.max_states;
    const VerifyResult ref = run_verify(ft.net, policy, vo);
    EXPECT_EQ(ref.pec_classes, arm.classes);
    EXPECT_EQ(ref.dedup_reruns, arm.reruns);
    EXPECT_EQ(fingerprint(ref).violations.size(), arm.violations);
    EXPECT_EQ(ref.pecs_inconclusive, arm.inconclusive);
    EXPECT_EQ(ref.total.states_explored, arm.states);
    for (const auto& [cores, shards] :
         {std::pair{4, 0}, std::pair{1, 1}, std::pair{1, 2}}) {
      VerifyOptions v = vo;
      v.cores = cores;
      v.shards = shards;
      EXPECT_TRUE(view(run_verify(ft.net, policy, v)) == view(ref))
          << "cores=" << cores << " shards=" << shards;
    }
  }
}

TEST(ShardDeterminism, Figure6MatchesInProcessAtEveryShardCount) {
  const Figure6 fx;
  const ReachabilityPolicy policy({fx.r6});
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const Fingerprint ref = fingerprint(run_verify(fx.net, policy, vo));
  EXPECT_GT(ref.converged_states, 0u);
  for (const int shards : {1, 2, 4}) {
    VerifyOptions sv = vo;
    sv.shards = shards;
    EXPECT_EQ(fingerprint(run_verify(fx.net, policy, sv)), ref)
        << "shards=" << shards;
  }
}

TEST(ShardDeterminism, FatTreeK6MatchesInProcessAndWorkStealing) {
  FatTreeOptions o;
  o.k = 6;
  const FatTree ft = make_fat_tree(o);
  const LoopFreedomPolicy policy;
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const Fingerprint serial = fingerprint(run_verify(ft.net, policy, vo));

  VerifyOptions steal = vo;
  steal.cores = 4;
  EXPECT_EQ(fingerprint(run_verify(ft.net, policy, steal)), serial)
      << "work-stealing scheduler diverged (reference for the shard runs)";

  for (const int shards : {1, 4}) {
    VerifyOptions sv = vo;
    sv.shards = shards;
    const VerifyResult r = run_verify(ft.net, policy, sv);
    EXPECT_EQ(fingerprint(r), serial) << "shards=" << shards;
    EXPECT_EQ(r.shard.tasks_per_shard.size(), static_cast<std::size_t>(shards));
    std::uint64_t ran = 0;
    for (const std::uint64_t t : r.shard.tasks_per_shard) ran += t;
    EXPECT_EQ(ran, r.scc_count) << "every SCC task ran in some shard";
  }
}

TEST(ShardDeterminism, DependencyHeavyWorkloadStreamsOutcomes) {
  // Enterprise VII reaches the DC prefix through recursive statics: the
  // sharded run must deliver upstream outcomes over the wire (support PECs
  // run before their dependents, possibly in different workers).
  const Enterprise ent = make_enterprise("VII");
  const ReachabilityPolicy policy({ent.access.front()});
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const IpAddr dc(10, 200, 0, 1);
  const VerifyResult ref = run_verify(ent.net, policy, vo, dc);
  ASSERT_GT(ref.pecs_support, 0u) << "workload must exercise dependencies";

  for (const int shards : {1, 2}) {
    VerifyOptions sv = vo;
    sv.shards = shards;
    const VerifyResult r = run_verify(ent.net, policy, sv, dc);
    EXPECT_EQ(fingerprint(r), fingerprint(ref)) << "shards=" << shards;
    EXPECT_GT(r.shard.frames_received, 0u);
    EXPECT_GT(r.shard.outcome_bytes_received, 0u)
        << "recorded outcomes must have crossed the wire";
  }
}

TEST(ShardDeterminism, CyclicSccTaskMatchesInProcess) {
  // The paper's footnote case: mutual recursive statics form a PEC SCC of
  // size 2, which runs as ONE multi-PEC task. Under the current prototype
  // semantics both mates degenerate identically (each skips exploration
  // because its mate's outcomes cannot exist yet — Explorer's
  // ups.empty() -> kContinue), so this pins that the sharded worker body
  // mirrors the in-process behaviour *exactly* on the unsupported_scc path:
  // same mid-task outcome publication, same mate-decrement replay of the
  // eviction counters. If SCC semantics ever improve (fixpoint iteration),
  // this is the test that must keep passing.
  //
  // Soundness: the mates explored without each other's outcomes, so the run
  // is an approximation, not a proof. The policy holds on every state the
  // approximation reaches, yet no path — in-process or sharded — may report
  // kHolds; the approximated PECs are reported non-exhaustive instead.
  Network net;
  const NodeId a = net.add_device("a");
  const NodeId b = net.add_device("b");
  const NodeId c = net.add_device("c");
  net.topo.add_link(a, b);
  net.topo.add_link(b, c);
  for (const NodeId n : {a, b, c}) net.device(n).ospf.enabled = true;
  net.device(a).ospf.originated.push_back(*Prefix::parse("10.0.0.0/16"));
  net.device(c).ospf.originated.push_back(*Prefix::parse("20.0.0.0/16"));
  StaticRoute sa;  // a: shadow half of c's space, via an IP inside a's own
  sa.dst = *Prefix::parse("20.0.0.0/17");
  sa.via_ip = IpAddr(10, 0, 0, 1);
  net.device(a).statics.push_back(sa);
  StaticRoute sc;  // c: the mirror image
  sc.dst = *Prefix::parse("10.0.0.0/17");
  sc.via_ip = IpAddr(20, 0, 0, 1);
  net.device(c).statics.push_back(sc);

  const LoopFreedomPolicy policy;
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const VerifyResult ref = run_verify(net, policy, vo);
  EXPECT_TRUE(ref.unsupported_scc) << "workload must exercise a >1-PEC SCC";
  EXPECT_GT(fingerprint(ref).converged_states, 0u);
  for (const int shards : {0, 1, 2}) {
    VerifyOptions sv = vo;
    sv.shards = shards;
    const VerifyResult r = run_verify(net, policy, sv);
    EXPECT_EQ(fingerprint(r), fingerprint(ref)) << "shards=" << shards;
    EXPECT_NE(r.verdict, Verdict::kHolds)
        << "approximated cyclic SCC reported as a hold, shards=" << shards;
    EXPECT_EQ(r.verdict, Verdict::kInconclusive) << "shards=" << shards;
    EXPECT_FALSE(r.exhaustive) << "shards=" << shards;
    EXPECT_GE(r.pecs_inconclusive, 2u) << "both mates, shards=" << shards;
  }
}

TEST(ShardDeterminism, ViolationVerdictSurvivesEarlyStop) {
  // Default mode (stop at first violation): the sharded verdict and the
  // reported counterexample must match the in-process run even though both
  // paths stop dispatching early.
  FatTreeOptions o;
  o.k = 4;
  o.statics = FatTreeOptions::CoreStatics::kBroken;
  const FatTree ft = make_fat_tree(o);
  const LoopFreedomPolicy policy;
  VerifyOptions vo;
  const VerifyResult ref = run_verify(ft.net, policy, vo);
  ASSERT_EQ(ref.verdict, Verdict::kViolated);

  VerifyOptions sv = vo;
  sv.shards = 2;
  const VerifyResult r = run_verify(ft.net, policy, sv);
  EXPECT_EQ(r.verdict, Verdict::kViolated);
  ASSERT_FALSE(r.reports.empty());
  bool found = false;
  for (const auto& rep : r.reports) found = found || !rep.result.violations.empty();
  EXPECT_TRUE(found) << "violated verdict must carry a counterexample";
  EXPECT_FALSE(r.first_violation(ft.net.topo).empty());
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

TEST(ShardCrashRecovery, SigkilledWorkerIsReplacedAndResultIsIdentical) {
  // Kill the first two workers mid-task: crash@1 makes each slot's first
  // incarnation die after running its task but before its first result
  // frame, so no result bytes are written. The coordinator must reassign
  // both tasks, respawn workers, and converge to the bit-identical verdict.
  const Enterprise ent = make_enterprise("VII");
  const ReachabilityPolicy policy({ent.access.front()});
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const IpAddr dc(10, 200, 0, 1);
  const Fingerprint ref = fingerprint(run_verify(ent.net, policy, vo, dc));

  VerifyOptions sv = vo;
  sv.shards = 2;
  std::string err;
  ASSERT_TRUE(sched::parse_fault_plan("crash@1", sv.shard_fault_plan, err))
      << err;
  const VerifyResult r = run_verify(ent.net, policy, sv, dc);
  EXPECT_EQ(fingerprint(r), ref)
      << "crash recovery changed the merged verdict";
  EXPECT_GE(r.shard.tasks_reassigned, 2u);
  EXPECT_GE(r.shard.workers_respawned, 2u);
}

TEST(ShardCrashRecovery, SoleWorkerKilledStillConverges) {
  // shards=1: the only worker dies mid-task; recovery must respawn it (no
  // sibling to steal the task) and still match the reference.
  const Figure6 fx;
  const ReachabilityPolicy policy({fx.r6});
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const Fingerprint ref = fingerprint(run_verify(fx.net, policy, vo));

  VerifyOptions sv = vo;
  sv.shards = 1;
  std::string err;
  ASSERT_TRUE(sched::parse_fault_plan("crash@1", sv.shard_fault_plan, err))
      << err;
  const VerifyResult r = run_verify(fx.net, policy, sv);
  EXPECT_EQ(fingerprint(r), ref);
  EXPECT_GE(r.shard.tasks_reassigned, 1u);
  EXPECT_GE(r.shard.workers_respawned, 1u);
}

// ---------------------------------------------------------------------------
// CI smoke (cheap, named for the dedicated 2-shard CI step)
// ---------------------------------------------------------------------------

TEST(ShardSmoke, TwoShardFatTreeLoopCheck) {
  FatTreeOptions o;
  o.k = 4;
  const FatTree ft = make_fat_tree(o);
  const LoopFreedomPolicy policy;
  VerifyOptions vo;
  vo.explore.find_all_violations = true;
  const Fingerprint ref = fingerprint(run_verify(ft.net, policy, vo));
  VerifyOptions sv = vo;
  sv.shards = 2;
  const VerifyResult r = run_verify(ft.net, policy, sv);
  EXPECT_EQ(fingerprint(r), ref);
  EXPECT_EQ(r.verdict, Verdict::kHolds);
  EXPECT_GT(r.shard.frames_sent, 0u);
}

}  // namespace
}  // namespace plankton

// Golden bytes for every PKS1 payload. One fixed instance of each, with
// every field non-default and every vector holding two elements, must encode
// to the committed bytes and decode back to them. A field reordered, retyped
// or dropped from a payload's field list (sched/wire.hpp) changes them; a
// deliberate layout change updates them together with kFrameVersion.
// SearchStatsMerge checks that SearchStats::absorb merges the same field list.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <string_view>

#include "sched/shard.hpp"
#include "serve/serve.hpp"

namespace plankton {
namespace {

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

template <typename M>
void expect_golden(const M& m, std::string (*enc)(const M&),
                   bool (*dec)(std::string_view, M&), std::string_view hex) {
  const std::string wire = enc(m);
  EXPECT_EQ(to_hex(wire), hex);
  M back;
  ASSERT_TRUE(dec(wire, back));
  EXPECT_EQ(enc(back), wire);
}

SearchStats stats_instance() {
  SearchStats s;
  s.states_explored = 101;
  s.states_stored = 102;
  s.revisits_skipped = 103;
  s.converged_states = 104;
  s.policy_checks = 105;
  s.suppressed_checks = 106;
  s.pruned_inconsistent = 107;
  s.det_steps = 108;
  s.nondet_branches = 109;
  s.failure_sets = 110;
  s.ad_cache_hits = 111;
  s.ad_cache_misses = 112;
  s.dirty_refreshes = 113;
  s.por_pruned = 114;
  s.por_source_sets = 115;
  s.por_footprint_time = std::chrono::nanoseconds(116);
  s.frontier_peak = 117;
  s.budget_checks = 118;
  s.max_depth = 119;
  s.bytes_paths = 120;
  s.bytes_routes = 121;
  s.bytes_visited = 122;
  s.bytes_stack_peak = 123;
  s.bytes_ad_cache = 124;
  s.bytes_outcomes = 125;
  s.elapsed = std::chrono::nanoseconds(126);
  return s;
}

sched::TaskAssignMsg task_assign() {
  return {7, {3, 0x01020304}};
}

sched::OutcomeDeliveryMsg outcome_delivery() {
  return {5, std::string("PKO1\x00\xff", 6)};
}

sched::ViolationMsg violation() {
  return {9, {1, 4}, "loop at r1", "r1 -> r2 -> r1"};
}

sched::TaskDoneMsg task_done() {
  sched::TaskDoneMsg m;
  m.task = 11;
  sched::PecDoneMsg a;
  a.pec = 2;
  a.budget_tripped = 3;
  a.exhaustive = 0;
  a.translated = 1;
  a.stats = stats_instance();
  sched::PecDoneMsg b = a;
  b.pec = 4;
  b.budget_tripped = 1;
  b.stats.states_explored = 201;
  m.pecs = {a, b};
  return m;
}

sched::HeartbeatMsg heartbeat() { return {0x1122334455667788ull}; }

sched::BootstrapAckMsg bootstrap_ack() { return {1, "plan hash", 42}; }

serve::LoadNetMsg load_net() { return {"node r1\nnode r2\n"}; }

serve::ApplyDeltaMsg apply_delta() {
  serve::ApplyDeltaMsg m;
  m.ops = {{false, "static r0 10.0.0.0/8 via r1"}, {false, "link r0 r1"}};
  return m;
}

serve::QueryMsg query() { return {"reach r1", 2}; }

serve::VerdictReplyMsg verdict_reply() {
  serve::VerdictReplyMsg m;
  m.ok = true;
  m.verdict = 1;
  m.error = "e";
  m.targets = 3;
  m.cache_hits = 4;
  m.reverified = 5;
  m.moved = 6;
  m.wall_ns = -7;
  m.violations = {{"10.0.0.0/8", "loop"}, {"10.1.0.0/16", "blackhole"}};
  return m;
}

serve::CacheStatsMsg cache_stats() {
  serve::CacheStatsMsg m;
  m.hits = 1;
  m.misses = 2;
  m.nonclean_bypass = 3;
  m.insertions = 4;
  m.warm_loaded = 5;
  m.entries = 6;
  return m;
}

serve::BootstrapMsg bootstrap() {
  serve::BootstrapMsg m;
  m.config_text = "node r1\n";
  m.policy_spec = "loop";
  m.targets = {1, 2};
  m.classes = {{1, {5, 6}}, {2, {7, 8}}};
  ExploreOptions& eo = m.explore;
  eo.max_failures = 2;
  eo.consistent_only = false;
  eo.deterministic_nodes = false;
  eo.det_nodes_bgp = false;
  eo.decision_independence = false;
  eo.lec_failures = false;
  eo.policy_pruning = false;
  eo.suppress_equivalent = false;
  eo.visited = VisitedKind::kBitstate;
  eo.bloom_bits = 4096;
  eo.merge_updates = false;
  eo.ad_cache = false;
  eo.por = false;
  eo.incremental_expand = false;
  eo.budget.deadline = std::chrono::milliseconds(1234);
  eo.budget.max_states = 99;
  eo.budget.max_bytes = 1 << 20;
  eo.budget.degrade_visited = true;
  eo.find_all_violations = true;
  eo.engine_kind = SearchEngineKind::kBfs;
  m.heartbeat_interval_ms = 250;
  m.fault_plan = "crash@1";
  return m;
}

TEST(WireGolden, TaskAssign) {
  expect_golden(task_assign(), sched::encode_task_assign,
                sched::decode_task_assign,
                "0700000000000000020000000300000004030201");
}

TEST(WireGolden, OutcomeDelivery) {
  expect_golden(outcome_delivery(), sched::encode_outcome_delivery,
                sched::decode_outcome_delivery,
                "050000000600000000000000504b4f3100ff");
}

TEST(WireGolden, Violation) {
  expect_golden(violation(), sched::encode_violation,
                sched::decode_violation,
                "090000000200000001000000040000000a000000000000006c6f6f70"
                "2061742072310e000000000000007231202d3e207232202d3e207231");
}

TEST(WireGolden, TaskDone) {
  expect_golden(task_done(), sched::encode_task_done,
                sched::decode_task_done,
                "0b000000000000000200000002000000030001650000000000000066"
                "00000000000000670000000000000068000000000000006900000000"
                "0000006a000000000000006b000000000000006c000000000000006d"
                "000000000000006e000000000000006f000000000000007000000000"
                "00000071000000000000007200000000000000730000000000000074"
                "00000000000000750000000000000076000000000000007700000000"
                "000000780000000000000079000000000000007a000000000000007b"
                "000000000000007c000000000000007d000000000000007e00000000"
                "00000004000000010001c90000000000000066000000000000006700"
                "000000000000680000000000000069000000000000006a0000000000"
                "00006b000000000000006c000000000000006d000000000000006e00"
                "0000000000006f000000000000007000000000000000710000000000"
                "00007200000000000000730000000000000074000000000000007500"
                "00000000000076000000000000007700000000000000780000000000"
                "000079000000000000007a000000000000007b000000000000007c00"
                "0000000000007d000000000000007e00000000000000");
}

TEST(WireGolden, Heartbeat) {
  expect_golden(heartbeat(), sched::encode_heartbeat,
                sched::decode_heartbeat,
                "8877665544332211");
}

TEST(WireGolden, BootstrapAck) {
  expect_golden(bootstrap_ack(), sched::encode_bootstrap_ack,
                sched::decode_bootstrap_ack,
                "010900000000000000706c616e20686173682a00000000000000");
}

TEST(WireGolden, LoadNet) {
  expect_golden(load_net(), serve::encode_load_net,
                serve::decode_load_net,
                "10000000000000006e6f64652072310a6e6f64652072320a");
}

TEST(WireGolden, ApplyDelta) {
  expect_golden(apply_delta(), serve::encode_apply_delta,
                serve::decode_apply_delta,
                "02000000001b000000000000007374617469632072302031302e302e"
                "302e302f3820766961207231000a000000000000006c696e6b207230"
                "207231");
}

TEST(WireGolden, Query) {
  expect_golden(query(), serve::encode_query,
                serve::decode_query,
                "0800000000000000726561636820723102000000");
}

TEST(WireGolden, VerdictReply) {
  expect_golden(verdict_reply(), serve::encode_verdict_reply,
                serve::decode_verdict_reply,
                "01010100000000000000650300000000000000040000000000000005"
                "000000000000000600000000000000f9ffffffffffffff020000000a"
                "0000000000000031302e302e302e302f3804000000000000006c6f6f"
                "700b0000000000000031302e312e302e302f31360900000000000000"
                "626c61636b686f6c65");
}

TEST(WireGolden, CacheStats) {
  expect_golden(cache_stats(), serve::encode_cache_stats,
                serve::decode_cache_stats,
                "01000000000000000200000000000000030000000000000004000000"
                "0000000005000000000000000600000000000000");
}

TEST(WireGolden, Bootstrap) {
  expect_golden(bootstrap(), serve::encode_bootstrap,
                serve::decode_bootstrap,
                "08000000000000006e6f64652072310a04000000000000006c6f6f70"
                "02000000010000000200000002000000010000000200000005000000"
                "06000000020000000200000007000000080000000200000000000000"
                "00000002001000000000000000000000d20400000000000063000000"
                "000000000000100000000000010102fa000000070000000000000063"
                "726173684031");
}

TEST(SearchStatsMerge, AbsorbMovesEveryWireField) {
  // absorb() walks SearchStats::wire_fields, so a counter on the wire is
  // merged into VerifyResult::total too. Absorbing the all-nonzero instance
  // twice into zeros must double every counter and leave each high-water
  // mark at the instance's value; a field left out of the merge stays 0.
  const SearchStats one = stats_instance();
  SearchStats total;
  total.absorb(one);
  total.absorb(one);
  std::size_t fields = 0;
  std::size_t summed = 0;
  std::size_t kept = 0;
  SearchStats::wire_fields(total, [&](const auto&... t) {
    return SearchStats::wire_fields(one, [&](const auto&... o) {
      ((++fields, summed += t == o + o ? 1 : 0, kept += t == o ? 1 : 0), ...);
      return true;
    });
  });
  EXPECT_EQ(fields, 26u);
  EXPECT_EQ(summed, 22u);
  EXPECT_EQ(kept, 4u);
  EXPECT_EQ(total.frontier_peak, one.frontier_peak);
  EXPECT_EQ(total.max_depth, one.max_depth);
  EXPECT_EQ(total.bytes_stack_peak, one.bytes_stack_peak);
  EXPECT_EQ(total.elapsed, one.elapsed);

  // A maximum keeps the larger side whichever object holds it.
  SearchStats small;
  small.max_depth = 1;
  total.absorb(small);
  EXPECT_EQ(total.max_depth, one.max_depth);
  small.absorb(total);
  EXPECT_EQ(small.max_depth, one.max_depth);
}

}  // namespace
}  // namespace plankton

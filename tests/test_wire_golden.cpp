// Golden bytes for every PKS1 payload, the frame header and the PKJ1
// journal's kCleanHolds record. One fixed instance of each payload, with
// every field non-default and every vector holding two elements, must
// encode to the committed bytes and decode back to them. A field reordered, retyped or dropped from a payload's field list
// (sched/wire.hpp) changes them; a deliberate layout change updates them
// together with kFrameVersion. SearchStatsMerge checks that
// SearchStats::absorb merges every field of SearchStats' field list.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "sched/frame.hpp"
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
  s.routes_reused = 127;
  s.fib_entries_rebuilt = 128;
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
  m.insertions = 3;
  m.warm_loaded = 4;
  m.entries = 5;
  return m;
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
                "000000000500000000000000");
}

TEST(WireGolden, CleanHolds) {
  // The kCleanHolds journal payload: a u32 count, then each key's cone and
  // ctx.
  const std::vector<serve::CacheKey> keys = {{1, 2}, {3, 4}};
  const std::string wire = wire::encode(keys);
  EXPECT_EQ(to_hex(wire),
            "02000000010000000000000002000000000000000300000000000000"
            "0400000000000000");
  std::vector<serve::CacheKey> back;
  ASSERT_TRUE(wire::decode(wire, back));
  EXPECT_EQ(back, keys);
}

TEST(WireGolden, FrameHeader) {
  // magic "PKS1", version 7, type kQuery (9), payload length, payload.
  std::string frame;
  sched::encode_frame(frame, sched::MsgType::kQuery, "abc");
  EXPECT_EQ(to_hex(frame), "31534b50070009000300000000000000616263");
}

TEST(SearchStatsMerge, AbsorbMovesEveryWireField) {
  // absorb() walks SearchStats::wire_fields, so a counter in that list is
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
  EXPECT_EQ(fields, 28u);
  EXPECT_EQ(summed, 24u);
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

// PKS1 framing (sched/frame.*): the incremental decoder survives truncated,
// corrupt and hostile-length input without crashing or allocating absurd
// buffers, refuses every type number MsgType does not assign, and treats
// kShutdown as the end of a stream; write_all's EINTR retry bound holds on a
// real socket.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sched/frame.hpp"
#include "serve/serve.hpp"

namespace plankton {
namespace {

serve::QueryMsg sample_query() { return {"reach r1 r2", 1}; }

serve::VerdictReplyMsg sample_reply() {
  serve::VerdictReplyMsg m;
  m.ok = true;
  m.verdict = static_cast<std::uint8_t>(Verdict::kViolated);
  m.targets = 3;
  m.reverified = 2;
  m.violations = {{"10.0.0.0/16", "loop R1 -> R2 -> R1"}};
  return m;
}

/// A representative multi-frame stream: load + delta + query + reply +
/// stats + shutdown.
std::string sample_stream() {
  std::string s;
  sched::encode_frame(s, sched::MsgType::kLoadNet,
                      serve::encode_load_net({"node r1\nnode r2\n"}));
  serve::ApplyDeltaMsg delta;
  delta.ops = {{true, "link r1 r2"}};
  sched::encode_frame(s, sched::MsgType::kApplyDelta,
                      serve::encode_apply_delta(delta));
  sched::encode_frame(s, sched::MsgType::kQuery,
                      serve::encode_query(sample_query()));
  sched::encode_frame(s, sched::MsgType::kVerdictReply,
                      serve::encode_verdict_reply(sample_reply()));
  sched::encode_frame(s, sched::MsgType::kCacheStats, "");
  sched::encode_frame(s, sched::MsgType::kShutdown, "");
  return s;
}

/// A bare frame header with any type number and payload length.
std::string raw_header(std::uint16_t type, std::uint64_t len) {
  std::string h;
  const std::uint32_t magic = sched::kFrameMagic;
  const std::uint16_t version = sched::kFrameVersion;
  h.append(reinterpret_cast<const char*>(&magic), 4);
  h.append(reinterpret_cast<const char*>(&version), 2);
  h.append(reinterpret_cast<const char*>(&type), 2);
  h.append(reinterpret_cast<const char*>(&len), 8);
  return h;
}

TEST(Framing, RoundTripsByteByByte) {
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
  ASSERT_EQ(frames.size(), 6u);
  const sched::MsgType types[] = {
      sched::MsgType::kLoadNet,      sched::MsgType::kApplyDelta,
      sched::MsgType::kQuery,        sched::MsgType::kVerdictReply,
      sched::MsgType::kCacheStats,   sched::MsgType::kShutdown};
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].type, types[i]) << "frame " << i;
  }
  EXPECT_TRUE(frames[5].payload.empty());

  serve::LoadNetMsg load;
  ASSERT_TRUE(serve::decode_load_net(frames[0].payload, load));
  EXPECT_EQ(load.config_text, "node r1\nnode r2\n");

  serve::QueryMsg q;
  ASSERT_TRUE(serve::decode_query(frames[2].payload, q));
  EXPECT_EQ(q.policy_spec, sample_query().policy_spec);
  EXPECT_EQ(q.max_failures, 1u);

  serve::VerdictReplyMsg r;
  ASSERT_TRUE(serve::decode_verdict_reply(frames[3].payload, r));
  EXPECT_EQ(serve::encode_verdict_reply(r),
            serve::encode_verdict_reply(sample_reply()));
}

TEST(Framing, TruncationNeverYieldsAFrameBeyondTheCut) {
  const std::string stream = sample_stream();
  // A truncated stream must yield only complete frames before the cut and
  // then kNeedMore — never an error, never a phantom frame.
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    sched::FrameDecoder dec;
    dec.feed(stream.data(), cut);
    sched::Frame f;
    sched::FrameDecoder::Status st;
    std::size_t frames = 0;
    while ((st = dec.next(f)) == sched::FrameDecoder::Status::kFrame) ++frames;
    EXPECT_EQ(st, sched::FrameDecoder::Status::kNeedMore) << "cut at " << cut;
    EXPECT_LE(frames, 5u) << "cut at " << cut;
  }
}

TEST(Framing, RejectsCorruptHeaders) {
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
    sched::encode_frame(good, sched::MsgType::kCacheStats, "");
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

  // Hostile length: a header claiming a 2^62-byte payload must be rejected
  // up front (no buffering until OOM).
  expect_poisoned(raw_header(static_cast<std::uint16_t>(sched::MsgType::kLoadNet),
                             std::uint64_t{1} << 62),
                  "oversized payload");
}

TEST(Framing, RejectsFramesAfterShutdown) {
  // kShutdown is terminal for a stream: anything framed after it must poison
  // the decoder, not be processed.
  const auto poisoned_after_shutdown = [](sched::MsgType late_type,
                                          const char* what) {
    std::string stream;
    sched::encode_frame(stream, sched::MsgType::kCacheStats, "");
    sched::encode_frame(stream, sched::MsgType::kShutdown, "");
    sched::encode_frame(stream, late_type, "");
    sched::FrameDecoder dec;
    dec.feed(stream.data(), stream.size());
    sched::Frame f;
    EXPECT_EQ(dec.next(f), sched::FrameDecoder::Status::kFrame) << what;
    EXPECT_EQ(f.type, sched::MsgType::kCacheStats) << what;
    EXPECT_EQ(dec.next(f), sched::FrameDecoder::Status::kFrame) << what;
    EXPECT_EQ(f.type, sched::MsgType::kShutdown) << what;
    EXPECT_EQ(dec.next(f), sched::FrameDecoder::Status::kError) << what;
    EXPECT_NE(dec.error().find("after shutdown"), std::string::npos) << what;
    // Permanent, like every other poisoning.
    std::string good;
    sched::encode_frame(good, sched::MsgType::kCacheStats, "");
    dec.feed(good.data(), good.size());
    EXPECT_EQ(dec.next(f), sched::FrameDecoder::Status::kError) << what;
  };
  poisoned_after_shutdown(sched::MsgType::kCacheStats, "stats probe");
  poisoned_after_shutdown(sched::MsgType::kShutdown, "double shutdown");
  poisoned_after_shutdown(sched::MsgType::kQuery, "serve query");

  // The same bytes arriving one at a time must poison at the same point.
  std::string stream;
  sched::encode_frame(stream, sched::MsgType::kShutdown, "");
  sched::encode_frame(stream, sched::MsgType::kLoadNet, "config-payload");
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

TEST(Framing, ServeFrameTypesRoundTrip) {
  // MsgType 7..11 (the serve daemon's frames) ride one decoder.
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
}

TEST(Framing, RefusesEveryUnassignedTypeNumber) {
  // 1-4, 6, 12 and 13 are the retired payloads' numbers; 0 and 14 were
  // never assigned. Each poisons a fresh decoder like any unknown type.
  for (const std::uint16_t type : {0, 1, 2, 3, 4, 6, 12, 13, 14, 0xffff}) {
    sched::FrameDecoder dec;
    const std::string header = raw_header(type, 0);
    dec.feed(header.data(), header.size());
    sched::Frame f;
    EXPECT_EQ(dec.next(f), sched::FrameDecoder::Status::kError)
        << "type " << type;
    EXPECT_EQ(dec.error(), "unknown message type") << "type " << type;
  }
  for (const std::uint16_t type : {5, 7, 8, 9, 10, 11}) {
    sched::FrameDecoder dec;
    const std::string header = raw_header(type, 0);
    dec.feed(header.data(), header.size());
    sched::Frame f;
    EXPECT_EQ(dec.next(f), sched::FrameDecoder::Status::kFrame)
        << "type " << type;
  }
}

// ---------------------------------------------------------------------------
// write_all's EINTR bound, driven through the synthetic_eintr hook
// ---------------------------------------------------------------------------

/// Writes `payload` through write_all with `eintrs` synthetic EINTRs ahead
/// of the first send, then drains whatever reached the peer.
bool write_with_eintrs(const std::string& payload, std::uint32_t eintrs,
                       bool& stalled, std::string& received) {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const bool ok =
      sched::write_all(sv[0], payload.data(), payload.size(), &stalled, eintrs);
  ::close(sv[0]);
  received.clear();
  char buf[4096];
  ssize_t r = 0;
  while ((r = ::read(sv[1], buf, sizeof buf)) > 0) {
    received.append(buf, static_cast<std::size_t>(r));
  }
  ::close(sv[1]);
  return ok;
}

TEST(WriteAll, RetriesUpToTheEintrBound) {
  std::string payload;
  sched::encode_frame(payload, sched::MsgType::kLoadNet,
                      serve::encode_load_net({std::string(3000, 'x')}));
  bool stalled = true;
  std::string received;
  EXPECT_TRUE(write_with_eintrs(payload, 1024, stalled, received));
  EXPECT_FALSE(stalled);
  EXPECT_EQ(received, payload) << "every byte must arrive after 1024 EINTRs";
}

TEST(WriteAll, GivesUpPastTheEintrBound) {
  const std::string payload = "0123456789";
  bool stalled = false;
  std::string received;
  EXPECT_FALSE(write_with_eintrs(payload, 1025, stalled, received));
  EXPECT_TRUE(stalled) << "a retry bound ran out, not a socket error";
  EXPECT_TRUE(received.empty());
}

}  // namespace
}  // namespace plankton

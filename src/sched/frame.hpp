// PKS1 framing: the byte stream plankton_serve and its clients speak over a
// Unix or TCP socket. Every message is one frame (magic, version, type,
// 64-bit payload length, payload) and is decoded with bounds checks: a
// truncated, corrupt, or absurdly-sized frame poisons the decoder instead of
// the process (tests fuzz this surface). Payload codecs live in
// serve/serve.hpp next to the daemon that owns them, written through the
// field-list codec in sched/wire.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace plankton::sched {

/// Message types. Numbers 1-4, 6, 12 and 13 belonged to retired payloads;
/// the decoder refuses them as unknown, and no new type may reuse them.
enum class MsgType : std::uint16_t {
  kShutdown = 5,         ///< client → daemon: compact the journal and stop
  kLoadNet = 7,          ///< client → daemon: config text to make resident
  kApplyDelta = 8,       ///< client → daemon: add/del config-line delta ops
  kQuery = 9,            ///< client → daemon: policy spec to verify
  kVerdictReply = 10,    ///< daemon → client: verdict + counters + violations
  kCacheStats = 11,      ///< empty payload: probe; non-empty: counter reply
};

inline constexpr std::uint32_t kFrameMagic = 0x504b5331;  // "PKS1"
/// Bumped on every payload layout change. Versions 2-6 changed payloads that
/// have since been retired; version 7 dropped the kCacheStats counter of
/// non-clean entries, which a cache of clean holds cannot have. The other
/// surviving payloads encode the same bytes under each version
/// (tests/test_wire_golden.cpp pins them).
inline constexpr std::uint16_t kFrameVersion = 7;
/// magic + version + type + payload length.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 2 + 2 + 8;
/// Ceiling for one frame's payload. Anything larger is treated as a corrupt
/// length field (a config text is orders of magnitude smaller on every
/// workload we run).
inline constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 30;

struct Frame {
  MsgType type = MsgType::kShutdown;
  std::string payload;
};

/// Appends one framed message to `out`.
void encode_frame(std::string& out, MsgType type, std::string_view payload);

/// Writes all `n` bytes to a socket — the one send loop behind every PKS1
/// writer (the serve daemon and its clients). MSG_NOSIGNAL: a dead peer
/// surfaces as EPIPE, never SIGPIPE. EINTR and EAGAIN are retried under
/// bounds (1024 EINTRs in a row; 10 s without progress on a non-blocking
/// fd), so a wedged peer or a signal storm degrades to a failed write
/// instead of a hang. On failure, `stalled` (when given) reports whether a
/// retry bound ran out rather than a hard socket error. `synthetic_eintr`
/// injects that many fake EINTR results before the first real send, so a
/// test can drive the EINTR bound without a signal storm.
bool write_all(int fd, const char* data, std::size_t n, bool* stalled = nullptr,
               std::uint32_t synthetic_eintr = 0);
inline bool write_all(int fd, std::string_view s, bool* stalled = nullptr) {
  return write_all(fd, s.data(), s.size(), stalled);
}

/// Incremental, bounds-checked frame parser over a byte stream. feed() bytes
/// as they arrive; next() pops complete frames. A malformed header (bad
/// magic/version, unknown type, a length above kMaxFramePayload) moves the
/// decoder into a permanent error state — the stream cannot be trusted past
/// the first lie.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t n);

  enum class Status : std::uint8_t {
    kNeedMore = 0,  ///< no complete frame buffered
    kFrame = 1,     ///< `out` holds the next frame
    kError = 2,     ///< stream poisoned; error() says why
  };
  Status next(Frame& out);

  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  bool shutdown_seen_ = false;  ///< kShutdown is terminal; later frames poison
  std::string error_;
};

}  // namespace plankton::sched

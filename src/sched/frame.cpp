#include "sched/frame.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>

#include "sched/wire.hpp"

namespace plankton::sched {
namespace {

using wire::get_int;
using wire::put_int;

/// A peer that accepts nothing for this long is presumed wedged: the write
/// degrades to a transport error instead of spinning forever. Polls ride in
/// short slices so the budget is accurate.
constexpr int kWriteStallBudgetMs = 10000;
constexpr int kWritePollSliceMs = 100;
/// EINTR ceiling per write_all call: a signal storm must not become an
/// unbounded retry loop either.
constexpr int kMaxEintrRetries = 1024;

/// The numbers MsgType still assigns (the retired ones are unknown types).
bool known_type(std::uint16_t type) {
  return type == static_cast<std::uint16_t>(MsgType::kShutdown) ||
         (type >= static_cast<std::uint16_t>(MsgType::kLoadNet) &&
          type <= static_cast<std::uint16_t>(MsgType::kCacheStats));
}

}  // namespace

/// Bounded retries (a non-blocking fd may also back up). The synthetic
/// EINTRs drive the same retry accounting a real signal storm would.
bool write_all(int fd, const char* data, std::size_t n, bool* stalled,
               std::uint32_t synthetic_eintr) {
  if (stalled != nullptr) *stalled = false;
  int stalled_ms = 0;
  int eintr_count = 0;
  while (n > 0) {
    if (synthetic_eintr > 0) {
      --synthetic_eintr;
      if (++eintr_count > kMaxEintrRetries) {
        if (stalled != nullptr) *stalled = true;
        return false;
      }
      continue;
    }
    const ssize_t w = send(fd, data, n, MSG_NOSIGNAL);
    if (w > 0) {
      data += w;
      n -= static_cast<std::size_t>(w);
      stalled_ms = 0;
      eintr_count = 0;
      continue;
    }
    if (w < 0 && errno == EINTR) {
      if (++eintr_count > kMaxEintrRetries) {
        if (stalled != nullptr) *stalled = true;
        return false;
      }
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (stalled_ms >= kWriteStallBudgetMs) {
        if (stalled != nullptr) *stalled = true;
        return false;
      }
      pollfd pfd{fd, POLLOUT, 0};
      (void)poll(&pfd, 1, kWritePollSliceMs);
      stalled_ms += kWritePollSliceMs;
      continue;
    }
    return false;
  }
  return true;
}

void encode_frame(std::string& out, MsgType type, std::string_view payload) {
  put_int(out, kFrameMagic);
  put_int(out, kFrameVersion);
  put_int(out, static_cast<std::uint16_t>(type));
  put_int(out, static_cast<std::uint64_t>(payload.size()));
  out.append(payload);
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  if (failed_) return;
  // Compact lazily: drop consumed bytes once they dominate the buffer.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

FrameDecoder::Status FrameDecoder::next(Frame& out) {
  if (failed_) return Status::kError;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return Status::kNeedMore;
  std::string_view hdr(buf_.data() + pos_, kFrameHeaderBytes);
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint16_t type = 0;
  std::uint64_t len = 0;
  (void)get_int(hdr, magic);
  (void)get_int(hdr, version);
  (void)get_int(hdr, type);
  (void)get_int(hdr, len);
  const auto poison = [this](const char* why) {
    failed_ = true;
    error_ = why;
    return Status::kError;
  };
  if (magic != kFrameMagic) return poison("bad frame magic");
  if (version != kFrameVersion) return poison("unsupported frame version");
  if (!known_type(type)) return poison("unknown message type");
  // Stream-state machine: kShutdown is terminal. Anything framed after it
  // (injected bytes on the serve socket) is a protocol violation, not data
  // to process.
  if (shutdown_seen_) return poison("frame after shutdown");
  if (len > kMaxFramePayload) return poison("frame payload exceeds limit");
  if (avail - kFrameHeaderBytes < len) return Status::kNeedMore;
  out.type = static_cast<MsgType>(type);
  if (out.type == MsgType::kShutdown) shutdown_seen_ = true;
  out.payload.assign(buf_.data() + pos_ + kFrameHeaderBytes,
                     static_cast<std::size_t>(len));
  pos_ += kFrameHeaderBytes + static_cast<std::size_t>(len);
  return Status::kFrame;
}

}  // namespace plankton::sched

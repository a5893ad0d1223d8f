// Crash-durable write-ahead journal for the plankton_serve daemon (PKJ1).
//
// Every accepted kLoadNet / kApplyDelta is appended and fsync'd *before* the
// daemon acks it, so a kill -9 at any instant loses at most the request that
// was never acknowledged. On restart the daemon replays the journal through
// the ordinary ServeState::load / apply_delta paths — cones and fingerprints
// are deterministic functions of the config text, so the rebuilt state is
// bit-identical to the pre-crash resident state.
//
// File layout (little-endian, wire.hpp primitives):
//
//   header:  u32 magic "PKJ1" | u16 version | u16 reserved
//   record:  u16 type | u16 reserved | u64 payload_len | payload bytes
//            | u64 checksum over (type, payload_len, payload)
//
// A torn tail — the header or payload of the final record cut short by the
// crash, or a checksum mismatch from a partial sector write — is detected
// during replay and dropped cleanly: every record before it applies, the
// tail is reported, and recovery truncates it away (truncate_tail) so later
// appends extend a clean journal instead of hiding behind unparseable bytes.
//
// Compaction rewrites the journal as a snapshot of the daemon (tmp + fsync +
// rename): one kLoadNet record of the current resident config text, then
// one kCleanHolds record of the verdict cache's keys. Replaying the pair
// reconstructs the state the full history would, with a warm cache. It runs
// on every accepted kLoadNet (prior history is dead) and at the kShutdown /
// SIGTERM drain, and it is the only way the cache reaches the disk.
//
// Versions. Version 2 added kCleanHolds. Version-1 journals still open and
// replay: they cannot hold a type-3 record (replay reads one as a corrupt
// tail), and appends only ever add kApplyDelta, so an upgraded daemon keeps
// their acked deltas. Compaction writes a version-2 header, which an older
// binary refuses outright instead of dropping every record after the first
// kCleanHolds as a torn tail.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace plankton::serve {

inline constexpr std::uint32_t kJournalMagic = 0x504b4a31;  // "1JKP" on disk
inline constexpr std::uint16_t kJournalVersion = 2;

enum class JournalRecord : std::uint16_t {
  kLoadNet = 1,     ///< payload: raw config text
  kApplyDelta = 2,  ///< payload: encode_apply_delta bytes
  kCleanHolds = 3,  ///< payload: wire-encoded std::vector<CacheKey> (v2)
};

class Journal {
 public:
  Journal() = default;
  ~Journal() { close(); }
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens `path` for appending, creating it (with a fresh header) when
  /// absent or empty. An existing file must carry a valid PKJ1 header of
  /// version 1 or 2.
  bool open(const std::string& path, std::string& error);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Appends one record and fsyncs before returning — the durability point
  /// the ack-after-append contract rests on.
  bool append(JournalRecord type, std::string_view payload, std::string& error);

  /// Compaction: atomically replaces the journal with a kLoadNet record of
  /// `config_text` and a kCleanHolds record of `clean_holds` under a
  /// current-version header (tmp + fsync + rename), then reopens for
  /// appending.
  bool rewrite(std::string_view config_text, std::string_view clean_holds,
               std::string& error);

  /// Chops `dropped_bytes` off the end of the open journal — the torn tail
  /// replay reported. Without this, the next append would land *after* the
  /// unparseable bytes and be unreachable to every future replay.
  bool truncate_tail(std::uint64_t dropped_bytes, std::string& error);

  void close();

  struct ReplayResult {
    std::uint64_t applied = 0;        ///< records handed to `apply`
    std::uint64_t dropped_bytes = 0;  ///< torn/corrupt tail bytes ignored
    bool torn_tail = false;
  };

  /// Replays every intact record of `path` in order through `apply`. A
  /// missing file is an empty journal (true, applied=0). A torn or corrupt
  /// tail stops the replay cleanly (true, torn_tail set); a bad header or an
  /// `apply` callback returning false is an error (false + `error`).
  static bool replay(
      const std::string& path,
      const std::function<bool(JournalRecord, std::string_view)>& apply,
      ReplayResult& out, std::string& error);

  /// The record checksum: a deterministic fold of (type, payload_len,
  /// payload bytes). Exposed so tests can forge corrupt records.
  static std::uint64_t record_checksum(std::uint16_t type,
                                       std::string_view payload);

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace plankton::serve

// Socket transport for plankton_serve: Unix-domain and/or TCP listeners
// speaking PKS1 frames (sched/frame.hpp), plus the client-side helpers the
// CLI uses (the daemon writes its replies through the same send_frame). The
// accept loop multiplexes all connections through one
// select() with a periodic tick — request *processing* is sequential (the
// resident Verifier is single-threaded state), but a client stalled
// mid-frame can never block the others: an overdue mid-frame read closes
// that connection by a per-client deadline.
#pragma once

#include <string>
#include <string_view>

#include "sched/frame.hpp"
#include "serve/serve.hpp"

namespace plankton::serve {

struct ServerOptions {
  std::string unix_path;  ///< empty = no Unix listener
  int tcp_port = 0;       ///< 0 = no TCP listener (binds 127.0.0.1)
  /// PKJ1 write-ahead journal path; empty = no crash durability and an
  /// in-memory cache. When the file already holds records the daemon
  /// replays them before accepting connections, rebuilding the pre-crash
  /// net state bit-identically and the verdict cache as of the last
  /// compaction.
  std::string journal_path;
  /// Accepted connections beyond this are refused with a polite
  /// kVerdictReply error instead of queueing behind select().
  std::size_t max_clients = 64;
  /// A client stalled mid-frame longer than this is disconnected, so it
  /// cannot wedge the others. 0 disables.
  int read_deadline_ms = 5000;
  VerifyOptions verify;
};

/// Runs the daemon loop: accept → decode frames → dispatch → reply, until a
/// kShutdown frame arrives or SIGTERM/SIGINT lands (either way the in-flight
/// request finishes, the journal is compacted with the cache's keys, and 0
/// is returned) or socket setup fails (message on stderr, non-zero return).
/// Malformed frames poison the connection (it is closed); the daemon itself
/// keeps serving.
int run_server(const ServerOptions& opts);

// -- client side ------------------------------------------------------------

/// Connect to a Unix socket path or 127.0.0.1:port. -1 + `error` on failure.
int connect_unix(const std::string& path, std::string& error);
int connect_tcp(int port, std::string& error);

/// Encodes one frame and writes it whole through sched::write_all, so a
/// dead peer is EPIPE, never SIGPIPE. The daemon sends its replies through
/// it too. False when the peer is gone.
bool send_frame(int fd, sched::MsgType type, std::string_view payload);

/// Blocks until one full frame arrives on `fd` (reading through `dec`).
/// False on EOF, I/O error, or a poisoned stream.
bool recv_frame(int fd, sched::FrameDecoder& dec, sched::Frame& out,
                std::string& error);

}  // namespace plankton::serve

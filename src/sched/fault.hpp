// Deterministic socket-fault injection for the serve daemon
// (plankton_serve --fault-plan, ServerOptions::fault_plan).
//
// A FaultPlan is a compact, human-writable description of *exactly when and
// how* the daemon's connection to a client misbehaves while the process
// survives, so the serve read-deadline and connection-shedding paths are
// driven by tests instead of theorized about. Plans are deterministic: the
// same plan over the same request stream produces the same fault at the
// same frame, so a divergence reproduces from the plan string alone.
//
// Syntax: semicolon- or comma-separated directives.
//
//   stall@F:MS     sleep MS ms with the connection idle before sending reply
//                  frame F (1-based) — a stalled-peer exercise
//   drop-conn@F    shutdown(2) the connection immediately before reply frame
//                  F; the daemon keeps serving other connections
//   torn-tcp@F     write the first half of reply frame F, then shutdown(2) —
//                  a torn stream whose peer process survives
//   slow-read@F:MS sleep MS ms before the F-th read from the connection
//                  (1-based; a slow consumer backing up the peer's writes)
//
// Example: "drop-conn@1" — every connection is shut down just before its
// first reply.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace plankton::sched {

/// The faults the daemon acts out on each client connection. All-defaults
/// means "behave normally".
struct FaultPlan {
  std::uint64_t stall_at_frame = 0;  ///< 0 = off; 1-based reply frame
  std::uint32_t stall_ms = 0;
  std::uint64_t drop_conn_at_frame = 0;
  std::uint64_t torn_tcp_at_frame = 0;
  std::uint64_t slow_read_at = 0;  ///< 1-based read() index on the connection
  std::uint32_t slow_read_ms = 0;

  [[nodiscard]] bool empty() const {
    return stall_at_frame == 0 && drop_conn_at_frame == 0 &&
           torn_tcp_at_frame == 0 && slow_read_at == 0;
  }

  /// Canonical plan string (parse(str()) round-trips).
  [[nodiscard]] std::string str() const;
};

/// Parses the directive syntax above. Returns false (and sets `error`)
/// on unknown directives or malformed numbers; `out` is reset first.
[[nodiscard]] bool parse_fault_plan(std::string_view text, FaultPlan& out,
                                    std::string& error);

}  // namespace plankton::sched

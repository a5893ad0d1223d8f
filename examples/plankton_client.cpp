// plankton_client: CLI for the plankton_serve daemon.
//
//   plankton_client --socket <path>|--tcp <port> <command> [args]
//
// Commands:
//   load <config-file>           make the config resident
//   query <policy-spec...>       e.g. `query loop`, `query reach r1 r2`
//                                (plankton_verify's policy grammar)
//                                [--failures <k>] anywhere after `query`,
//                                0 <= k <= 2147483647
//   delta <delta-file>           apply line edits: `add <line>` / `del <line>`
//   stats                        print verdict-cache counters
//   shutdown                     compact the daemon's journal and stop it
//
// Connection failures are retried with doubling backoff (--retries,
// --retry-delay-ms, at most 2000) before giving up — a daemon mid-restart
// is reached by the next attempt instead of failing the script driving this
// client. A numeric flag that is not a plain decimal integer in its range
// is a usage error.
//
// Exit codes mirror plankton_verify: 0 holds / command ok, 1 violated,
// 2 inconclusive, 3 usage/config/daemon error, 4 daemon unreachable after
// all retries (distinct so callers can tell "the verdict is bad" from "the
// daemon is down").
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "netbase/parse_int.hpp"
#include "serve/server.hpp"

namespace {

using namespace plankton;
using namespace plankton::serve;

bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

/// Round trip: send one frame, wait for the reply frame.
bool rpc(int fd, sched::MsgType type, const std::string& payload,
         sched::Frame& reply, std::string& error) {
  if (!send_frame(fd, type, payload)) {
    error = "send failed";
    return false;
  }
  sched::FrameDecoder decoder;
  return recv_frame(fd, decoder, reply, error);
}

int print_reply(const sched::Frame& frame) {
  VerdictReplyMsg m;
  if (frame.type != sched::MsgType::kVerdictReply ||
      !decode_verdict_reply(frame.payload, m)) {
    std::fprintf(stderr, "plankton_client: malformed reply\n");
    return 3;
  }
  if (!m.ok) {
    std::fprintf(stderr, "plankton_client: daemon error: %s\n", m.error.c_str());
    return 3;
  }
  std::printf(
      "verdict=%s targets=%llu cache_hits=%llu reverified=%llu moved=%llu "
      "wall_ms=%.3f\n",
      to_string(static_cast<Verdict>(m.verdict)),
      static_cast<unsigned long long>(m.targets),
      static_cast<unsigned long long>(m.cache_hits),
      static_cast<unsigned long long>(m.reverified),
      static_cast<unsigned long long>(m.moved),
      static_cast<double>(m.wall_ns) / 1e6);
  for (const ViolationText& v : m.violations) {
    std::printf("violation PEC %s: %s\n", v.pec.c_str(), v.message.c_str());
  }
  switch (static_cast<Verdict>(m.verdict)) {
    case Verdict::kHolds: return 0;
    case Verdict::kViolated: return 1;
    case Verdict::kInconclusive: return 2;
    case Verdict::kError: return 3;
  }
  return 3;
}

int usage() {
  std::fprintf(stderr,
               "usage: plankton_client --socket <path>|--tcp <port> "
               "[--retries n] [--retry-delay-ms n] "
               "load <file> | query <spec...> [--failures n] | "
               "delta <file> | stats | shutdown\n");
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::string unix_path;
  int tcp_port = 0;
  int retries = 3;
  int retry_delay_ms = 100;
  int i = 1;
  while (i < argc && argv[i][0] == '-') {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      unix_path = argv[++i];
    } else if (arg == "--tcp" && i + 1 < argc) {
      if (!parse_int(argv[++i], tcp_port, 1, 65535)) return usage();
    } else if (arg == "--retries" && i + 1 < argc) {
      if (!parse_int(argv[++i], retries, 0)) return usage();
    } else if (arg == "--retry-delay-ms" && i + 1 < argc) {
      if (!parse_int(argv[++i], retry_delay_ms, 1, 2000)) return usage();
    } else {
      return usage();
    }
    ++i;
  }
  if (i >= argc || (unix_path.empty() && tcp_port == 0)) return usage();
  const std::string command = argv[i++];

  // Bounded connect retry with doubling backoff (capped at 2 s a hop): a
  // daemon that is restarting — journal replay included — comes back within
  // a few hops. Exhaustion is exit 4, the "daemon unreachable" code.
  std::string error;
  const auto connect_once = [&]() {
    return unix_path.empty() ? connect_tcp(tcp_port, error)
                             : connect_unix(unix_path, error);
  };
  int fd = connect_once();
  for (int attempt = 0; fd < 0 && attempt < retries; ++attempt) {
    const int delay = std::min(retry_delay_ms << std::min(attempt, 10), 2000);
    std::fprintf(stderr, "plankton_client: %s (retrying in %dms)\n",
                 error.c_str(), delay);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    fd = connect_once();
  }
  if (fd < 0) {
    std::fprintf(stderr, "plankton_client: daemon unreachable: %s\n",
                 error.c_str());
    return 4;
  }
  sched::Frame reply;
  int rc = 3;
  bool transport_failed = false;
  // Idempotent requests (load/query/stats) survive a mid-request connection
  // loss by reconnecting and resending; delta and shutdown are not resent —
  // a lost reply leaves their outcome unknown, which exit 4 reports.
  const auto do_rpc = [&](sched::MsgType type, const std::string& payload,
                          bool idempotent) {
    for (int attempt = 0;; ++attempt) {
      if (rpc(fd, type, payload, reply, error)) return true;
      if (!idempotent || attempt >= retries) {
        transport_failed = true;
        return false;
      }
      const int delay =
          std::min(retry_delay_ms << std::min(attempt, 10), 2000);
      std::fprintf(stderr, "plankton_client: %s (retrying in %dms)\n",
                   error.c_str(), delay);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      ::close(fd);
      fd = connect_once();
      if (fd < 0) {
        transport_failed = true;
        return false;
      }
    }
  };
  if (command == "load") {
    if (i >= argc) return usage();
    LoadNetMsg m;
    if (!read_file(argv[i], m.config_text)) {
      std::fprintf(stderr, "plankton_client: cannot read '%s'\n", argv[i]);
      ::close(fd);
      return 3;
    }
    if (do_rpc(sched::MsgType::kLoadNet, encode_load_net(m), true)) {
      rc = print_reply(reply);
    }
  } else if (command == "query") {
    QueryMsg m;
    std::string spec;
    for (; i < argc; ++i) {
      if (std::strcmp(argv[i], "--failures") == 0 && i + 1 < argc) {
        int k = 0;
        if (!parse_int(argv[++i], k, 0)) {
          ::close(fd);
          return usage();
        }
        m.max_failures = static_cast<std::uint32_t>(k);
        continue;
      }
      if (!spec.empty()) spec += ' ';
      spec += argv[i];
    }
    if (spec.empty()) return usage();
    m.policy_spec = spec;
    if (do_rpc(sched::MsgType::kQuery, encode_query(m), true)) {
      rc = print_reply(reply);
    }
  } else if (command == "delta") {
    if (i >= argc) return usage();
    std::string text;
    if (!read_file(argv[i], text)) {
      std::fprintf(stderr, "plankton_client: cannot read '%s'\n", argv[i]);
      ::close(fd);
      return 3;
    }
    ApplyDeltaMsg m;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty() || line[0] == '#') continue;
      DeltaOp op;
      if (line.rfind("add ", 0) == 0) {
        op.add = true;
        op.line = line.substr(4);
      } else if (line.rfind("del ", 0) == 0) {
        op.add = false;
        op.line = line.substr(4);
      } else {
        std::fprintf(stderr, "plankton_client: bad delta line '%s'\n",
                     line.c_str());
        ::close(fd);
        return 3;
      }
      m.ops.push_back(std::move(op));
    }
    if (do_rpc(sched::MsgType::kApplyDelta, encode_apply_delta(m), false)) {
      rc = print_reply(reply);
    }
  } else if (command == "stats") {
    if (do_rpc(sched::MsgType::kCacheStats, "", true)) {
      CacheStatsMsg m;
      if (reply.type == sched::MsgType::kCacheStats &&
          decode_cache_stats(reply.payload, m)) {
        std::printf(
            "entries=%llu hits=%llu misses=%llu insertions=%llu "
            "warm_loaded=%llu\n",
            static_cast<unsigned long long>(m.entries),
            static_cast<unsigned long long>(m.hits),
            static_cast<unsigned long long>(m.misses),
            static_cast<unsigned long long>(m.insertions),
            static_cast<unsigned long long>(m.warm_loaded));
        rc = 0;
      } else {
        error = "malformed stats reply";
      }
    }
  } else if (command == "shutdown") {
    if (do_rpc(sched::MsgType::kShutdown, "", false)) rc = 0;
  } else {
    ::close(fd);
    return usage();
  }
  if (transport_failed) {
    std::fprintf(stderr, "plankton_client: daemon unreachable: %s\n",
                 error.c_str());
    if (fd >= 0) ::close(fd);
    return 4;
  }
  if (rc == 3 && !error.empty()) {
    std::fprintf(stderr, "plankton_client: %s\n", error.c_str());
  }
  ::close(fd);
  return rc;
}

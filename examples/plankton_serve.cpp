// plankton_serve: long-running verification daemon. Holds a parsed network
// resident behind a Unix/TCP socket (PKS1 framing), answers policy queries
// through the fingerprint-keyed verdict cache, and re-verifies only the PECs
// a config delta moved. Drive it with plankton_client.
//
//   plankton_serve --socket /tmp/p.sock --journal /tmp/p.journal
//   plankton_serve --tcp 7411 --all-violations
//
// The journal is the daemon's one state file. With --journal every accepted
// load/delta is appended + fsync'd to a PKJ1 write-ahead journal before it
// is acked, and a restart replays the journal so a kill -9 loses nothing
// that was acknowledged. A load and the kShutdown/SIGTERM drain compact it
// to the resident config plus the verdict cache's clean-hold keys, so a
// daemon restarted after a graceful stop answers unchanged queries from a
// warm cache. Without --journal the cache lives in memory only.
//
// --max-clients caps concurrent connections (one past the cap gets an error
// reply and a close); --read-deadline-ms drops a client stalled mid-frame.
// A connection that is merely idle stays open for as long as its client
// holds it.
//
// Every numeric flag takes a plain decimal integer in its range (--cores at
// least 1); anything else is a usage error.
//
// Exit codes: 0 clean shutdown (kShutdown frame or SIGTERM/SIGINT drain),
// 3 setup/usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "netbase/parse_int.hpp"
#include "serve/server.hpp"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: plankton_serve [--socket <path>] [--tcp <port>]\n"
      "                      [--journal <path>] [--cores <n>]\n"
      "                      [--all-violations] [--no-pec-dedup] [--no-por]\n"
      "                      [--deadline-ms <n>] [--budget-states <n>]\n"
      "                      [--max-clients <n>] [--read-deadline-ms <n>]\n"
      "at least one of --socket/--tcp is required\n");
}

}  // namespace

int main(int argc, char** argv) {
  using plankton::serve::ServerOptions;
  ServerOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "plankton_serve: %s needs a value\n", arg.c_str());
        std::exit(3);
      }
      return argv[++i];
    };
    // Parses the flag's value into `field`, within [lo, hi], or exits 3
    // with the usage text.
    const auto number = [&]<typename T>(
        T& field, T lo, T hi = std::numeric_limits<T>::max()) {
      const char* text = value();
      if (!plankton::parse_int(text, field, lo, hi)) {
        std::fprintf(stderr, "plankton_serve: bad %s '%s'\n", arg.c_str(),
                     text);
        usage();
        std::exit(3);
      }
    };
    if (arg == "--socket") {
      opts.unix_path = value();
    } else if (arg == "--tcp") {
      number(opts.tcp_port, 1, 65535);
    } else if (arg == "--journal") {
      opts.journal_path = value();
    } else if (arg == "--max-clients") {
      number(opts.max_clients, std::size_t{1});
    } else if (arg == "--read-deadline-ms") {
      number(opts.read_deadline_ms, 0);
    } else if (arg == "--cores") {
      number(opts.verify.cores, 1);
    } else if (arg == "--all-violations") {
      opts.verify.explore.find_all_violations = true;
    } else if (arg == "--no-pec-dedup") {
      opts.verify.pec_dedup = false;
    } else if (arg == "--no-por") {
      opts.verify.explore.por = false;
    } else if (arg == "--deadline-ms") {
      std::int64_t ms = 0;
      number(ms, std::int64_t{0});
      opts.verify.explore.budget.deadline = std::chrono::milliseconds(ms);
    } else if (arg == "--budget-states") {
      number(opts.verify.explore.budget.max_states, std::uint64_t{0});
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "plankton_serve: unknown flag '%s'\n", arg.c_str());
      usage();
      return 3;
    }
  }
  if (opts.unix_path.empty() && opts.tcp_port == 0) {
    usage();
    return 3;
  }
  return plankton::serve::run_server(opts);
}

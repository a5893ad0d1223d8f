#include "sched/fault.hpp"

#include "netbase/parse_int.hpp"

namespace plankton::sched {
namespace {

/// Splits "name@A:B" into its parts; `arg2` stays empty without a colon.
void split_directive(std::string_view d, std::string_view& name,
                     std::string_view& arg1, std::string_view& arg2) {
  name = d;
  arg1 = arg2 = {};
  const std::size_t at = d.find('@');
  if (at == std::string_view::npos) return;
  name = d.substr(0, at);
  arg1 = d.substr(at + 1);
  const std::size_t colon = arg1.find(':');
  if (colon == std::string_view::npos) return;
  arg2 = arg1.substr(colon + 1);
  arg1 = arg1.substr(0, colon);
}

}  // namespace

bool parse_fault_plan(std::string_view text, FaultPlan& out,
                      std::string& error) {
  out = FaultPlan{};
  error.clear();
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find_first_of(";,", pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view d = text.substr(pos, end - pos);
    pos = end + 1;
    while (!d.empty() && d.front() == ' ') d.remove_prefix(1);
    while (!d.empty() && d.back() == ' ') d.remove_suffix(1);
    if (d.empty()) {
      if (end == text.size()) break;
      continue;
    }
    std::string_view name, arg1, arg2;
    split_directive(d, name, arg1, arg2);
    // F is a 1-based index; MS is any 32-bit count of milliseconds.
    std::uint64_t frame = 0;
    std::uint32_t ms = 0;
    const bool has_frame = parse_int<std::uint64_t>(arg1, frame, 1);
    const bool has_ms = parse_int(arg2, ms);
    auto fail = [&](const char* why) {
      error = std::string(why) + ": '" + std::string(d) + "'";
      out = FaultPlan{};
      return false;
    };
    if (name == "stall") {
      if (!has_frame || !has_ms) return fail("stall needs @F:MS");
      out.stall_at_frame = frame;
      out.stall_ms = ms;
    } else if (name == "drop-conn") {
      if (!has_frame || !arg2.empty()) return fail("drop-conn needs @F");
      out.drop_conn_at_frame = frame;
    } else if (name == "torn-tcp") {
      if (!has_frame || !arg2.empty()) return fail("torn-tcp needs @F");
      out.torn_tcp_at_frame = frame;
    } else if (name == "slow-read") {
      if (!has_frame || !has_ms) return fail("slow-read needs @F:MS");
      out.slow_read_at = frame;
      out.slow_read_ms = ms;
    } else {
      return fail("unknown fault directive");
    }
    if (end == text.size()) break;
  }
  return true;
}

std::string FaultPlan::str() const {
  std::string out;
  auto add = [&out](std::string piece) {
    if (!out.empty()) out += ';';
    out += std::move(piece);
  };
  if (stall_at_frame != 0) {
    add("stall@" + std::to_string(stall_at_frame) + ":" +
        std::to_string(stall_ms));
  }
  if (drop_conn_at_frame != 0) {
    add("drop-conn@" + std::to_string(drop_conn_at_frame));
  }
  if (torn_tcp_at_frame != 0) {
    add("torn-tcp@" + std::to_string(torn_tcp_at_frame));
  }
  if (slow_read_at != 0) {
    add("slow-read@" + std::to_string(slow_read_at) + ":" +
        std::to_string(slow_read_ms));
  }
  return out;
}

}  // namespace plankton::sched

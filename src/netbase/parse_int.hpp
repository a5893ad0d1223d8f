// Strict decimal integer parsing, shared by the command-line tools and the
// small text grammars (config numbers, policy bounds).
#pragma once

#include <charconv>
#include <limits>
#include <string_view>

namespace plankton {

/// Parses all of `text` as a decimal integer in [lo, hi] and stores it in
/// `out`. Refuses empty input, a leading '+' or whitespace, any non-digit,
/// trailing garbage, and values outside [lo, hi] or outside T; `out` is left
/// untouched then. A '-' is accepted only for signed T, and then only if
/// the value is still >= lo.
template <typename T>
[[nodiscard]] bool parse_int(std::string_view text, T& out,
                             T lo = std::numeric_limits<T>::min(),
                             T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [next, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || next != end || v < lo || v > hi) return false;
  out = v;
  return true;
}

}  // namespace plankton

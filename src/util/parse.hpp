// Strict decimal parsing for command-line flags and replay strings.
#pragma once

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace euno {

/// Parses the whole token as an unsigned decimal integer. Only digits are
/// accepted: no sign, whitespace, base prefix or trailing text ("4x" is
/// rejected, not truncated to 4; "-1" is rejected, not wrapped to 2^64-1),
/// and a value above 2^64-1 is rejected rather than saturated. On failure
/// *out is left untouched.
inline bool parse_decimal_u64(std::string_view s, std::uint64_t* out) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

}  // namespace euno

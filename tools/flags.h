// Checked numeric flag values, shared by the command-line tools.
//
// A flag's value must be decimal digits only (for a double: a finite
// number), with no trailing characters, and must fit the type of the
// field it sets.  Anything else — `--rounds abc`, `--rounds 4294967298`
// for an unsigned, `--port 70000` for a uint16_t — prints
// `<tool>: invalid value '<value>' for <flag> (expected ...)` and exits 2,
// the usage-error status, before the tool does any work.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace ds::tools {

/// `value` parsed as the T that `flag` sets; exits 2 if it is not one.
template <typename T>
[[nodiscard]] T parse_flag(std::string_view tool, std::string_view flag,
                           std::string_view value) {
  static_assert(std::is_arithmetic_v<T>);
  T parsed{};
  const char* const end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  bool ok = !value.empty() && ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(parsed);
  } else {
    ok = ok && value.front() >= '0' && value.front() <= '9';
  }
  if (!ok) {
    std::cerr << tool << ": invalid value '" << value << "' for " << flag
              << " (expected ";
    if constexpr (std::is_floating_point_v<T>) {
      std::cerr << "a finite number";
    } else {
      std::cerr << "an integer in [0, "
                << +std::numeric_limits<T>::max() << "]";
    }
    std::cerr << ")\n";
    std::exit(2);
  }
  return parsed;
}

}  // namespace ds::tools

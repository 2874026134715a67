// Command-line parsing shared by the tools: `--flag value` pairs, the
// valueless flags, and checked numeric values.
//
// A flag's value must be decimal digits only (for a double: a finite
// number), with no trailing characters, and must fit the type of the
// field it sets.  Anything else — `--rounds abc`, `--rounds 4294967298`
// for an unsigned, `--port 70000` for a uint16_t — prints
// `<tool>: invalid value '<value>' for <flag> (expected ...)` and exits 2,
// the usage-error status, before the tool does any work.  Each tool
// lists the flags every command reads and refuses any other
// (Args::unknown_flag), so a misspelled or misplaced flag is named too.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

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

/// The flags that take no value; given, they read "1".
inline constexpr std::string_view kValuelessFlags[] = {"--serial",
                                                       "--list-scenarios"};

/// Pull `--flag value` pairs out of argv; positional args stay in order.
class Args {
 public:
  std::vector<std::string> positional;

  /// `tool` names the program in the messages of get_number.
  Args(std::string_view tool, int argc, char** argv) : tool_(tool) {
    for (int i = 0; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional.push_back(arg);
      } else if (std::find(std::begin(kValuelessFlags),
                           std::end(kValuelessFlags),
                           arg) != std::end(kValuelessFlags)) {
        flags_.emplace_back(arg, "1");
      } else if (i + 1 < argc) {
        flags_.emplace_back(arg, argv[++i]);
      } else {
        bad_ = true;
      }
    }
  }

  /// A flag that takes a value came last, without one.
  [[nodiscard]] bool bad() const noexcept { return bad_; }
  /// The first flag not in `known`, or null if every flag is known.
  [[nodiscard]] const std::string* unknown_flag(
      std::span<const std::string_view> known) const {
    for (const auto& [k, v] : flags_) {
      if (std::find(known.begin(), known.end(), k) == known.end()) return &k;
    }
    return nullptr;
  }
  [[nodiscard]] bool has(std::string_view name) const {
    return find(name) != nullptr;
  }
  [[nodiscard]] std::string get(std::string_view name,
                                const std::string& fallback) const {
    const std::string* value = find(name);
    return value == nullptr ? fallback : *value;
  }
  /// A numeric flag's value as the T it sets, checked (parse_flag): bad
  /// input exits 2 naming the flag.
  template <typename T>
  [[nodiscard]] T get_number(std::string_view name, T fallback) const {
    const std::string* value = find(name);
    return value == nullptr ? fallback : parse_flag<T>(tool_, name, *value);
  }

 private:
  /// The value of `name`, or null if it was not given; a flag given
  /// twice reads its last value.
  [[nodiscard]] const std::string* find(std::string_view name) const {
    for (auto it = flags_.rbegin(); it != flags_.rend(); ++it) {
      if (it->first == name) return &it->second;
    }
    return nullptr;
  }

  std::string_view tool_;
  std::vector<std::pair<std::string, std::string>> flags_;
  bool bad_ = false;
};

}  // namespace ds::tools

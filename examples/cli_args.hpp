// Checked command-line numbers and policy specs for the example
// programs. A malformed or out-of-range argument is a typed
// netmaster::Error that names the argument, never a silent 0, a wrapped
// value or a truncated prefix.
#pragma once

#include <array>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>

#include "common/error.hpp"
#include "trace/trace.hpp"

namespace netmaster::examples {

/// Parses a whole decimal integer of type T in [lo, hi]; anything else
/// (empty, a sign on an unsigned T, spaces, trailing characters, out of
/// range) throws with the argument's name.
template <typename T>
T parse_int_arg(std::string_view text, T lo, T hi, const std::string& what) {
  const char* const last = text.data() + text.size();
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (end == text.data() || end != last || ec != std::errc() || value < lo ||
      value > hi) {
    throw Error(what + " must be an integer in [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "], got '" + std::string(text) +
                "'");
  }
  return value;
}

/// Parses a whole decimal number in [lo, hi] (fixed or exponent form);
/// anything else, NaN and infinities included, throws with the
/// argument's name.
inline double parse_double_arg(std::string_view text, double lo, double hi,
                               const std::string& what) {
  const char* const last = text.data() + text.size();
  double value = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (end == text.data() || end != last || ec != std::errc() ||
      !(value >= lo && value <= hi)) {
    const auto shortest = [](double v) {
      std::array<char, 32> buf{};
      const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
      return std::string(buf.data(), res.ptr);
    };
    throw Error(what + " must be a number in [" + shortest(lo) + ", " +
                shortest(hi) + "], got '" + std::string(text) + "'");
  }
  return value;
}

/// A generator seed: any 64-bit unsigned integer.
inline std::uint64_t parse_seed_arg(std::string_view text) {
  return parse_int_arg<std::uint64_t>(
      text, 0, std::numeric_limits<std::uint64_t>::max(), "seed");
}

/// Longest delay window a policy spec may ask for: the longest trace.
inline constexpr double kMaxDelaySeconds =
    static_cast<double>(kMaxTraceDays) * kMsPerDay / kMsPerSecond;

/// A parsed `netmaster_cli evaluate` policy spec: baseline | oracle |
/// netmaster | delay:<s> | batch:<n> | delaybatch:<s>.
struct PolicySpecArg {
  std::string kind;       ///< the name before the colon
  DurationMs delay = 0;   ///< delay, delaybatch: at least one millisecond
  std::size_t batch = 0;  ///< batch
};

/// Parses a policy spec. An unknown kind, a number on a kind that takes
/// none, or a number that does not parse throws netmaster::Error.
inline PolicySpecArg parse_policy_spec(std::string_view spec) {
  const std::size_t colon = spec.find(':');
  const bool has_arg = colon != std::string_view::npos;
  PolicySpecArg out{std::string(spec.substr(0, colon))};
  const std::string_view arg = has_arg ? spec.substr(colon + 1) : "";
  if (out.kind == "delay" || out.kind == "delaybatch") {
    out.delay = seconds(
        parse_double_arg(arg, 0.001, kMaxDelaySeconds, "delay seconds"));
  } else if (out.kind == "batch") {
    out.batch = parse_int_arg<std::size_t>(
        arg, 0, std::numeric_limits<std::size_t>::max(), "batch size");
  } else if (has_arg || (out.kind != "baseline" && out.kind != "oracle" &&
                         out.kind != "netmaster")) {
    throw Error("unknown policy spec: " + std::string(spec));
  }
  return out;
}

/// The optional integer argument `argv[index]`, in [lo, hi], or
/// `fallback` when it is absent. A malformed or out-of-range argument
/// prints the typed error and exits with status 1.
template <typename T>
T int_arg_or_exit(int argc, char** argv, int index, T fallback, T lo, T hi,
                  const std::string& what) {
  if (argc <= index) return fallback;
  try {
    return parse_int_arg<T>(argv[index], lo, hi, what);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(1);
  }
}

/// The optional seed argument `argv[index]`, or `fallback` when it is
/// absent; a malformed seed exits as int_arg_or_exit does.
inline std::uint64_t seed_arg_or_exit(int argc, char** argv, int index,
                                      std::uint64_t fallback) {
  return int_arg_or_exit<std::uint64_t>(
      argc, argv, index, fallback, 0,
      std::numeric_limits<std::uint64_t>::max(), "seed");
}

}  // namespace netmaster::examples

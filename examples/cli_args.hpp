// Checked command-line numbers for the example programs. A malformed or
// out-of-range argument is a typed netmaster::Error that names the
// argument, never a silent 0, a wrapped value or a truncated prefix.
#pragma once

#include <array>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <system_error>

#include "common/error.hpp"

namespace netmaster::examples {

/// Parses a whole decimal integer of type T in [lo, hi]; anything else
/// (empty, a sign on an unsigned T, spaces, trailing characters, out of
/// range) throws with the argument's name.
template <typename T>
T parse_int_arg(const char* text, T lo, T hi, const std::string& what) {
  const char* const last = text + std::strlen(text);
  T value{};
  const auto [end, ec] = std::from_chars(text, last, value);
  if (end == text || end != last || ec != std::errc() || value < lo ||
      value > hi) {
    throw Error(what + " must be an integer in [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "], got '" + text + "'");
  }
  return value;
}

/// Parses a whole decimal number in [lo, hi] (fixed or exponent form);
/// anything else, NaN and infinities included, throws with the
/// argument's name.
inline double parse_double_arg(const char* text, double lo, double hi,
                               const std::string& what) {
  const char* const last = text + std::strlen(text);
  double value = 0.0;
  const auto [end, ec] = std::from_chars(text, last, value);
  if (end == text || end != last || ec != std::errc() ||
      !(value >= lo && value <= hi)) {
    const auto shortest = [](double v) {
      std::array<char, 32> buf{};
      const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
      return std::string(buf.data(), res.ptr);
    };
    throw Error(what + " must be a number in [" + shortest(lo) + ", " +
                shortest(hi) + "], got '" + text + "'");
  }
  return value;
}

/// A generator seed: any 64-bit unsigned integer.
inline std::uint64_t parse_seed_arg(const char* text) {
  return parse_int_arg<std::uint64_t>(
      text, 0, std::numeric_limits<std::uint64_t>::max(), "seed");
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

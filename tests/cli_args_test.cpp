// Fuzzes the example programs' argument decoders in-process: the policy
// spec of `netmaster_cli evaluate` and the checked numbers under it
// (examples/cli_args.hpp). Random byte strings, and mutations of valid
// specs, either parse to a spec that obeys its bounds or throw the
// typed netmaster::Error; nothing else may escape. No process is
// spawned.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "common/error.hpp"

namespace netmaster::examples {
namespace {

TEST(PolicySpecArg, ParsesEveryKind) {
  EXPECT_EQ(parse_policy_spec("baseline").kind, "baseline");
  EXPECT_EQ(parse_policy_spec("oracle").kind, "oracle");
  EXPECT_EQ(parse_policy_spec("netmaster").kind, "netmaster");
  const PolicySpecArg delay = parse_policy_spec("delay:1.5");
  EXPECT_EQ(delay.kind, "delay");
  EXPECT_EQ(delay.delay, 1500);
  EXPECT_EQ(parse_policy_spec("delaybatch:60").delay, 60'000);
  EXPECT_EQ(parse_policy_spec("batch:10").batch, 10u);
  EXPECT_EQ(parse_policy_spec("batch:18446744073709551615").batch,
            std::numeric_limits<std::size_t>::max());
}

TEST(PolicySpecArg, RejectsMalformedSpecsWithTheTypedError) {
  for (const char* bad :
       {"", "base", "baseline:", "oracle:1", "netmaster:x", "batch", "batch:",
        "batch:-1", "batch:1.5", "batch: 1", "batch:18446744073709551616",
        "delay", "delay:", "delay:abc", "delay:0", "delay:nan", "delay:inf",
        "delay:1e400", "delay:315360001", "delay:1x", ":", "BATCH:1"}) {
    EXPECT_THROW(parse_policy_spec(bad), Error) << "'" << bad << "'";
  }
  // An embedded NUL ends no number early.
  EXPECT_THROW(parse_policy_spec(std::string("batch:5\0x", 9)), Error);
}

/// One fuzz input: random bytes, a valid kind with random bytes after
/// its colon, or a valid spec with a few bytes flipped, inserted or
/// dropped.
std::string fuzz_spec(std::mt19937_64& rng) {
  static const std::vector<std::string> valid = {
      "baseline",  "oracle",       "netmaster",  "delay:10",
      "batch:5",   "delaybatch:20", "delay:0.001", "batch:0"};
  static const std::string alphabet = "0123456789.:-+eE xinfaNbdlyt\t";
  std::string s;
  switch (rng() % 3) {
    case 0: {
      const std::size_t n = rng() % 24;
      for (std::size_t i = 0; i < n; ++i) s += static_cast<char>(rng() % 256);
      break;
    }
    case 1: {
      const std::string& v = valid[rng() % valid.size()];
      s = v.substr(0, v.find(':')) + ":";
      const std::size_t n = rng() % 24;
      for (std::size_t i = 0; i < n; ++i) {
        s += rng() % 4 == 0 ? static_cast<char>(rng() % 256)
                            : alphabet[rng() % alphabet.size()];
      }
      break;
    }
    default: {
      s = valid[rng() % valid.size()];
      const std::size_t edits = 1 + rng() % 3;
      for (std::size_t e = 0; e < edits && !s.empty(); ++e) {
        const std::size_t at = rng() % s.size();
        switch (rng() % 3) {
          case 0: s[at] = static_cast<char>(rng() % 256); break;
          case 1: s.insert(s.begin() + static_cast<std::ptrdiff_t>(at),
                           alphabet[rng() % alphabet.size()]);
            break;
          default: s.erase(at, 1);
        }
      }
    }
  }
  return s;
}

TEST(PolicySpecArg, FuzzedSpecsParseInBoundsOrThrowTheTypedError) {
  std::mt19937_64 rng(20261024);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 50'000; ++iter) {
    const std::string spec = fuzz_spec(rng);
    try {
      const PolicySpecArg p = parse_policy_spec(spec);
      ++parsed;
      if (p.kind == "delay" || p.kind == "delaybatch") {
        EXPECT_GE(p.delay, 1) << spec;
        EXPECT_LE(p.delay, seconds(kMaxDelaySeconds)) << spec;
      } else if (p.kind != "batch") {
        EXPECT_TRUE(p.kind == "baseline" || p.kind == "oracle" ||
                    p.kind == "netmaster")
            << spec;
        EXPECT_EQ(spec, p.kind);
      }
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "'" << spec << "' threw an untyped " << e.what();
    }
  }
  EXPECT_GT(parsed, 200u);
  EXPECT_GT(rejected, 10'000u);
}

TEST(CliArgs, FuzzedNumbersParseInBoundsOrThrowTheTypedError) {
  std::mt19937_64 rng(20261025);
  for (int iter = 0; iter < 20'000; ++iter) {
    std::string text;
    const std::size_t n = rng() % 24;
    for (std::size_t i = 0; i < n; ++i) {
      text += rng() % 3 == 0 ? static_cast<char>(rng() % 256)
                             : "0123456789-+.e"[rng() % 14];
    }
    try {
      const int v = parse_int_arg(text, 0, 7, "archetype");
      EXPECT_TRUE(v >= 0 && v <= 7) << text;
    } catch (const Error&) {
    }
    try {
      parse_seed_arg(text);
    } catch (const Error&) {
    }
    try {
      const double d = parse_double_arg(text, 0.001, 10.0, "delay seconds");
      EXPECT_TRUE(d >= 0.001 && d <= 10.0) << text;
    } catch (const Error&) {
    }
  }
}

}  // namespace
}  // namespace netmaster::examples

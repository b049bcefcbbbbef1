// Tests for the mem subsystem: arena allocation and alignment, packed
// bit sets, and the SoA trace columns (round trip through the
// oracles::materialize inverse, AoS-compatible views, proxy iterators).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "mem/arena.hpp"
#include "mem/soa.hpp"
#include "obs/metrics.hpp"
#include "oracles/materialize.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"
#include "trace/trace.hpp"

namespace netmaster::mem {
namespace {

UserTrace fixture() {
  UserTrace t;
  t.user = 11;
  t.num_days = 2;
  t.app_names = {"mail", "maps", ""};
  t.sessions = {{seconds(10), seconds(20)}, {seconds(50), seconds(90)}};
  t.usages = {{0, seconds(12), seconds(3)}, {1, seconds(55), seconds(8)}};
  NetworkActivity a;
  a.app = 1;
  a.start = seconds(30);
  a.duration = seconds(2);
  a.bytes_down = 1234;
  a.bytes_up = 56;
  a.user_initiated = true;
  a.deferrable = false;
  NetworkActivity b;
  b.app = 2;
  b.start = seconds(95);
  b.duration = seconds(4);
  b.bytes_down = 7;
  b.bytes_up = 8;
  b.user_initiated = false;
  b.deferrable = true;
  t.activities = {a, b};
  return t;
}

TEST(Arena, AlignsAndTracksUsage) {
  Arena arena(128);  // tiny chunks force growth
  const std::span<char> c = arena.alloc_array<char>(3);
  ASSERT_EQ(c.size(), 3u);
  const std::span<std::int64_t> w = arena.alloc_array<std::int64_t>(4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % alignof(std::int64_t),
            0u);
  EXPECT_GE(arena.bytes_used(), 3u + 4 * sizeof(std::int64_t));
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());

  // Many small allocations spill into fresh chunks.
  for (int i = 0; i < 100; ++i) arena.alloc_array<std::int64_t>(4);
  EXPECT_GT(arena.chunk_count(), 1u);

  // Oversize request gets a dedicated, still-aligned chunk.
  const std::span<double> big = arena.alloc_array<double>(1000);
  EXPECT_EQ(big.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.data()) % alignof(double),
            0u);
}

TEST(Arena, ZeroedAndCopiedArrays) {
  Arena arena;
  const std::span<int> z = arena.alloc_zeroed<int>(17);
  for (const int v : z) EXPECT_EQ(v, 0);
  const std::vector<std::uint32_t> src = {5, 6, 7};
  const std::span<const std::uint32_t> copy =
      arena.copy_array<std::uint32_t>(src);
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy[0], 5u);
  EXPECT_EQ(copy[2], 7u);
  EXPECT_TRUE(arena.alloc_array<int>(0).empty());
}

TEST(Arena, ResetBumpsGenerationAndReleasesMemory) {
  Arena arena;
  arena.alloc_array<std::int64_t>(100);
  const std::uint64_t gen = arena.generation();
  EXPECT_GT(arena.bytes_used(), 0u);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_GT(arena.generation(), gen);
}

TEST(Arena, ReportsBytesToObsRegistry) {
  obs::Counter& bytes =
      obs::Registry::global().counter("mem.arena.bytes");
  const std::uint64_t before = bytes.value();
  Arena arena;
  arena.alloc_array<std::int64_t>(10);
  EXPECT_GT(bytes.value(), before);
}

TEST(BitSpan, SetAndTestAcrossWordBoundaries) {
  Arena arena;
  auto [bits, words] = BitSpan::build(130, arena);
  EXPECT_EQ(bits.size(), 130u);
  for (const std::size_t i : {std::size_t{0}, std::size_t{63},
                              std::size_t{64}, std::size_t{129}}) {
    EXPECT_FALSE(bits.test(i));
    BitSpan::set(words, i);
    EXPECT_TRUE(bits.test(i));
  }
  EXPECT_FALSE(bits.test(1));
  EXPECT_FALSE(bits.test(128));
}

TEST(SoaColumns, BuildMaterializeRoundTripsFixture) {
  const UserTrace t = fixture();
  Arena arena;
  const TraceColumns columns = TraceColumns::build(t, arena);
  EXPECT_EQ(columns.user, t.user);
  EXPECT_EQ(columns.num_days, t.num_days);
  const UserTrace back = oracles::materialize(columns);
  EXPECT_EQ(back.user, t.user);
  EXPECT_EQ(back.num_days, t.num_days);
  EXPECT_EQ(back.sessions, t.sessions);
  EXPECT_EQ(back.usages, t.usages);
  EXPECT_EQ(back.activities, t.activities);
}

TEST(SoaColumns, BuildMaterializeRoundTripsSynthTraces) {
  for (const std::uint64_t seed : {2u, 19u}) {
    for (int arch = 0; arch < 3; ++arch) {
      const UserTrace t = synth::generate_trace(
          synth::make_user(static_cast<synth::Archetype>(arch), 1), 7,
          seed);
      Arena arena;
      const UserTrace back =
          oracles::materialize(TraceColumns::build(t, arena));
      EXPECT_EQ(back.sessions, t.sessions);
      EXPECT_EQ(back.usages, t.usages);
      EXPECT_EQ(back.activities, t.activities);
    }
  }
}

TEST(SoaColumns, ViewsMatchAosAccess) {
  const UserTrace t = fixture();
  Arena arena;
  const TraceColumns columns = TraceColumns::build(t, arena);

  ASSERT_EQ(columns.sessions.size(), t.sessions.size());
  for (std::size_t i = 0; i < t.sessions.size(); ++i) {
    EXPECT_EQ(columns.sessions[i], t.sessions[i]);
    EXPECT_EQ(columns.sessions.begin_at(i), t.sessions[i].begin);
    EXPECT_EQ(columns.sessions.end_at(i), t.sessions[i].end);
  }
  ASSERT_EQ(columns.activities.size(), t.activities.size());
  for (std::size_t i = 0; i < t.activities.size(); ++i) {
    EXPECT_EQ(columns.activities[i], t.activities[i]);
  }
  ASSERT_EQ(columns.usages.size(), t.usages.size());
  for (std::size_t i = 0; i < t.usages.size(); ++i) {
    EXPECT_EQ(columns.usages[i], t.usages[i]);
  }
}

TEST(SoaColumns, ProxyIteratorsSupportCursorLoops) {
  const UserTrace t = fixture();
  Arena arena;
  const TraceColumns columns = TraceColumns::build(t, arena);

  // Cursor-style loop with arrow access, as the batch policies use.
  auto it = columns.sessions.begin();
  ASSERT_NE(it, columns.sessions.end());
  EXPECT_EQ(it->begin, t.sessions[0].begin);
  ++it;
  EXPECT_EQ(it->end, t.sessions[1].end);
  ++it;
  EXPECT_EQ(it, columns.sessions.end());

  // Range-for materialises records.
  std::size_t i = 0;
  for (const NetworkActivity act : columns.activities) {
    EXPECT_EQ(act, t.activities[i++]);
  }
  EXPECT_EQ(i, t.activities.size());

  // Random access arithmetic.
  EXPECT_EQ(columns.sessions.end() - columns.sessions.begin(),
            static_cast<std::ptrdiff_t>(t.sessions.size()));
  EXPECT_EQ((columns.sessions.begin() + 1)->begin, t.sessions[1].begin);
}

TEST(SoaColumns, EmptyTraceBuilds) {
  UserTrace t;
  t.user = 3;
  t.num_days = 0;
  Arena arena;
  const TraceColumns columns = TraceColumns::build(t, arena);
  EXPECT_TRUE(columns.sessions.empty());
  EXPECT_TRUE(columns.activities.empty());
  EXPECT_TRUE(columns.usages.empty());
  const UserTrace back = oracles::materialize(columns);
  EXPECT_EQ(back.user, 3);
  EXPECT_TRUE(back.sessions.empty());
}

}  // namespace
}  // namespace netmaster::mem

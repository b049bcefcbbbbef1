// Tests for mem::UserBlob: lossless round trips (synthetic traces,
// empty users, invariant-violating edge traces, CRLF CSV imports),
// file I/O through the mmap read path, and rejection of corrupted
// images — truncations, bit flips, bad magic/version/CRC, trailing
// bytes — via BlobError, never UB; and the payload CRC-32 against a
// bitwise reference.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "mem/blob.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace netmaster::mem {
namespace {

void expect_trace_eq(const UserTrace& a, const UserTrace& b) {
  EXPECT_EQ(a.user, b.user);
  EXPECT_EQ(a.num_days, b.num_days);
  EXPECT_EQ(a.app_names, b.app_names);
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.usages, b.usages);
  EXPECT_EQ(a.activities, b.activities);
}

std::vector<UserTrace> round_trip(std::span<const UserTrace> traces) {
  return UserBlob::decode(UserBlob::encode(traces));
}

TEST(UserBlob, RoundTripsSynthTraces) {
  for (const std::uint64_t seed : {1u, 42u}) {
    for (int arch = 0; arch < 3; ++arch) {
      const UserTrace t = synth::generate_trace(
          synth::make_user(static_cast<synth::Archetype>(arch), 9), 14,
          seed);
      const std::vector<UserTrace> back = round_trip({&t, 1});
      ASSERT_EQ(back.size(), 1u);
      expect_trace_eq(back[0], t);
    }
  }
}

TEST(UserBlob, RoundTripsEmptyUserAndEmptyBlob) {
  UserTrace empty;
  empty.user = 77;
  const std::vector<UserTrace> back = round_trip({&empty, 1});
  ASSERT_EQ(back.size(), 1u);
  expect_trace_eq(back[0], empty);

  const std::vector<UserTrace> none = round_trip({});
  EXPECT_TRUE(none.empty());
}

TEST(UserBlob, RoundTripsValidateRejectedEdgeTraces) {
  // Blobs store traces as-is: even traces validate() rejects must
  // survive eviction unchanged, or a spilled failed user would decode
  // differently than it was admitted.
  UserTrace bad;
  bad.user = -3;
  bad.num_days = -1;
  bad.app_names = {"", "x,y was sanitized upstream", "z"};
  bad.sessions = {{seconds(50), seconds(10)},   // inverted
                  {seconds(5), seconds(60)}};   // overlapping
  bad.usages = {{99, -seconds(7), -seconds(1)}};  // unknown app, t<0
  NetworkActivity n;
  n.app = -5;
  n.start = -seconds(100);
  n.duration = -1;
  n.bytes_down = -42;
  n.bytes_up = std::numeric_limits<std::int64_t>::max();
  n.user_initiated = true;
  n.deferrable = true;
  bad.activities = {n};
  EXPECT_THROW(bad.validate(), Error);

  const std::vector<UserTrace> back = round_trip({&bad, 1});
  ASSERT_EQ(back.size(), 1u);
  expect_trace_eq(back[0], bad);
}

TEST(UserBlob, RoundTripsCrlfCsvImport) {
  // A trace shipped through Windows tooling arrives with CRLF line
  // endings; the parser strips them and the blob round trip preserves
  // the parsed trace exactly.
  const UserTrace original = synth::generate_trace(
      synth::make_user(synth::Archetype::kCommuter, 4), 7, 11);
  std::ostringstream csv;
  write_trace(csv, original);
  std::string crlf = csv.str();
  std::string::size_type at = 0;
  while ((at = crlf.find('\n', at)) != std::string::npos) {
    crlf.replace(at, 1, "\r\n");
    at += 2;
  }
  std::istringstream in(crlf);
  const UserTrace parsed = read_trace(in);
  expect_trace_eq(parsed, original);

  const std::vector<UserTrace> back = round_trip({&parsed, 1});
  ASSERT_EQ(back.size(), 1u);
  expect_trace_eq(back[0], original);
}

TEST(UserBlob, RoundTripsMultiTraceImages) {
  const UserTrace a = synth::generate_trace(
      synth::make_user(synth::Archetype::kCommuter, 1), 7, 3);
  const UserTrace b = synth::generate_trace(
      synth::make_user(synth::Archetype::kStudent, 2), 14, 4);
  const UserTrace traces[] = {a, b};
  const std::vector<UserTrace> back = round_trip(traces);
  ASSERT_EQ(back.size(), 2u);
  expect_trace_eq(back[0], a);
  expect_trace_eq(back[1], b);
}

TEST(UserBlob, FileRoundTripViaMmapPath) {
  const UserTrace t = synth::generate_trace(
      synth::make_user(synth::Archetype::kNightOwl, 6), 7, 8);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "nm_blob_test.nmub";
  const UserTrace traces[] = {t, t};
  UserBlob::write_file(path.string(), traces);
  const std::vector<UserTrace> back = UserBlob::read_file(path.string());
  ASSERT_EQ(back.size(), 2u);
  expect_trace_eq(back[0], t);
  expect_trace_eq(back[1], t);
  std::filesystem::remove(path);
  EXPECT_THROW(UserBlob::read_file(path.string()), Error);
}

std::vector<std::byte> sample_image() {
  const UserTrace t = synth::generate_trace(
      synth::make_user(synth::Archetype::kCommuter, 2), 7, 5);
  return UserBlob::encode({&t, 1});
}

TEST(UserBlob, RejectsEveryHeaderCorruption) {
  const std::vector<std::byte> image = sample_image();
  // Flipping any single header byte must be caught: magic, version,
  // payload length, CRC, or trace count.
  for (std::size_t i = 0; i < 24; ++i) {
    std::vector<std::byte> bad = image;
    bad[i] ^= std::byte{0x40};
    EXPECT_THROW(UserBlob::decode(bad), BlobError) << "header byte " << i;
  }
}

TEST(UserBlob, RejectsTruncationAtEveryBoundary) {
  const std::vector<std::byte> image = sample_image();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{23}, std::size_t{24},
        image.size() / 2, image.size() - 1}) {
    const std::span<const std::byte> cut{image.data(), keep};
    EXPECT_THROW(UserBlob::decode(cut), BlobError) << "kept " << keep;
  }
}

TEST(UserBlob, RejectsTrailingBytes) {
  std::vector<std::byte> image = sample_image();
  image.push_back(std::byte{0});
  EXPECT_THROW(UserBlob::decode(image), BlobError);
}

TEST(UserBlob, FuzzedPayloadFlipsAlwaysRejected) {
  // Any payload bit flip must trip the CRC (or a structural check) —
  // seeded, so a failure reproduces.
  const std::vector<std::byte> image = sample_image();
  std::mt19937 rng(1234);
  std::uniform_int_distribution<std::size_t> pick(24, image.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::byte> bad = image;
    bad[pick(rng)] ^= std::byte{static_cast<unsigned char>(1 << bit(rng))};
    EXPECT_THROW(UserBlob::decode(bad), BlobError) << "iteration " << iter;
  }
}

TEST(UserBlob, FuzzedRandomImagesNeverCrash) {
  // Pure garbage images: decode must throw BlobError, never read out
  // of bounds (the ASan rerun enforces the "never" part).
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<std::byte> garbage(static_cast<std::size_t>(iter * 7 % 256));
    for (std::byte& b : garbage) {
      b = std::byte{static_cast<unsigned char>(byte(rng))};
    }
    EXPECT_THROW(UserBlob::decode(garbage), BlobError);
  }
}

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the oracle for the
/// table-driven crc32.
std::uint32_t crc32_reference(std::span<const std::byte> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::byte b : bytes) {
    c ^= static_cast<std::uint8_t>(b);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesTheStandardCheckValue) {
  const std::string check = "123456789";
  const auto bytes = std::as_bytes(std::span(check.data(), check.size()));
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryAlignment) {
  // Lengths 0..4096 (every short length, then random ones) starting at
  // offsets 0..7, so the 8-byte fast loop meets every head alignment
  // and every bytewise tail length.
  std::mt19937 rng(4096);
  std::uniform_int_distribution<int> byte(0, 255);
  std::vector<std::byte> buffer(4096 + 8);
  for (std::byte& b : buffer) {
    b = std::byte{static_cast<unsigned char>(byte(rng))};
  }
  std::uniform_int_distribution<std::size_t> length(0, 4096);
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t len = iter < 80 ? static_cast<std::size_t>(iter)
                                      : length(rng);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::span<const std::byte> view(buffer.data() + offset, len);
      ASSERT_EQ(crc32(view), crc32_reference(view))
          << "length " << len << " offset " << offset;
    }
  }
}

TEST(TraceFootprint, CountsHeapBytes) {
  UserTrace t;
  EXPECT_EQ(trace_footprint_bytes(t), sizeof(UserTrace));
  t.activities.resize(100);
  t.app_names.push_back(std::string(200, 'x'));  // beyond SSO
  const std::size_t footprint = trace_footprint_bytes(t);
  EXPECT_GE(footprint,
            sizeof(UserTrace) + 100 * sizeof(NetworkActivity) + 200);
}

}  // namespace
}  // namespace netmaster::mem

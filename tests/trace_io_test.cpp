// Tests for trace CSV serialization: round trips and failure injection.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "trace/trace_io.hpp"

namespace netmaster {
namespace {

UserTrace sample_trace() {
  UserTrace t;
  t.user = 7;
  t.num_days = 1;
  t.app_names = {"alpha", "beta"};
  t.sessions = {{100, 500}, {1000, 2000}};
  t.usages = {{0, 150, 40}, {1, 1100, 300}};
  t.activities = {
      {0, 200, 100, 1234, 56, true, false},
      {1, 5000, 400, 9, 0, false, true},
  };
  return t;
}

TEST(TraceIo, RoundTripIdentity) {
  const UserTrace original = sample_trace();
  std::stringstream ss;
  write_trace(ss, original);
  const UserTrace parsed = read_trace(ss);
  EXPECT_EQ(parsed.user, original.user);
  EXPECT_EQ(parsed.num_days, original.num_days);
  EXPECT_EQ(parsed.app_names, original.app_names);
  EXPECT_EQ(parsed.sessions, original.sessions);
  EXPECT_EQ(parsed.usages, original.usages);
  EXPECT_EQ(parsed.activities, original.activities);
}

TEST(TraceIo, ParserResortsRecords) {
  // Records in arbitrary order parse into sorted vectors.
  std::stringstream ss;
  ss << "user,1,days,1\n"
     << "app,0,a\n"
     << "screen,1000,2000\n"
     << "screen,100,500\n"
     << "usage,0,1500,10\n"
     << "usage,0,200,10\n"
     << "net,0,1200,50,1,1,0,1\n"
     << "net,0,300,50,1,1,1,0\n";
  const UserTrace t = read_trace(ss);
  EXPECT_EQ(t.sessions[0].begin, 100);
  EXPECT_EQ(t.usages[0].time, 200);
  EXPECT_EQ(t.activities[0].start, 300);
}

TEST(TraceIo, CommentsAndBlankLinesIgnored) {
  std::stringstream ss;
  ss << "# a comment\n\n"
     << "user,1,days,1\n"
     << "# another\n"
     << "app,0,a\n\n";
  EXPECT_NO_THROW(read_trace(ss));
}

TEST(TraceIo, MissingHeaderThrows) {
  std::stringstream ss;
  ss << "app,0,a\nscreen,0,10\n";
  EXPECT_THROW(read_trace(ss), TraceParseError);
}

TEST(TraceIo, UnknownRecordKindThrows) {
  std::stringstream ss;
  ss << "user,1,days,1\nbogus,1,2\n";
  EXPECT_THROW(read_trace(ss), TraceParseError);
}

TEST(TraceIo, WrongFieldCountThrows) {
  std::stringstream ss;
  ss << "user,1,days,1\nscreen,100\n";
  EXPECT_THROW(read_trace(ss), TraceParseError);
}

TEST(TraceIo, NonIntegerFieldThrows) {
  std::stringstream ss;
  ss << "user,1,days,1\nscreen,abc,200\n";
  EXPECT_THROW(read_trace(ss), TraceParseError);
}

TEST(TraceIo, EmptyIntegerFieldThrows) {
  std::stringstream ss;
  ss << "user,1,days,1\nscreen,,200\n";
  EXPECT_THROW(read_trace(ss), TraceParseError);
}

TEST(TraceIo, TrailingGarbageAfterIntegerThrows) {
  // from_chars stops at the first non-digit; the parser must reject
  // the remainder instead of silently truncating "100abc" to 100.
  for (const char* line : {"screen,100abc,200", "screen,100,200 ",
                           "screen,100,2e2", "screen,0x10,200"}) {
    std::stringstream ss;
    ss << "user,1,days,1\n" << line << '\n';
    EXPECT_THROW(read_trace(ss), TraceParseError) << line;
  }
}

TEST(TraceIo, OutOfRangeIntegerThrows) {
  // Values past int64 range must fail parsing, not wrap or saturate
  // into a default-initialized value.
  std::stringstream ss;
  ss << "user,1,days,1\nscreen,99999999999999999999999,200\n";
  EXPECT_THROW(read_trace(ss), TraceParseError);
  std::stringstream header;
  header << "user,99999999999999999999999,days,1\n";
  EXPECT_THROW(read_trace(header), TraceParseError);
}

// A day count outside [1, kMaxTraceDays] is rejected while parsing the
// header — before it is narrowed to int or sizes anything downstream.
// (A three-line CSV claiming 900M days used to end in std::bad_alloc
// once mining sized its hour buckets.)
TEST(TraceIoBounds, HeaderDaysOutsideMaxTraceDaysThrow) {
  for (const char* days :
       {"0", "-1", "3651", "900000000", "4294967297", "9223372036854775807"}) {
    std::stringstream ss;
    ss << "user,1,days," << days << "\napp,0,mail\n";
    EXPECT_THROW(read_trace(ss), TraceParseError) << days;
  }
  std::stringstream ok;
  ok << "user,1,days," << kMaxTraceDays << "\napp,0,mail\n";
  EXPECT_EQ(read_trace(ok).num_days, kMaxTraceDays);
}

TEST(TraceIo, WhitespacePaddedIntegerThrows) {
  std::stringstream ss;
  ss << "user,1,days,1\nscreen, 100,200\n";
  EXPECT_THROW(read_trace(ss), TraceParseError);
}

TEST(TraceIo, NonDenseAppIdsThrow) {
  std::stringstream ss;
  ss << "user,1,days,1\napp,1,beta\n";
  EXPECT_THROW(read_trace(ss), TraceParseError);
}

TEST(TraceIo, BadBooleanFlagThrows) {
  std::stringstream ss;
  ss << "user,1,days,1\napp,0,a\nnet,0,100,50,1,1,2,0\n";
  EXPECT_THROW(read_trace(ss), TraceParseError);
}

TEST(TraceIo, MalformedHeaderThrows) {
  std::stringstream ss;
  ss << "user,1,weeks,1\n";
  EXPECT_THROW(read_trace(ss), TraceParseError);
}

TEST(TraceIo, ParsedTraceStillValidated) {
  // Structurally fine CSV whose content violates model invariants
  // (activity outside the declared day span).
  std::stringstream ss;
  ss << "user,1,days,1\napp,0,a\n"
     << "net,0," << 2 * kMsPerDay << ",50,1,1,0,1\n";
  EXPECT_THROW(read_trace(ss), Error);
}

TEST(TraceIo, CommaInAppNameRejectedOnWrite) {
  UserTrace t = sample_trace();
  t.app_names[0] = "bad,name";
  std::stringstream ss;
  EXPECT_THROW(write_trace(ss, t), Error);
}

TEST(TraceIo, FileSaveLoadRoundTrip) {
  const UserTrace original = sample_trace();
  const std::string path = testing::TempDir() + "/nm_trace_test.csv";
  save_trace(path, original);
  const UserTrace loaded = load_trace(path);
  EXPECT_EQ(loaded.activities, original.activities);
  EXPECT_EQ(loaded.sessions, original.sessions);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/dir/trace.csv"), Error);
}

}  // namespace
}  // namespace netmaster

// Structure-of-arrays trace columns over arena storage.
//
// The AoS `UserTrace` stays the ingest/serialization model (CSV
// parser, synth generator, fault injector), but the *resident* replay
// form of a fleet user is columnar: every field of its sessions, app
// usages and network activities lives in its own contiguous arena
// array. The replay hot paths (session binary searches, deferrable
// scans, RRC accounting) walk exactly the columns they need instead of
// striding over 48-byte AoS records, and the whole per-user set is a
// handful of arena slices rather than one heap node per vector.
//
// Each column view also offers AoS-compatible access — `operator[]`
// materialises the original record value, and proxy iterators make
// range-for and cursor loops read like the vector code they replaced —
// so policy code ports with minimal churn while the storage underneath
// is columnar. Views are cheap value types (spans); the arena that
// backs them must outlive every reader (see arena.hpp ownership rules).
#pragma once

#include <cstdint>
#include <span>

#include "mem/arena.hpp"
#include "trace/trace.hpp"

namespace netmaster::mem {

/// Random-access proxy iterator over a column view: dereferences to a
/// materialised record value. `View` provides value_type operator[].
template <typename View>
class SoaIterator {
 public:
  using value_type = typename View::value_type;
  using difference_type = std::ptrdiff_t;

  SoaIterator() = default;
  SoaIterator(const View* view, std::size_t i) : view_(view), i_(i) {}

  value_type operator*() const { return (*view_)[i_]; }

  /// Arrow support for cursor-style loops (`it->begin`): the proxy
  /// holds the materialised record for the duration of the access.
  struct ArrowProxy {
    value_type value;
    const value_type* operator->() const { return &value; }
  };
  ArrowProxy operator->() const { return ArrowProxy{(*view_)[i_]}; }

  SoaIterator& operator++() { ++i_; return *this; }
  SoaIterator operator++(int) { SoaIterator t = *this; ++i_; return t; }
  SoaIterator& operator--() { --i_; return *this; }
  SoaIterator& operator+=(difference_type d) { i_ += d; return *this; }
  friend SoaIterator operator+(SoaIterator it, difference_type d) {
    it += d;
    return it;
  }
  friend difference_type operator-(const SoaIterator& a,
                                   const SoaIterator& b) {
    return static_cast<difference_type>(a.i_) -
           static_cast<difference_type>(b.i_);
  }
  value_type operator[](difference_type d) const { return (*view_)[i_ + d]; }

  friend bool operator==(const SoaIterator& a, const SoaIterator& b) {
    return a.i_ == b.i_;
  }
  friend auto operator<=>(const SoaIterator& a, const SoaIterator& b) {
    return a.i_ <=> b.i_;
  }

  std::size_t index() const { return i_; }

 private:
  const View* view_ = nullptr;
  std::size_t i_ = 0;
};

/// Screen sessions as two sorted time columns.
class SessionColumns {
 public:
  using value_type = ScreenSession;
  using const_iterator = SoaIterator<SessionColumns>;

  SessionColumns() = default;

  static SessionColumns build(std::span<const ScreenSession> sessions,
                              Arena& arena);

  std::size_t size() const { return begins_.size(); }
  bool empty() const { return begins_.empty(); }

  ScreenSession operator[](std::size_t i) const {
    return {begins_[i], ends_[i]};
  }
  TimeMs begin_at(std::size_t i) const { return begins_[i]; }
  TimeMs end_at(std::size_t i) const { return ends_[i]; }

  /// Raw columns for binary searches and vectorised accounting.
  std::span<const TimeMs> begins() const { return begins_; }
  std::span<const TimeMs> ends() const { return ends_; }

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

 private:
  std::span<const TimeMs> begins_;
  std::span<const TimeMs> ends_;
};

/// Foreground app interactions, columnar.
class UsageColumns {
 public:
  using value_type = AppUsage;
  using const_iterator = SoaIterator<UsageColumns>;

  UsageColumns() = default;

  static UsageColumns build(std::span<const AppUsage> usages, Arena& arena);

  std::size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }

  AppUsage operator[](std::size_t i) const {
    return {apps_[i], times_[i], durations_[i]};
  }

  std::span<const AppId> apps() const { return apps_; }
  std::span<const TimeMs> times() const { return times_; }
  std::span<const DurationMs> durations() const { return durations_; }

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

 private:
  std::span<const AppId> apps_;
  std::span<const TimeMs> times_;
  std::span<const DurationMs> durations_;
};

/// Network activities, columnar; the two booleans are packed bit sets.
class ActivityColumns {
 public:
  using value_type = NetworkActivity;
  using const_iterator = SoaIterator<ActivityColumns>;

  ActivityColumns() = default;

  static ActivityColumns build(std::span<const NetworkActivity> activities,
                               Arena& arena);

  std::size_t size() const { return starts_.size(); }
  bool empty() const { return starts_.empty(); }

  NetworkActivity operator[](std::size_t i) const {
    return {apps_[i],          starts_[i],
            durations_[i],     bytes_down_[i],
            bytes_up_[i],      user_initiated_.test(i),
            deferrable_.test(i)};
  }
  TimeMs start_at(std::size_t i) const { return starts_[i]; }
  DurationMs duration_at(std::size_t i) const { return durations_[i]; }

  std::span<const AppId> apps() const { return apps_; }
  std::span<const TimeMs> starts() const { return starts_; }
  std::span<const DurationMs> durations() const { return durations_; }
  std::span<const std::int64_t> bytes_down() const { return bytes_down_; }
  std::span<const std::int64_t> bytes_up() const { return bytes_up_; }

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

 private:
  std::span<const AppId> apps_;
  std::span<const TimeMs> starts_;
  std::span<const DurationMs> durations_;
  std::span<const std::int64_t> bytes_down_;
  std::span<const std::int64_t> bytes_up_;
  BitSpan user_initiated_;
  BitSpan deferrable_;
};

/// The columnar form of one UserTrace's records, built into one arena
/// (the app-name table stays with the AoS trace: replay never reads it).
struct TraceColumns {
  UserId user = 0;
  int num_days = 0;
  SessionColumns sessions;
  UsageColumns usages;
  ActivityColumns activities;

  static TraceColumns build(const UserTrace& trace, Arena& arena);
};

}  // namespace netmaster::mem

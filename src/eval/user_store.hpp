// UserStore — the fleet's bounded trace cache.
//
// A million-user fleet cannot keep every volunteer's traces resident:
// a user's training and evaluation traces outweigh the replay index,
// which copies only the evaluation records. The store owns every
// user's train/eval trace pair and keeps at most `cache_cap_bytes` of
// them hydrated; the rest live as compact UserBlob files in a spill
// directory and are rehydrated on demand. Serialization is lossless
// (all-integer columns, CRC-guarded), so results are bit-for-bit
// identical no matter which users happen to be resident when.
//
// Admission takes the traces the caller built, spills them by
// encoding the pair in place (no copy), and hands them back as a Pin:
// EvalSession prepares each user from that Pin on the worker that
// admitted it, so setting a fleet up decodes no blob.
//
// Concurrency: admit() and pin() are thread-safe. A Pin holds a
// shared_ptr to the hydration, so a concurrent eviction never frees
// memory out from under a reader — eviction just drops the store's
// strong reference. Nothing else points into a hydration: the replay
// index and the accountant read the index's own records, so a reader
// that does not need the traces never pins. Two concurrent pins of
// the same cold user both decode its blob and one copy is dropped;
// pin() does not single-flight. Callers avoid the duplicate decode by
// pinning once per unit of work: run_fleet pins a row on the first read
// of its training trace (single-flight per row) and shares that Pin
// with the row's other cells, so a row whose cells never read the
// traces is never rehydrated.
//
// With cache_cap_bytes == 0 (the default) the store is a plain
// in-memory table: nothing is written to disk and nothing is ever
// evicted, preserving the classic all-resident behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace netmaster::eval {

/// Train/eval split of one synthetic volunteer.
struct VolunteerTraces {
  UserTrace training;
  UserTrace eval;
};

struct UserStoreConfig {
  /// Target resident-set size for hydrated traces. 0 disables spilling
  /// entirely (everything stays in memory, nothing touches disk). The
  /// cap is honoured modulo pinned users: a Pin keeps its hydration
  /// alive regardless.
  std::size_t cache_cap_bytes = 0;
  /// Where blobs go. Empty = a unique directory under the system temp
  /// dir, created lazily and removed by the destructor.
  std::string spill_dir;
};

class UserStore {
 public:
  explicit UserStore(UserStoreConfig config = {});
  ~UserStore();
  UserStore(const UserStore&) = delete;
  UserStore& operator=(const UserStore&) = delete;

  /// Shared-ownership view of one user's hydrated traces. Holding the
  /// Pin keeps the hydration alive across evictions.
  class Pin {
   public:
    Pin() = default;

    const VolunteerTraces& get() const { return *hydration_; }
    operator const VolunteerTraces&() const { return get(); }
    const UserTrace& training() const { return get().training; }
    const UserTrace& eval() const { return get().eval; }

   private:
    friend class UserStore;
    explicit Pin(std::shared_ptr<const VolunteerTraces> h)
        : hydration_(std::move(h)) {}
    std::shared_ptr<const VolunteerTraces> hydration_;
  };

  /// Grows the table to `n` slots (slot == EvalSession user index).
  void resize(std::size_t n);

  /// Installs slot `slot`'s traces and returns a Pin on the hydration
  /// it installed, so the caller can keep reading the traces it handed
  /// over without a decode. With spilling enabled the blob is encoded
  /// from the pair in place and written immediately (evictions later
  /// are a pure drop), then the cache is trimmed back under the cap;
  /// the returned Pin keeps the traces alive even if that trim, or a
  /// later one, drops the store's reference. Thread-safe across
  /// distinct slots; admitting the same slot twice is an error. A
  /// failed spill write throws and leaves the slot unadmitted.
  Pin admit(std::size_t slot, VolunteerTraces traces);

  /// Drops every spilled hydration the store still holds, counted as
  /// evictions; outstanding Pins keep theirs alive. Slots that never
  /// spilled (cap 0) stay resident.
  void evict_all();

  /// Hydrated traces for `slot`, rehydrating from the spill file when
  /// the user is cold. Touches the LRU clock and trims the cache.
  Pin pin(std::size_t slot) const;

  std::size_t size() const;
  /// Estimated heap bytes of the currently hydrated traces.
  std::size_t resident_bytes() const;
  std::size_t resident_count() const;
  std::uint64_t evictions() const;
  bool spill_enabled() const { return config_.cache_cap_bytes > 0; }
  /// Empty until the first spill write when auto-created.
  std::filesystem::path spill_dir() const;

 private:
  struct Entry {
    std::shared_ptr<const VolunteerTraces> resident;
    std::filesystem::path blob;  ///< empty = never spilled
    std::size_t bytes = 0;       ///< footprint estimate of the pair
    std::uint64_t last_touch = 0;
  };

  /// Requires mutex_ held. Drops least-recently-used hydrations (never
  /// slot `protect`) until the resident set fits the cap.
  void evict_over_cap(std::size_t protect) const;
  /// Requires mutex_ held; drops one spilled entry's hydration.
  void evict(Entry& entry) const;
  std::filesystem::path blob_path(std::size_t slot) const;
  /// Requires mutex_ held; creates the auto spill dir on first use.
  void ensure_spill_dir() const;

  UserStoreConfig config_;
  mutable std::mutex mutex_;
  mutable std::vector<Entry> entries_;
  mutable std::filesystem::path spill_dir_;  ///< resolved on first write
  mutable bool owns_spill_dir_ = false;
  mutable std::uint64_t clock_ = 0;
  mutable std::size_t resident_bytes_ = 0;
  mutable std::uint64_t evictions_ = 0;
};

}  // namespace netmaster::eval

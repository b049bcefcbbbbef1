#include "eval/user_store.hpp"

#include <chrono>
#include <random>
#include <utility>

#include "common/error.hpp"
#include "mem/blob.hpp"
#include "obs/metrics.hpp"

namespace netmaster::eval {

namespace {

/// Spill-path telemetry, resolved once per process.
struct StoreMetrics {
  obs::Counter& evictions;
  obs::Counter& rehydrations;
  obs::Counter& spilled_bytes;
  obs::Histogram& rehydrate_ns;

  static StoreMetrics& get() {
    obs::Registry& reg = obs::Registry::global();
    static StoreMetrics m{
        reg.counter("store.evictions"),
        reg.counter("store.rehydrations"),
        reg.counter("store.spilled_bytes"),
        reg.histogram("store.rehydrate_ns",
                      {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}),
    };
    return m;
  }
};

std::size_t pair_footprint(const VolunteerTraces& traces) {
  return mem::trace_footprint_bytes(traces.training) +
         mem::trace_footprint_bytes(traces.eval);
}

}  // namespace

UserStore::UserStore(UserStoreConfig config) : config_(std::move(config)) {}

UserStore::~UserStore() {
  std::error_code ec;  // best-effort cleanup; never throw from a dtor
  if (owns_spill_dir_) {
    std::filesystem::remove_all(spill_dir_, ec);
    return;
  }
  // Caller-provided directory: remove only the files this store wrote.
  for (const Entry& entry : entries_) {
    if (!entry.blob.empty()) std::filesystem::remove(entry.blob, ec);
  }
}

void UserStore::resize(std::size_t n) {
  const std::lock_guard<std::mutex> lock(mutex_);
  NM_REQUIRE(n >= entries_.size(), "UserStore::resize cannot shrink");
  entries_.resize(n);
}

UserStore::Pin UserStore::admit(std::size_t slot, VolunteerTraces traces) {
  const std::size_t bytes = pair_footprint(traces);
  auto hydration = std::make_shared<const VolunteerTraces>(std::move(traces));

  // Spill first, outside the lock: once the blob is on disk an
  // eviction is a pure drop of the strong reference.
  std::filesystem::path blob;
  if (spill_enabled()) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      NM_REQUIRE(slot < entries_.size(), "UserStore slot out of range");
      ensure_spill_dir();
    }
    blob = blob_path(slot);
    const UserTrace* const pair[] = {&hydration->training, &hydration->eval};
    mem::UserBlob::write_file(blob.string(), pair);
    StoreMetrics::get().spilled_bytes.add(
        std::filesystem::file_size(blob));
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  NM_REQUIRE(slot < entries_.size(), "UserStore slot out of range");
  Entry& entry = entries_[slot];
  NM_REQUIRE(entry.resident == nullptr && entry.blob.empty(),
             "UserStore slot admitted twice");
  entry.resident = hydration;
  entry.blob = std::move(blob);
  entry.bytes = bytes;
  entry.last_touch = ++clock_;
  resident_bytes_ += bytes;
  evict_over_cap(slot);
  return Pin(std::move(hydration));
}

UserStore::Pin UserStore::pin(std::size_t slot) const {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    NM_REQUIRE(slot < entries_.size(), "UserStore slot out of range");
    Entry& entry = entries_[slot];
    if (entry.resident != nullptr) {
      entry.last_touch = ++clock_;
      return Pin(entry.resident);
    }
    NM_REQUIRE(!entry.blob.empty(),
               "UserStore::pin on a slot that was never admitted");
  }

  // Cold: rehydrate outside the lock (decode is the expensive part),
  // then install unless a racing pin beat us to it.
  const std::filesystem::path blob = [&] {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_[slot].blob;
  }();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<UserTrace> traces = mem::UserBlob::read_file(blob.string());
  NM_REQUIRE(traces.size() == 2,
             "UserStore blob must hold exactly the train/eval pair");
  const auto t1 = std::chrono::steady_clock::now();
  StoreMetrics& metrics = StoreMetrics::get();
  metrics.rehydrations.add(1);
  metrics.rehydrate_ns.add(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
          .count()));

  auto hydration = std::make_shared<const VolunteerTraces>(
      VolunteerTraces{std::move(traces[0]), std::move(traces[1])});

  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[slot];
  if (entry.resident == nullptr) {
    entry.resident = std::move(hydration);
    resident_bytes_ += entry.bytes;
    entry.last_touch = ++clock_;
    evict_over_cap(slot);
  } else {
    entry.last_touch = ++clock_;
  }
  return Pin(entry.resident);
}

void UserStore::evict_all() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_) {
    if (entry.resident != nullptr && !entry.blob.empty()) evict(entry);
  }
}

std::size_t UserStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t UserStore::resident_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

std::size_t UserStore::resident_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Entry& entry : entries_) {
    if (entry.resident != nullptr) ++n;
  }
  return n;
}

std::uint64_t UserStore::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::filesystem::path UserStore::spill_dir() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spill_dir_;
}

void UserStore::evict_over_cap(std::size_t protect) const {
  while (resident_bytes_ > config_.cache_cap_bytes) {
    Entry* victim = nullptr;
    for (Entry& entry : entries_) {
      if (entry.resident == nullptr || entry.blob.empty()) continue;
      if (&entry == &entries_[protect]) continue;
      if (victim == nullptr || entry.last_touch < victim->last_touch) {
        victim = &entry;
      }
    }
    if (victim == nullptr) break;  // only the protected slot is left
    evict(*victim);
  }
}

void UserStore::evict(Entry& entry) const {
  // Drop the store's reference; any outstanding Pin still keeps the
  // bytes alive.
  entry.resident.reset();
  resident_bytes_ -= entry.bytes;
  ++evictions_;
  StoreMetrics::get().evictions.add(1);
}

std::filesystem::path UserStore::blob_path(std::size_t slot) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spill_dir_ / ("user_" + std::to_string(slot) + ".nmub");
}

void UserStore::ensure_spill_dir() const {
  if (!spill_dir_.empty()) return;
  // spill_dir_ is set only once the directory exists, so a directory
  // that cannot be created fails every admission with the same error.
  if (!config_.spill_dir.empty()) {
    std::filesystem::create_directories(config_.spill_dir);
    spill_dir_ = config_.spill_dir;
    return;
  }
  // Unique auto directory: pid + random suffix avoids collisions with
  // concurrent processes sharing the temp root.
  std::random_device rd;
  const auto tag = static_cast<unsigned long>(rd()) ^
                   (static_cast<unsigned long>(rd()) << 16);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("netmaster_store_" + std::to_string(tag));
  std::filesystem::create_directories(dir);
  spill_dir_ = dir;
  owns_spill_dir_ = true;
}

}  // namespace netmaster::eval

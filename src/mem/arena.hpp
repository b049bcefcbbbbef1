// Per-user bump arena — the memory substrate of the fleet.
//
// A fleet slot's whole derived working set (SoA trace columns, index
// classification bits, mining buckets) lives in ONE Arena: a chunked
// bump allocator that hands out aligned slices of a few large blocks
// instead of one malloc per vector. That turns a per-user constellation
// of node-heavy heap objects into a handful of contiguous allocations —
// cheap to build, cache-friendly to replay, and freed wholesale when
// the user leaves the fleet.
//
// Ownership rules (see DESIGN.md "Memory architecture"):
//   - An Arena is single-owner and NOT thread-safe: exactly one
//     worker task builds into a given arena (the fleet builds
//     one arena per user inside the per-user preparation task). After
//     preparation the arena is immutable and may be read by any number
//     of workers concurrently.
//   - Arena memory holds trivially-copyable/destructible data only; no
//     destructors run on reset().
//   - reset() and destruction bump the arena's generation, invalidating
//     every span handed out before. The owner of the arena (one fleet
//     user's engine::TraceIndex) outlives every reader of its spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace netmaster::mem {

/// Chunked bump allocator. Allocations are aligned, never individually
/// freed, and remain valid until reset() or destruction.
class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);
  ~Arena();

  Arena(Arena&&) noexcept;
  Arena& operator=(Arena&&) noexcept;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw aligned allocation. `align` must be a power of two. Requests
  /// larger than the chunk size get a dedicated chunk.
  void* allocate(std::size_t bytes, std::size_t align);

  /// Allocates an uninitialised array of `n` Ts. T must be trivially
  /// copyable and destructible (arena memory is released wholesale).
  template <typename T>
  std::span<T> alloc_array(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "arena arrays must be trivial — no destructors run");
    if (n == 0) return {};
    T* p = static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    return {p, n};
  }

  /// Allocates and zero-fills an array of `n` Ts.
  template <typename T>
  std::span<T> alloc_zeroed(std::size_t n) {
    std::span<T> out = alloc_array<T>(n);
    for (T& v : out) v = T{};
    return out;
  }

  /// Copies `src` into the arena and returns the immutable view.
  template <typename T>
  std::span<const T> copy_array(std::span<const T> src) {
    std::span<T> out = alloc_array<T>(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) out[i] = src[i];
    return out;
  }

  /// Bytes handed out to callers (after alignment padding).
  std::size_t bytes_used() const { return used_; }
  /// Bytes reserved from the system (>= bytes_used()).
  std::size_t bytes_reserved() const { return reserved_; }
  /// Number of system allocations backing the arena.
  std::size_t chunk_count() const { return chunks_.size(); }

  /// Frees every chunk and bumps the generation: all spans handed out
  /// so far are invalid from here on.
  void reset();

  /// Monotonic counter bumped by reset() (and move-from). A consumer
  /// that snapshots generation() can later detect a recycled arena.
  std::uint64_t generation() const { return generation_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  Chunk& grow(std::size_t min_bytes);

  std::vector<Chunk> chunks_;
  std::size_t chunk_bytes_;
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
  std::uint64_t generation_ = 0;
};

/// Immutable bit set over arena words — the compact form of the old
/// per-index `std::vector<bool>` classification flags.
class BitSpan {
 public:
  BitSpan() = default;

  /// Builds a zeroed bit set of `n` bits in `arena`. Bits are set
  /// through the returned mutable word span before freezing.
  static std::pair<BitSpan, std::span<std::uint64_t>> build(
      std::size_t n, Arena& arena) {
    std::span<std::uint64_t> words =
        arena.alloc_zeroed<std::uint64_t>((n + 63) / 64);
    BitSpan bits;
    bits.words_ = words;
    bits.size_ = n;
    return {bits, words};
  }

  static void set(std::span<std::uint64_t> words, std::size_t i) {
    words[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  std::size_t size() const { return size_; }

 private:
  std::span<const std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace netmaster::mem

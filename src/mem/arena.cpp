#include "mem/arena.hpp"

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace netmaster::mem {

namespace {

/// Cumulative bytes reserved by all arenas — the fleet's memory
/// trajectory, exported with every bench JSON.
obs::Counter& arena_bytes_counter() {
  static obs::Counter& c = obs::Registry::global().counter("mem.arena.bytes");
  return c;
}

obs::Counter& arena_chunks_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("mem.arena.chunks");
  return c;
}

}  // namespace

Arena::Arena(std::size_t chunk_bytes) : chunk_bytes_(chunk_bytes) {
  NM_REQUIRE(chunk_bytes > 0, "arena chunk size must be positive");
}

Arena::~Arena() { ++generation_; }

Arena::Arena(Arena&& other) noexcept
    : chunks_(std::move(other.chunks_)),
      chunk_bytes_(other.chunk_bytes_),
      used_(other.used_),
      reserved_(other.reserved_),
      generation_(other.generation_) {
  other.chunks_.clear();
  other.used_ = 0;
  other.reserved_ = 0;
  ++other.generation_;
}

Arena& Arena::operator=(Arena&& other) noexcept {
  if (this != &other) {
    chunks_ = std::move(other.chunks_);
    chunk_bytes_ = other.chunk_bytes_;
    used_ = other.used_;
    reserved_ = other.reserved_;
    ++generation_;
    other.chunks_.clear();
    other.used_ = 0;
    other.reserved_ = 0;
    ++other.generation_;
  }
  return *this;
}

Arena::Chunk& Arena::grow(std::size_t min_bytes) {
  const std::size_t size = std::max(min_bytes, chunk_bytes_);
  Chunk chunk;
  chunk.data = std::make_unique<std::byte[]>(size);
  chunk.size = size;
  reserved_ += size;
  arena_bytes_counter().add(size);
  arena_chunks_counter().add(1);
  chunks_.push_back(std::move(chunk));
  return chunks_.back();
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  NM_REQUIRE(align != 0 && (align & (align - 1)) == 0,
             "arena alignment must be a power of two");
  if (bytes == 0) bytes = 1;  // distinct non-null result, keeps spans sane

  Chunk* chunk = chunks_.empty() ? nullptr : &chunks_.back();
  std::size_t offset = 0;
  if (chunk != nullptr) {
    offset = (chunk->used + align - 1) & ~(align - 1);
    if (offset + bytes > chunk->size) chunk = nullptr;
  }
  if (chunk == nullptr) {
    // Fresh chunks come from make_unique and are maximally aligned for
    // fundamental types; `bytes + align` leaves room for repositioning
    // should a caller ever demand an extended alignment.
    chunk = &grow(bytes + align);
    offset = 0;
    void* base = chunk->data.get();
    const auto addr = reinterpret_cast<std::uintptr_t>(base);
    offset = ((addr + align - 1) & ~(std::uintptr_t{align} - 1)) - addr;
  }
  void* out = chunk->data.get() + offset;
  chunk->used = offset + bytes;
  used_ += bytes;
  return out;
}

void Arena::reset() {
  chunks_.clear();
  used_ = 0;
  reserved_ = 0;
  ++generation_;
}

}  // namespace netmaster::mem

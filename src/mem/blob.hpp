// UserBlob — the compact, evictable serialized form of a user's traces.
//
// One blob is a flat, versioned, CRC-guarded byte image of one or more
// UserTraces in columnar order: a fixed header, then per trace a
// section header plus 8-byte-aligned field arrays, one per record
// field. Every integer field is stored exactly, so
// decode(encode(t)) == t bit for bit — the property that lets the
// fleet spill cold users to disk and rehydrate them without perturbing
// a single scheduled transfer. Traces are stored as-is: a blob does
// not validate() its payload, so even invariant-violating edge traces
// survive the round trip (the consumers that care re-validate).
//
// Encoding reads the traces in place (the pointer-span overloads take
// them from wherever the caller holds them) into one image allocated
// once at an upper bound of its size; the bytes do not depend on which
// overload wrote them.
//
// The layout is mmap-friendly: all array offsets are 8-aligned, so
// read_file() maps the file and decodes straight out of the mapping
// (falling back to a buffered read where mmap is unavailable).
// Corruption — truncation, bit flips, bad magic/version/CRC, counts
// that overrun the payload — is rejected with BlobError, never UB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "trace/trace.hpp"

namespace netmaster::mem {

/// Raised on any malformed or corrupted blob image.
class BlobError : public Error {
 public:
  using Error::Error;
};

/// Current blob format version (bump on any layout change).
inline constexpr std::uint32_t kBlobVersion = 1;

class UserBlob {
 public:
  /// Serializes the traces into one flat blob image.
  static std::vector<std::byte> encode(std::span<const UserTrace> traces);
  /// The same image from references to the traces, in order: a caller
  /// that holds them elsewhere (the UserStore's train/eval pair)
  /// encodes without copying them into a contiguous array first.
  static std::vector<std::byte> encode(
      std::span<const UserTrace* const> traces);

  /// Parses a blob image back into traces. Throws BlobError on any
  /// corruption; never reads outside `bytes`.
  static std::vector<UserTrace> decode(std::span<const std::byte> bytes);

  /// Writes encode(traces) to `path` (atomically via a temp file +
  /// rename so readers never observe a half-written blob). Throws
  /// netmaster::Error on I/O failure.
  static void write_file(const std::string& path,
                         std::span<const UserTrace> traces);
  static void write_file(const std::string& path,
                         std::span<const UserTrace* const> traces);

  /// Reads and decodes a blob file, via mmap when the platform has it.
  static std::vector<UserTrace> read_file(const std::string& path);
};

/// CRC-32 (IEEE 802.3, reflected) of a byte range — the blob payload
/// checksum, exposed for tests that craft corrupted images.
std::uint32_t crc32(std::span<const std::byte> bytes);

/// Approximate heap footprint of an AoS trace: vector capacities plus
/// string storage. This is the "before" scalar of the memory refactor
/// and the unit the UserStore budgets its cache cap in.
std::size_t trace_footprint_bytes(const UserTrace& trace);

}  // namespace netmaster::mem

#include "mem/blob.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#define NM_BLOB_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace netmaster::mem {

namespace {

constexpr std::uint32_t kBlobMagic = 0x42554D4E;     // "NMUB"
constexpr std::uint32_t kSectionMagic = 0x52544D4E;  // "NMTR"
constexpr std::size_t kHeaderBytes = 24;
/// Smallest encoded trace section: four 32-bit and four 64-bit header
/// fields (48 bytes), one name offset, padded to the next 8-byte boundary.
constexpr std::size_t kMinSectionBytes = 56;
constexpr std::uint8_t kFlagUserInitiated = 1;
constexpr std::uint8_t kFlagDeferrable = 2;

/// Slicing-by-8 tables: row 0 is the classic bytewise CRC-32 table;
/// row k advances a byte's contribution through k more zero bytes, so
/// one step folds eight input bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

/// Little-endian append cursor keeping every array 8-byte aligned.
class Writer {
 public:
  explicit Writer(std::vector<std::byte>& out) : out_(out) {}

  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(T));
    std::memcpy(out_.data() + at, &v, sizeof(T));
  }

  void align8() {
    while (out_.size() % 8 != 0) out_.push_back(std::byte{0});
  }

  template <typename T>
  void put_array(const T* data, std::size_t n) {
    align8();
    const std::size_t at = out_.size();
    out_.resize(at + n * sizeof(T));
    if (n > 0) std::memcpy(out_.data() + at, data, n * sizeof(T));
  }

  /// Appends the n-element column field(0), ..., field(n - 1) as T,
  /// gathered straight into the image.
  template <typename T, typename Field>
  void put_column(std::size_t n, Field&& field) {
    align8();
    const std::size_t at = out_.size();
    out_.resize(at + n * sizeof(T));
    std::byte* p = out_.data() + at;
    for (std::size_t i = 0; i < n; ++i, p += sizeof(T)) {
      const T v = static_cast<T>(field(i));
      std::memcpy(p, &v, sizeof(T));
    }
  }

 private:
  std::vector<std::byte>& out_;
};

/// Bounds-checked little-endian read cursor. Every take throws
/// BlobError on overrun instead of reading past the image.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    T v;
    // memcpy tolerates any alignment; only get_array's in-place
    // reinterpret views need the real thing.
    std::memcpy(&v, take(sizeof(T), 1), sizeof(T));
    return v;
  }

  template <typename T>
  const T* get_array(std::size_t n) {
    align8();
    // Overflow-safe: bound the element count before multiplying.
    NM_BLOB_CHECK(n <= remaining() / sizeof(T),
                  "array overruns the blob payload");
    return reinterpret_cast<const T*>(take(n * sizeof(T), alignof(T)));
  }

  void align8() {
    const std::size_t misalign = at_ % 8;
    if (misalign != 0) take(8 - misalign, 1);
  }

  std::size_t remaining() const { return bytes_.size() - at_; }
  bool done() const { return at_ == bytes_.size(); }

 private:
  const std::byte* take(std::size_t n, std::size_t align) {
    NM_BLOB_CHECK(n <= remaining(), "blob truncated");
    const std::byte* p = bytes_.data() + at_;
    NM_BLOB_CHECK(reinterpret_cast<std::uintptr_t>(p) % align == 0,
                  "blob field misaligned");
    at_ += n;
    return p;
  }

  static void NM_BLOB_CHECK(bool ok, const char* what) {
    if (!ok) throw BlobError(std::string("blob: ") + what);
  }

  std::span<const std::byte> bytes_;
  std::size_t at_ = 0;
};

[[noreturn]] void fail(const std::string& what) {
  throw BlobError("blob: " + what);
}

void encode_trace(Writer& w, const UserTrace& trace) {
  w.align8();
  w.put<std::uint32_t>(kSectionMagic);
  w.put<std::int32_t>(trace.user);
  w.put<std::int32_t>(trace.num_days);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(trace.app_names.size()));
  w.put<std::uint64_t>(trace.sessions.size());
  w.put<std::uint64_t>(trace.usages.size());
  w.put<std::uint64_t>(trace.activities.size());
  std::uint64_t names_bytes = 0;
  for (const std::string& name : trace.app_names) {
    names_bytes += name.size();
  }
  w.put<std::uint64_t>(names_bytes);

  std::vector<std::uint32_t> offsets;
  offsets.reserve(trace.app_names.size() + 1);
  std::vector<char> chars;
  chars.reserve(static_cast<std::size_t>(names_bytes));
  for (const std::string& name : trace.app_names) {
    offsets.push_back(static_cast<std::uint32_t>(chars.size()));
    chars.insert(chars.end(), name.begin(), name.end());
  }
  offsets.push_back(static_cast<std::uint32_t>(chars.size()));
  w.put_array(offsets.data(), offsets.size());
  w.put_array(chars.data(), chars.size());

  const std::size_t ns = trace.sessions.size();
  const std::size_t nu = trace.usages.size();
  const std::size_t na = trace.activities.size();
  const auto& sess = trace.sessions;
  const auto& use = trace.usages;
  const auto& act = trace.activities;

  w.put_column<std::int64_t>(ns, [&](auto i) { return sess[i].begin; });
  w.put_column<std::int64_t>(ns, [&](auto i) { return sess[i].end; });

  w.put_column<std::int32_t>(nu, [&](auto i) { return use[i].app; });
  w.put_column<std::int64_t>(nu, [&](auto i) { return use[i].time; });
  w.put_column<std::int64_t>(nu, [&](auto i) { return use[i].duration; });

  w.put_column<std::int32_t>(na, [&](auto i) { return act[i].app; });
  w.put_column<std::int64_t>(na, [&](auto i) { return act[i].start; });
  w.put_column<std::int64_t>(na, [&](auto i) { return act[i].duration; });
  w.put_column<std::int64_t>(na, [&](auto i) { return act[i].bytes_down; });
  w.put_column<std::int64_t>(na, [&](auto i) { return act[i].bytes_up; });
  w.put_column<std::uint8_t>(na, [&](auto i) {
    const NetworkActivity& a = act[i];
    return (a.user_initiated ? kFlagUserInitiated : 0) |
           (a.deferrable ? kFlagDeferrable : 0);
  });
}

/// Upper bound on encode_trace's output for `trace`: the 48-byte
/// section header, its twelve arrays (name offsets 4 bytes each, the
/// name chars, 16 bytes per session, 20 per usage, 37 per activity)
/// and up to 7 bytes of alignment ahead of the section and each array.
std::size_t section_bytes_bound(const UserTrace& trace) {
  std::size_t names_bytes = 0;
  for (const std::string& name : trace.app_names) names_bytes += name.size();
  return 13 * 7 + 48 + (trace.app_names.size() + 1) * 4 + names_bytes +
         trace.sessions.size() * 16 + trace.usages.size() * 20 +
         trace.activities.size() * 37;
}

UserTrace decode_trace(Reader& r) {
  r.align8();
  if (r.get<std::uint32_t>() != kSectionMagic) {
    fail("bad trace section magic");
  }
  UserTrace trace;
  trace.user = r.get<std::int32_t>();
  trace.num_days = r.get<std::int32_t>();
  const auto num_apps = r.get<std::uint32_t>();
  const auto ns = r.get<std::uint64_t>();
  const auto nu = r.get<std::uint64_t>();
  const auto na = r.get<std::uint64_t>();
  const auto names_bytes = r.get<std::uint64_t>();

  const std::uint32_t* offsets =
      r.get_array<std::uint32_t>(std::size_t{num_apps} + 1);
  const char* chars =
      r.get_array<char>(static_cast<std::size_t>(names_bytes));
  if (offsets[0] != 0 || offsets[num_apps] != names_bytes) {
    fail("app name offsets do not cover the char blob");
  }
  trace.app_names.reserve(num_apps);
  for (std::uint32_t i = 0; i < num_apps; ++i) {
    if (offsets[i] > offsets[i + 1]) fail("app name offsets not sorted");
    trace.app_names.emplace_back(chars + offsets[i],
                                 offsets[i + 1] - offsets[i]);
  }

  const auto n_sessions = static_cast<std::size_t>(ns);
  const auto n_usages = static_cast<std::size_t>(nu);
  const auto n_acts = static_cast<std::size_t>(na);

  const std::int64_t* sess_begin = r.get_array<std::int64_t>(n_sessions);
  const std::int64_t* sess_end = r.get_array<std::int64_t>(n_sessions);
  trace.sessions.resize(n_sessions);
  for (std::size_t i = 0; i < n_sessions; ++i) {
    trace.sessions[i] = {sess_begin[i], sess_end[i]};
  }

  const std::int32_t* usage_app = r.get_array<std::int32_t>(n_usages);
  const std::int64_t* usage_time = r.get_array<std::int64_t>(n_usages);
  const std::int64_t* usage_dur = r.get_array<std::int64_t>(n_usages);
  trace.usages.resize(n_usages);
  for (std::size_t i = 0; i < n_usages; ++i) {
    trace.usages[i] = {usage_app[i], usage_time[i], usage_dur[i]};
  }

  const std::int32_t* act_app = r.get_array<std::int32_t>(n_acts);
  const std::int64_t* act_start = r.get_array<std::int64_t>(n_acts);
  const std::int64_t* act_dur = r.get_array<std::int64_t>(n_acts);
  const std::int64_t* act_down = r.get_array<std::int64_t>(n_acts);
  const std::int64_t* act_up = r.get_array<std::int64_t>(n_acts);
  const std::uint8_t* act_flags = r.get_array<std::uint8_t>(n_acts);
  trace.activities.resize(n_acts);
  for (std::size_t i = 0; i < n_acts; ++i) {
    if ((act_flags[i] & ~(kFlagUserInitiated | kFlagDeferrable)) != 0) {
      fail("unknown activity flag bits");
    }
    trace.activities[i] = {act_app[i],
                           act_start[i],
                           act_dur[i],
                           act_down[i],
                           act_up[i],
                           (act_flags[i] & kFlagUserInitiated) != 0,
                           (act_flags[i] & kFlagDeferrable) != 0};
  }
  return trace;
}

/// The traces as references, for the span-of-values overloads.
std::vector<const UserTrace*> refs_of(std::span<const UserTrace> traces) {
  std::vector<const UserTrace*> refs;
  refs.reserve(traces.size());
  for (const UserTrace& trace : traces) refs.push_back(&trace);
  return refs;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> bytes) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = 0xFFFFFFFFu;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
          t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::byte> UserBlob::encode(std::span<const UserTrace> traces) {
  return encode(refs_of(traces));
}

std::vector<std::byte> UserBlob::encode(
    std::span<const UserTrace* const> traces) {
  // One allocation for the whole image instead of a doubling series.
  std::size_t bound = kHeaderBytes;
  for (const UserTrace* trace : traces) bound += section_bytes_bound(*trace);
  std::vector<std::byte> out;
  out.reserve(bound);
  Writer w(out);
  w.put<std::uint32_t>(kBlobMagic);
  w.put<std::uint32_t>(kBlobVersion);
  w.put<std::uint64_t>(0);  // payload length, patched below
  w.put<std::uint32_t>(0);  // payload crc32, patched below
  w.put<std::uint32_t>(static_cast<std::uint32_t>(traces.size()));
  NM_ASSERT(out.size() == kHeaderBytes, "blob header layout drifted");
  for (const UserTrace* trace : traces) encode_trace(w, *trace);
  NM_ASSERT(out.size() <= bound, "blob size bound drifted from the layout");

  const std::span<const std::byte> payload{out.data() + kHeaderBytes,
                                           out.size() - kHeaderBytes};
  const std::uint64_t payload_len = payload.size();
  const std::uint32_t crc = crc32(payload);
  std::memcpy(out.data() + 8, &payload_len, sizeof(payload_len));
  std::memcpy(out.data() + 16, &crc, sizeof(crc));
  return out;
}

std::vector<UserTrace> UserBlob::decode(std::span<const std::byte> bytes) {
  if (bytes.size() < kHeaderBytes) fail("image smaller than the header");
  Reader header(bytes.first(kHeaderBytes));
  if (header.get<std::uint32_t>() != kBlobMagic) fail("bad magic");
  const auto version = header.get<std::uint32_t>();
  if (version != kBlobVersion) {
    fail("unsupported version " + std::to_string(version));
  }
  const auto payload_len = header.get<std::uint64_t>();
  const auto crc = header.get<std::uint32_t>();
  const auto trace_count = header.get<std::uint32_t>();
  if (payload_len != bytes.size() - kHeaderBytes) {
    fail("payload length does not match the image");
  }
  const std::span<const std::byte> payload = bytes.subspan(kHeaderBytes);
  if (crc32(payload) != crc) fail("payload checksum mismatch");
  // The trace count sits outside the CRC: bound it by what the payload
  // can hold before it sizes an allocation.
  if (trace_count > payload.size() / kMinSectionBytes) {
    fail("trace count exceeds what the payload can hold");
  }

  Reader r(payload);
  std::vector<UserTrace> traces;
  traces.reserve(trace_count);
  for (std::uint32_t i = 0; i < trace_count; ++i) {
    traces.push_back(decode_trace(r));
  }
  if (!r.done()) fail("trailing bytes after the last trace section");
  return traces;
}

void UserBlob::write_file(const std::string& path,
                          std::span<const UserTrace> traces) {
  write_file(path, refs_of(traces));
}

void UserBlob::write_file(const std::string& path,
                          std::span<const UserTrace* const> traces) {
  const std::vector<std::byte> image = encode(traces);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    NM_REQUIRE(out.good(), "cannot open blob file for writing: " + tmp);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    NM_REQUIRE(out.good(), "short write to blob file: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw Error("cannot rename blob into place: " + path);
  }
}

std::vector<UserTrace> UserBlob::read_file(const std::string& path) {
#ifdef NM_BLOB_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  NM_REQUIRE(fd >= 0, "cannot open blob file: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw Error("cannot stat blob file: " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    throw BlobError("blob: image smaller than the header");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map != MAP_FAILED) {
    try {
      std::vector<UserTrace> traces =
          decode({static_cast<const std::byte*>(map), size});
      ::munmap(map, size);
      return traces;
    } catch (...) {
      ::munmap(map, size);
      throw;
    }
  }
  // mmap can fail on exotic filesystems — fall through to the read path.
#endif
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  NM_REQUIRE(in.good(), "cannot open blob file: " + path);
  const std::streamsize size_s = in.tellg();
  in.seekg(0);
  std::vector<std::byte> image(static_cast<std::size_t>(size_s));
  in.read(reinterpret_cast<char*>(image.data()), size_s);
  NM_REQUIRE(in.good(), "short read from blob file: " + path);
  return decode(image);
}

std::size_t trace_footprint_bytes(const UserTrace& trace) {
  std::size_t bytes = sizeof(UserTrace);
  bytes += trace.sessions.capacity() * sizeof(ScreenSession);
  bytes += trace.usages.capacity() * sizeof(AppUsage);
  bytes += trace.activities.capacity() * sizeof(NetworkActivity);
  bytes += trace.app_names.capacity() * sizeof(std::string);
  for (const std::string& name : trace.app_names) {
    // Short strings live inline in the SSO buffer already counted above.
    if (name.capacity() > sizeof(std::string)) bytes += name.capacity();
  }
  return bytes;
}

}  // namespace netmaster::mem

#include "trace/io.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define PERTURB_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "support/check.hpp"
#include "support/crc32.hpp"
#include "support/fsio.hpp"
#include "support/metrics.hpp"
#include "support/text.hpp"
#include "trace/chunk_reader.hpp"

namespace perturb::trace {

using detail::kEventBytes;
using detail::kMagic;
using detail::kMaxNameLen;
using detail::kMaxProcs;
using support::split;
using support::starts_with;
using support::strf;
using support::trim;

namespace {

[[noreturn]] void io_fail(const std::string& msg) { throw IoError(msg); }

/// Header-level defects: the bytes are not a usable trace at all (empty
/// file, bad magic, corrupt or truncated header).  Not salvageable and not
/// an I/O failure — see MalformedTraceError.
[[noreturn]] void malformed_fail(const std::string& msg) {
  throw MalformedTraceError(msg);
}

}  // namespace

void write_text(std::ostream& out, const Trace& trace) {
  out << "#perturb-trace v1\n";
  out << "#name " << trace.info().name << '\n';
  out << "#procs " << trace.info().num_procs << '\n';
  out << strf("#ticks_per_us %.9g\n", trace.info().ticks_per_us);
  for (const auto& e : trace) {
    out << strf("%lld %s %u %u %u %lld\n", static_cast<long long>(e.time),
                event_kind_name(e.kind), unsigned(e.proc), unsigned(e.id),
                unsigned(e.object), static_cast<long long>(e.payload));
  }
}

Trace read_text(std::istream& in) {
  std::string line;
  if (!std::getline(in, line))
    malformed_fail("empty trace file (no header line)");
  if (trim(line) != "#perturb-trace v1")
    malformed_fail("bad trace header: " + line);
  TraceInfo info;
  bool have_info = false;
  std::vector<Event> events;
  while (std::getline(in, line)) {
    line = trim(line);
    if (line.empty()) continue;
    if (starts_with(line, "#name ")) {
      info.name = line.substr(6);
    } else if (starts_with(line, "#procs ")) {
      const auto procs = std::strtoul(line.c_str() + 7, nullptr, 10);
      PERTURB_CHECK_MSG(procs <= kMaxProcs,
                        "absurd #procs directive: " + line);
      info.num_procs = static_cast<std::uint32_t>(procs);
      have_info = true;
    } else if (starts_with(line, "#ticks_per_us ")) {
      info.ticks_per_us = std::strtod(line.c_str() + 14, nullptr);
    } else if (line[0] == '#') {
      // Unknown directive: ignored for forward compatibility.
    } else {
      const auto fields = split(line, ' ');
      PERTURB_CHECK_MSG(fields.size() == 6, "bad trace line: " + line);
      Event e;
      e.time = std::strtoll(fields[0].c_str(), nullptr, 10);
      e.kind = event_kind_from_name(fields[1]);
      e.proc = static_cast<ProcId>(std::strtoul(fields[2].c_str(), nullptr, 10));
      e.id = static_cast<EventId>(std::strtoul(fields[3].c_str(), nullptr, 10));
      e.object =
          static_cast<ObjectId>(std::strtoul(fields[4].c_str(), nullptr, 10));
      e.payload = std::strtoll(fields[5].c_str(), nullptr, 10);
      events.push_back(e);
    }
  }
  PERTURB_CHECK_MSG(have_info, "trace missing #procs directive");
  Trace t(info);
  for (const auto& e : events) t.append(e);
  return t;
}

namespace {

/// Append-only byte buffer with typed writes, for building checksummed
/// blocks before they hit the stream.
struct ByteSink {
  std::vector<char> bytes;

  template <typename T>
  void put(const T& v) {
    const auto* p = reinterpret_cast<const char*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(T));
  }
};

void put_event(ByteSink& sink, const Event& e) {
  sink.put(e.time);
  sink.put(e.payload);
  sink.put(e.id);
  sink.put(e.object);
  sink.put(e.proc);
  sink.put(static_cast<std::uint8_t>(e.kind));
}

// The serialized record layout (time, payload, id, object, proc, kind;
// native byte order) coincides with Event's in-memory field layout, so a
// record decodes with one bounded memcpy instead of six typed reads.  The
// asserts pin that coincidence; a platform that violates them must grow a
// field-wise fallback, not silently misdecode.
static_assert(offsetof(Event, time) == 0);
static_assert(offsetof(Event, payload) == 8);
static_assert(offsetof(Event, id) == 16);
static_assert(offsetof(Event, object) == 20);
static_assert(offsetof(Event, proc) == 24);
static_assert(offsetof(Event, kind) == 26);
static_assert(sizeof(Event) >= kEventBytes);

/// Forward-only cursor over the v1 header fields.
struct BufCursor {
  const char* p;
  const char* end;

  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end - p);
  }
  /// Header-field read: running out here means the header itself is cut,
  /// which is a malformed (unsalvageable) trace rather than a torn body.
  template <typename T>
  T get_header() {
    if (remaining() < sizeof(T))
      malformed_fail("binary trace header truncated");
    T v{};
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    return v;
  }
};

/// Legacy v1 decoder (unframed, no checksums) over the bytes after the
/// magic and version.  Salvage mode keeps the whole records read before the
/// image ran out or a bad kind stopped the decode.
Trace read_v1_buffer(BufCursor cur, bool salvage, SalvageReport& report) {
  const auto name_len = cur.get_header<std::uint32_t>();
  if (name_len > kMaxNameLen)
    malformed_fail(
        strf("binary trace header field #name_len %u exceeds sanity cap",
             unsigned(name_len)));
  if (name_len > cur.remaining())
    malformed_fail("binary trace header truncated");
  TraceInfo info;
  info.name.assign(cur.p, name_len);
  cur.p += name_len;
  info.num_procs = cur.get_header<std::uint32_t>();
  if (info.num_procs > kMaxProcs)
    malformed_fail(strf("binary trace header field #procs %u exceeds sanity cap",
                        unsigned(info.num_procs)));
  info.ticks_per_us = cur.get_header<double>();
  const auto count = cur.get_header<std::uint64_t>();
  report.version = kFormatV1;
  report.events_declared = static_cast<std::size_t>(count);

  const std::size_t remaining = cur.remaining();
  if (!salvage && count > remaining / kEventBytes + 1)
    io_fail(strf("binary trace header field #count %llu exceeds remaining "
                 "stream size (%llu bytes)",
                 static_cast<unsigned long long>(count),
                 static_cast<unsigned long long>(remaining)));

  Trace t(info);
  // Decode every whole record the image holds (capped by the declared
  // count), in u32-sized batches for decode_events; the vector is trimmed
  // to the decoded prefix if a bad kind stops the decode early.
  const std::uint64_t whole =
      std::min<std::uint64_t>(count, remaining / kEventBytes);
  t.events().resize(static_cast<std::size_t>(whole));
  std::uint64_t done = 0;
  bool bad_kind = false;
  while (done < whole) {
    const auto step = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(whole - done, 1u << 30));
    const auto got = detail::decode_event_records(cur.p + done * kEventBytes,
                                                  step, t.events().data() + done);
    done += got;
    if (got != step) {
      bad_kind = true;
      break;
    }
  }
  t.events().resize(static_cast<std::size_t>(done));
  if (bad_kind) {
    if (!salvage) io_fail("bad event kind in binary trace");
    report.complete = false;
    report.detail = "bad event kind in binary trace";
  } else if (done < count) {
    // The image ran out of full records before the declared count.
    if (!salvage) io_fail("truncated binary trace");
    report.complete = false;
    report.detail = strf("event %llu of %llu: record truncated",
                         static_cast<unsigned long long>(done),
                         static_cast<unsigned long long>(count));
  }
  report.events_recovered = t.size();
  return t;
}

/// v1 images go to the v1 decoder; everything else — v2, and images too
/// damaged to name a version — to ChunkReader, which diagnoses the latter.
Trace read_binary_image(const char* data, std::size_t size, bool salvage,
                        SalvageReport& report) {
  if (binary_version(data, size) == kFormatV1)
    return read_v1_buffer(BufCursor{data + 8, data + size}, salvage, report);
  return detail::read_v2_image(data, size, salvage, report);
}

}  // namespace

namespace detail {

std::uint32_t decode_event_records(const char* src, std::uint32_t n,
                                   Event* dst) {
  for (std::uint32_t i = 0; i < n; ++i, src += kEventBytes) {
    if (static_cast<unsigned char>(src[26]) >= kNumEventKinds) return i;
    // void* cast: the record covers only the first 27 bytes (tail padding
    // keeps its prior value), which -Wclass-memaccess would flag.
    std::memcpy(static_cast<void*>(dst + i), src, kEventBytes);
  }
  return n;
}

}  // namespace detail

std::uint32_t binary_version(const char* data, std::size_t size) {
  std::uint32_t version = 0;
  if (size >= sizeof(kMagic) + sizeof(version) &&
      std::memcmp(data, kMagic, sizeof(kMagic)) == 0)
    std::memcpy(&version, data + sizeof(kMagic), sizeof(version));
  return version;
}

std::string SalvageReport::describe() const {
  if (complete)
    return strf("complete: %zu events (format v%u)", events_recovered,
                unsigned(version));
  return strf("salvaged %zu of %zu events (%zu of %zu chunks, format v%u): %s",
              events_recovered, events_declared, chunks_recovered,
              chunks_total, unsigned(version), detail.c_str());
}

void write_binary(std::ostream& out, const Trace& trace) {
  // Buffered: the whole file image is assembled in one buffer and written
  // with a single stream call, instead of three stream writes (and a staging
  // ByteSink allocation) per chunk.  Byte-for-byte identical output.
  const std::size_t chunks =
      (trace.size() + kChunkEvents - 1) / kChunkEvents;
  ByteSink file;
  file.bytes.reserve(4 + sizeof(kFormatV2) + 8 + trace.info().name.size() +
                     24 + trace.size() * kEventBytes + chunks * 8);
  file.bytes.insert(file.bytes.end(), kMagic, kMagic + 4);
  file.put(kFormatV2);

  ByteSink header;
  header.put<std::uint32_t>(
      static_cast<std::uint32_t>(trace.info().name.size()));
  header.bytes.insert(header.bytes.end(), trace.info().name.begin(),
                      trace.info().name.end());
  header.put(trace.info().num_procs);
  header.put(trace.info().ticks_per_us);
  header.put<std::uint64_t>(trace.size());
  file.put<std::uint32_t>(static_cast<std::uint32_t>(header.bytes.size()));
  file.bytes.insert(file.bytes.end(), header.bytes.begin(),
                    header.bytes.end());
  file.put<std::uint32_t>(
      support::crc32(header.bytes.data(), header.bytes.size()));

  for (std::size_t base = 0; base < trace.size(); base += kChunkEvents) {
    const auto n = static_cast<std::uint32_t>(
        std::min(kChunkEvents, trace.size() - base));
    const std::size_t frame_begin = file.bytes.size();
    file.put(n);
    for (std::uint32_t i = 0; i < n; ++i) put_event(file, trace[base + i]);
    file.put<std::uint32_t>(
        support::crc32(file.bytes.data() + frame_begin,
                       file.bytes.size() - frame_begin));
  }
  out.write(file.bytes.data(), static_cast<std::streamsize>(file.bytes.size()));
}

Trace read_binary(const char* data, std::size_t size) {
  SalvageReport report;
  return read_binary_image(data, size, /*salvage=*/false, report);
}

Trace read_binary_salvage(const char* data, std::size_t size,
                          SalvageReport& report) {
  report = SalvageReport{};
  return read_binary_image(data, size, /*salvage=*/true, report);
}

namespace {

bool is_text_path(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".ptt") == 0;
}

}  // namespace

FileImage::FileImage(const std::string& path, std::vector<char>& fallback) {
#ifdef PERTURB_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) io_fail("cannot open for read: " + path);
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    const auto len = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);
      map_ = map;
      data_ = static_cast<const char*>(map);
      size_ = len;
      return;
    }
  }
  // Not a regular mappable file (pipe, empty, exotic fs): read it whole.
  fallback.clear();
  char buf[1 << 16];
  for (;;) {
    const ::ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got < 0) {
      ::close(fd);
      io_fail("cannot open for read: " + path);
    }
    if (got == 0) break;
    fallback.insert(fallback.end(), buf, buf + got);
  }
  ::close(fd);
  data_ = fallback.data();
  size_ = fallback.size();
#else
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) io_fail("cannot open for read: " + path);
  fallback.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  data_ = fallback.data();
  size_ = fallback.size();
#endif
}

FileImage::~FileImage() {
#ifdef PERTURB_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, size_);
#endif
}

void save(const std::string& path, const Trace& trace) {
  // Atomic: the image is rendered in memory and published with a temp-file +
  // rename, so a crash or ENOSPC mid-save never leaves a torn trace at
  // `path` (the salvage reader should earn its keep on real corruption, not
  // on our own interrupted writes).
  std::ostringstream out;
  if (is_text_path(path))
    write_text(out, trace);
  else
    write_binary(out, trace);
  if (!out.good()) io_fail("write failed: " + path);
  std::string error;
  if (!support::write_file_atomic(path, out.str(), &error))
    io_fail("cannot write " + path + ": " + error);
}

namespace {

// Self-observability: file/byte volume through the load paths and how much
// of a torn file the salvage pass got back.
const support::Counter kLoadFiles("io.load.files");
const support::Counter kLoadBytes("io.load.bytes");
const support::Counter kSalvageChunksTotal("io.salvage.chunks_total");
const support::Counter kSalvageChunksRecovered("io.salvage.chunks_recovered");
const support::Counter kSalvageIncomplete("io.salvage.incomplete");

/// Opens a text trace for reading and records its size (binary loads count
/// the mapped image instead).
std::ifstream open_text_counted(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) io_fail("cannot open for read: " + path);
  const auto end = in.tellg();
  if (end > 0) kLoadBytes.add(static_cast<std::uint64_t>(end));
  in.seekg(0);
  return in;
}

}  // namespace

Trace load(const std::string& path) {
  IoArena arena;
  return load(path, arena);
}

Trace load(const std::string& path, IoArena& arena) {
  kLoadFiles.add();
  if (is_text_path(path)) {
    std::ifstream in = open_text_counted(path);
    return read_text(in);
  }
  const FileImage image(path, arena.buffer);
  kLoadBytes.add(image.size());
  return read_binary(image.data(), image.size());
}

Trace load_salvage(const std::string& path, SalvageReport& report) {
  IoArena arena;
  return load_salvage(path, report, arena);
}

Trace load_salvage(const std::string& path, SalvageReport& report,
                   IoArena& arena) {
  kLoadFiles.add();
  if (is_text_path(path)) {
    std::ifstream in = open_text_counted(path);
    report = SalvageReport{};
    Trace t = read_text(in);
    report.events_declared = report.events_recovered = t.size();
    return t;
  }
  const FileImage image(path, arena.buffer);
  kLoadBytes.add(image.size());
  Trace t = read_binary_salvage(image.data(), image.size(), report);
  kSalvageChunksTotal.add(report.chunks_total);
  kSalvageChunksRecovered.add(report.chunks_recovered);
  if (!report.complete) kSalvageIncomplete.add();
  return t;
}

}  // namespace perturb::trace

// Trace serialization.
//
// Two formats: a line-oriented text format (diff-able, greppable) and a
// compact binary format for large traces.  Both round-trip every field.
//
// Binary format v2 frames events into CRC32-checksummed chunks so that torn
// or bit-flipped files are detected — and, via the salvage API, the longest
// valid prefix is recovered instead of the whole trace being discarded.
// Version 1 files (unframed, no checksums) are still read transparently.
//
// One decoder per format: v2 images, batch or streamed, are decoded by
// trace::ChunkReader (read_binary drives a borrowed-image reader whose
// chunks land directly in the trace's storage), v1 images by a single
// whole-image decoder.  The framing constants below are the only
// definition of the binary layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "trace/trace.hpp"

namespace perturb::trace {

/// Thrown on I/O and serialization failures (unreadable file, bad magic,
/// corrupt header, checksum mismatch in strict mode).  Derives from
/// CheckError so existing recovery sites keep working, while tools can map
/// I/O failures to a distinct exit code.
class IoError : public CheckError {
 public:
  explicit IoError(const std::string& what) : CheckError(what) {}
};

/// Thrown when a file's *contents* are not a usable trace at all: zero
/// bytes, wrong magic, an unsupported version, or a corrupt/truncated header
/// — defects from which not even the salvage reader can recover an event.
/// Deliberately NOT an IoError: the file was read fine, its content is
/// invalid, so tools map this to the invalid-trace exit code (2) rather than
/// the I/O-failure code (3).  Body-level corruption past a valid header
/// stays IoError in strict mode (the salvage path recovers a prefix).
class MalformedTraceError : public CheckError {
 public:
  explicit MalformedTraceError(const std::string& what) : CheckError(what) {}
};

/// Binary format versions: v1 is unframed, v2 is CRC-framed in chunks.
inline constexpr std::uint32_t kFormatV1 = 1;
inline constexpr std::uint32_t kFormatV2 = 2;

/// Events per v2 chunk frame: small enough that a flipped bit discards
/// little (~27 KiB of events), large enough that the 8-byte frame is
/// negligible.  Streaming windows are naturally measured in multiples of it.
inline constexpr std::size_t kChunkEvents = 1024;

/// The format version a binary trace image declares: the version field
/// after the "PTRC" magic, or 0 when the image is too short to hold both or
/// the magic does not match.  Routing only — the readers diagnose bad
/// images.
std::uint32_t binary_version(const char* data, std::size_t size);

/// Outcome of a salvage read: how much of the stream was recovered and why
/// recovery stopped (if it did).
struct SalvageReport {
  bool complete = true;             ///< no corruption or truncation found
  std::uint32_t version = 0;        ///< format version of the stream
  std::size_t events_declared = 0;  ///< event count from the header
  std::size_t events_recovered = 0;
  std::size_t chunks_total = 0;     ///< expected chunk count (v2 only)
  std::size_t chunks_recovered = 0;
  std::string detail;               ///< first corruption diagnosis

  /// One-line human-readable summary.
  std::string describe() const;
};

/// Writes the text format:
///   #perturb-trace v1
///   #name <name>
///   #procs <n>
///   #ticks_per_us <x>
///   <time> <kind> <proc> <id> <object> <payload>
void write_text(std::ostream& out, const Trace& trace);

/// Parses the text format; throws CheckError on malformed input.
Trace read_text(std::istream& in);

/// Writes the binary format (magic "PTRC", version 2, little-endian,
/// CRC32-framed event chunks).
void write_binary(std::ostream& out, const Trace& trace);

/// Strict reader over an in-memory image of a binary trace file (the exact
/// bytes a file contains), v1 or v2.  Chunk CRCs are verified in place and
/// fixed-width records decode straight into the trace's pre-sized storage.
/// Throws MalformedTraceError on header defects and IoError on any body
/// corruption, truncation, checksum mismatch, or a declared event count the
/// image cannot hold.
Trace read_binary(const char* data, std::size_t size);

/// Salvage reader over an in-memory image: recovers the longest valid
/// prefix of a torn, truncated, or bit-flipped binary trace (v1 or v2) and
/// fills `report` with what was recovered and why recovery stopped.  Throws
/// MalformedTraceError only when nothing is recoverable (bad magic,
/// unusable or corrupt header).
Trace read_binary_salvage(const char* data, std::size_t size,
                          SalvageReport& report);

/// Reusable scratch for batched loads.  When a file cannot be memory-mapped
/// (non-POSIX host, special file, empty file) its image is read into
/// `buffer`, whose capacity survives across loads so a long batch settles
/// into zero steady-state allocation.
struct IoArena {
  std::vector<char> buffer;
};

/// The raw bytes of a file, memory-mapped when the platform allows it so
/// binary loads touch each byte exactly once (CRC + decode); otherwise read
/// whole into the caller's reusable buffer.  Throws IoError when the file
/// cannot be opened or read.  Used by the batch loaders and as the file
/// source of the streaming trace::ChunkReader.
class FileImage {
 public:
  FileImage(const std::string& path, std::vector<char>& fallback);
  ~FileImage();

  FileImage(const FileImage&) = delete;
  FileImage& operator=(const FileImage&) = delete;

  const char* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

 private:
  void* map_ = nullptr;
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

namespace detail {

/// Binary layout shared by the writer and both decoders.
inline constexpr char kMagic[4] = {'P', 'T', 'R', 'C'};
/// Serialized size of one event record (time, payload, id, object, proc,
/// kind), identical in v1 and v2.
inline constexpr std::size_t kEventBytes = 8 + 8 + 4 + 4 + 2 + 1;
/// Header sanity caps: no legitimate trace exceeds these, so larger
/// declared values mean a corrupt header rather than a big file.
inline constexpr std::uint32_t kMaxNameLen = 1u << 20;
inline constexpr std::uint32_t kMaxProcs = 1u << 20;

/// Decodes `n` fixed-width binary event records (kEventBytes each) at `src`
/// into pre-sized storage at `dst`, validating event kinds.  Returns the
/// count actually written (< n only when a bad kind stopped the decode).
/// Shared by the v1 decoder and ChunkReader so both decode records
/// identically.
std::uint32_t decode_event_records(const char* src, std::uint32_t n,
                                   Event* dst);

}  // namespace detail

/// File-path conveniences; format chosen by extension (".ptt" text,
/// anything else binary).  Binary loads read a memory-mapped image of the
/// file when the platform allows it.
void save(const std::string& path, const Trace& trace);
Trace load(const std::string& path);
Trace load(const std::string& path, IoArena& arena);

/// Like load(), but binary traces are read through the salvage path; text
/// traces fill a trivial (complete) report.
Trace load_salvage(const std::string& path, SalvageReport& report);
Trace load_salvage(const std::string& path, SalvageReport& report,
                   IoArena& arena);

}  // namespace perturb::trace

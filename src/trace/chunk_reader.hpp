// Incremental reader for binary trace format v2 — the only v2 decoder.
//
// ChunkReader yields decoded, CRC-validated event chunks one at a time,
// either over a borrowed in-memory file image (e.g. a FileImage) or from an
// arbitrary byte feed (a socket), so callers can index and analyze a trace
// with O(chunk) resident bytes.
//
// Batch reads *are* ChunkReader: read_binary / read_binary_salvage drive a
// borrowed-image reader over the whole image and decode each chunk
// straight into the returned trace's storage.  So the chunks a borrowed
// reader yields concatenate to exactly the events the batch readers return,
// with the same SalvageReport and the same exceptions.  A feed-mode reader
// fed the same bytes matches too, with one divergence: a strict borrowed
// read rejects a declared event count the image cannot hold before
// decoding anything (IoError naming #count), while a feed has no known
// total size, so there the over-declared count surfaces as the chunk
// defect it tears into.  Format v1 is unframed and cannot be streamed; it
// is rejected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/io.hpp"
#include "trace/trace.hpp"

namespace perturb::trace {

namespace detail {

/// Batch v2 decode of a whole image (the engine of read_binary and
/// read_binary_salvage for v2): a borrowed ChunkReader whose chunks land
/// directly in the returned trace's pre-sized storage.
Trace read_v2_image(const char* data, std::size_t size, bool salvage,
                    SalvageReport& report);

}  // namespace detail

class ChunkReader {
 public:
  enum class Status {
    kChunk,     ///< `out` holds the next validated chunk of events
    kNeedMore,  ///< feed more bytes (or finish()) before the next chunk
    kEnd,       ///< no more events (all read, or salvage stopped at a defect)
  };

  /// Feed-mode reader: push bytes with feed(), call finish() at EOF.
  explicit ChunkReader(bool salvage = false);

  /// Borrowed-image reader over a complete file image (the bytes must
  /// outlive the reader).  Already finished: next() never needs more.
  ChunkReader(const char* data, std::size_t size, bool salvage = false);

  /// Appends bytes to the feed.  Only valid in feed mode, before finish().
  void feed(const char* data, std::size_t size);
  void feed(const std::string& bytes) { feed(bytes.data(), bytes.size()); }

  /// Marks end-of-stream: subsequent next() calls treat missing bytes as
  /// truncation instead of returning kNeedMore.
  void finish() { finished_ = true; }

  /// Advances the reader.  On kChunk, `out` is replaced with the chunk's
  /// events.  Strict mode throws MalformedTraceError on header defects and
  /// IoError on body defects (exactly like read_binary); salvage mode
  /// records body defects in report() and returns kEnd (header defects
  /// still throw, exactly like read_binary_salvage).
  Status next(std::vector<Event>& out);

  /// True once the v2 header has been parsed; info() and events_declared()
  /// are meaningful from then on.
  bool header_ready() const { return header_ready_; }
  const TraceInfo& info() const { return info_; }
  std::uint64_t events_declared() const { return count_; }

  /// Events handed out via next() so far (including a salvaged partial
  /// chunk's prefix).
  std::uint64_t events_read() const { return decoded_events_; }

  /// Salvage outcome so far; final once next() has returned kEnd.  Field
  /// semantics match read_binary_salvage.
  const SalvageReport& report() const { return report_; }

 private:
  friend Trace detail::read_v2_image(const char* data, std::size_t size,
                                     bool salvage, SalvageReport& report);

  enum class State { kMagic, kHeader, kChunks, kDone };

  std::size_t avail() const {
    return (borrowed_ ? data_size_ : buf_.size()) - pos_;
  }
  const char* cur() const {
    return (borrowed_ ? data_ : buf_.data()) + pos_;
  }
  void consume(std::size_t n) { pos_ += n; }

  /// Parses magic, version and header block as far as the bytes allow;
  /// true once the header is ready.  Throws on header defects.
  bool read_header();

  /// The chunk step behind next(): decodes the next chunk's events into
  /// out[at, at + n), growing `out` when it is shorter.  kChunk when any
  /// events were decoded (events_read() advances by their count).
  Status read_chunk(std::vector<Event>& out, std::size_t at);

  /// Body-level defect: strict mode throws IoError; salvage mode records
  /// the first diagnosis, stops the reader and returns kEnd.
  Status defect(const std::string& msg);

  bool salvage_ = false;
  bool borrowed_ = false;
  bool finished_ = false;
  State state_ = State::kMagic;

  std::string buf_;             ///< feed-mode backing store
  const char* data_ = nullptr;  ///< borrowed-image backing store
  std::size_t data_size_ = 0;
  std::size_t pos_ = 0;  ///< consumed offset into the backing store
  std::uint64_t total_bytes_ = 0;

  TraceInfo info_;
  bool header_ready_ = false;
  std::uint64_t count_ = 0;          ///< events declared by the header
  std::uint64_t read_events_ = 0;    ///< events covered by validated chunks
  std::uint64_t decoded_events_ = 0; ///< events handed out (incl. prefixes)
  SalvageReport report_;
};

}  // namespace perturb::trace

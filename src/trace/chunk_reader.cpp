#include "trace/chunk_reader.hpp"

#include <algorithm>
#include <cstring>

#include "support/check.hpp"
#include "support/crc32.hpp"
#include "support/text.hpp"

namespace perturb::trace {

using detail::kEventBytes;
using detail::kMagic;
using detail::kMaxNameLen;
using detail::kMaxProcs;
using support::strf;

namespace {

/// Feed-mode buffers compact (drop consumed bytes) once the dead prefix
/// crosses this, so a long stream holds O(chunk) bytes, not O(stream).
constexpr std::size_t kCompactThreshold = 1u << 16;

[[noreturn]] void malformed_fail(const std::string& msg) {
  throw MalformedTraceError(msg);
}

/// Parses the CRC-verified v2 header *block*: name_len, name, num_procs,
/// ticks_per_us, count.  Any defect is header-level (malformed).
TraceInfo parse_v2_header_block(const char* p, std::size_t len,
                                std::uint64_t& count) {
  const char* const end = p + len;
  const auto take = [&](auto& field) {
    if (static_cast<std::size_t>(end - p) < sizeof(field))
      malformed_fail("binary trace header truncated");
    std::memcpy(&field, p, sizeof(field));
    p += sizeof(field);
  };
  std::uint32_t name_len = 0;
  take(name_len);
  if (name_len > static_cast<std::size_t>(end - p))
    malformed_fail(
        strf("binary trace header field #name_len %u exceeds header size",
             unsigned(name_len)));
  TraceInfo info;
  info.name.assign(p, name_len);
  p += name_len;
  take(info.num_procs);
  if (info.num_procs > kMaxProcs)
    malformed_fail(strf("binary trace header field #procs %u exceeds sanity cap",
                        unsigned(info.num_procs)));
  take(info.ticks_per_us);
  take(count);
  return info;
}

}  // namespace

ChunkReader::ChunkReader(bool salvage) : salvage_(salvage) {}

ChunkReader::ChunkReader(const char* data, std::size_t size, bool salvage)
    : salvage_(salvage),
      borrowed_(true),
      finished_(true),
      data_(data),
      data_size_(size),
      total_bytes_(size) {}

void ChunkReader::feed(const char* data, std::size_t size) {
  PERTURB_CHECK_MSG(!borrowed_, "feed() on a borrowed-image ChunkReader");
  PERTURB_CHECK_MSG(!finished_, "feed() after finish()");
  if (pos_ > kCompactThreshold) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, size);
  total_bytes_ += size;
}

ChunkReader::Status ChunkReader::defect(const std::string& msg) {
  if (!salvage_) throw IoError(msg);
  report_.complete = false;
  if (report_.detail.empty()) report_.detail = msg;
  state_ = State::kDone;
  return Status::kEnd;
}

bool ChunkReader::read_header() {
  if (state_ == State::kMagic) {
    // Magic + version are consumed together; their defects are
    // header-level (malformed) in both strict and salvage mode.
    if (avail() < 8) {
      if (!finished_) return false;
      if (total_bytes_ == 0) malformed_fail("empty trace file (zero bytes)");
      if (avail() < 4 || std::memcmp(cur(), kMagic, 4) != 0)
        malformed_fail("bad binary trace magic");
      malformed_fail("binary trace header truncated");
    }
    if (std::memcmp(cur(), kMagic, 4) != 0)
      malformed_fail("bad binary trace magic");
    std::uint32_t version = 0;
    std::memcpy(&version, cur() + 4, sizeof(version));
    if (version == kFormatV1)
      malformed_fail(
          "binary trace format v1 is unframed and cannot be streamed; "
          "use the batch reader");
    if (version != kFormatV2)
      malformed_fail(
          strf("unsupported binary trace version %u", unsigned(version)));
    consume(8);
    state_ = State::kHeader;
  }
  if (state_ == State::kHeader) {
    if (avail() < sizeof(std::uint32_t)) {
      if (!finished_) return false;
      malformed_fail("binary trace header truncated");
    }
    std::uint32_t header_len = 0;
    std::memcpy(&header_len, cur(), sizeof(header_len));
    if (header_len > kMaxNameLen + 64)
      malformed_fail(
          strf("binary trace header field #header_len %u exceeds sanity cap",
               unsigned(header_len)));
    const std::size_t need =
        sizeof(header_len) + header_len + sizeof(std::uint32_t);
    if (avail() < need) {
      if (!finished_) return false;
      malformed_fail("binary trace header truncated");
    }
    const char* block = cur() + sizeof(header_len);
    std::uint32_t crc = 0;
    std::memcpy(&crc, block + header_len, sizeof(crc));
    if (crc != support::crc32(block, header_len))
      malformed_fail("binary trace header checksum mismatch");
    info_ = parse_v2_header_block(block, header_len, count_);
    header_ready_ = true;
    report_.version = kFormatV2;
    report_.events_declared = static_cast<std::size_t>(count_);
    report_.chunks_total = static_cast<std::size_t>(
        (count_ + kChunkEvents - 1) / kChunkEvents);
    consume(need);
    // Allocation guard: a borrowed image has a known size, so a strict read
    // rejects a declared count the remaining bytes cannot hold up front.
    // Salvage reads treat it as a torn file, and a feed cannot know its
    // total size; both see the chunk defect the count tears into.
    if (borrowed_ && !salvage_ && count_ > avail() / kEventBytes + 1)
      throw IoError(strf("binary trace header field #count %llu exceeds "
                         "remaining stream size (%llu bytes)",
                         static_cast<unsigned long long>(count_),
                         static_cast<unsigned long long>(avail())));
    state_ = State::kChunks;
  }
  return true;
}

ChunkReader::Status ChunkReader::read_chunk(std::vector<Event>& out,
                                            std::size_t at) {
  if (state_ == State::kDone || read_events_ >= count_) {
    // All declared events delivered (trailing bytes are ignored), or
    // salvage stopped at a defect.
    state_ = State::kDone;
    return Status::kEnd;
  }
  const std::uint64_t expect =
      std::min<std::uint64_t>(kChunkEvents, count_ - read_events_);
  const auto chunk_no =
      static_cast<std::size_t>(decoded_events_ / kChunkEvents);
  if (avail() < sizeof(std::uint32_t)) {
    if (!finished_) return Status::kNeedMore;
    return defect(strf("chunk %zu: frame truncated", chunk_no));
  }
  std::uint32_t n = 0;
  std::memcpy(&n, cur(), sizeof(n));
  if (n != expect)
    return defect(strf("chunk %zu: declares %u events, expected %llu",
                       chunk_no, unsigned(n),
                       static_cast<unsigned long long>(expect)));
  const std::size_t payload_bytes = static_cast<std::size_t>(n) * kEventBytes;
  if (avail() - sizeof(n) < payload_bytes) {
    if (!finished_) return Status::kNeedMore;
    return defect(strf("chunk %zu: payload truncated", chunk_no));
  }
  const std::size_t frame_bytes = sizeof(n) + payload_bytes;
  std::uint32_t crc = 0;
  if (avail() - frame_bytes < sizeof(crc)) {
    if (!finished_) return Status::kNeedMore;
    return defect(strf("chunk %zu: checksum mismatch", chunk_no));
  }
  std::memcpy(&crc, cur() + frame_bytes, sizeof(crc));
  if (crc != support::crc32(cur(), frame_bytes))
    return defect(strf("chunk %zu: checksum mismatch", chunk_no));

  if (out.size() < at + n) out.resize(at + n);
  const std::uint32_t decoded =
      detail::decode_event_records(cur() + sizeof(n), n, out.data() + at);
  decoded_events_ += decoded;
  report_.events_recovered = static_cast<std::size_t>(decoded_events_);
  if (decoded != n) {
    // Bad kind under a passing CRC: the file was *written* corrupt.
    // Salvage keeps the decoded prefix, but the chunk does not count as
    // recovered.
    defect(strf("chunk %zu: bad event kind in binary trace", chunk_no));
    return decoded > 0 ? Status::kChunk : Status::kEnd;
  }
  consume(frame_bytes + sizeof(crc));
  read_events_ += expect;
  ++report_.chunks_recovered;
  return Status::kChunk;
}

ChunkReader::Status ChunkReader::next(std::vector<Event>& out) {
  if (!read_header()) return Status::kNeedMore;
  const std::uint64_t before = decoded_events_;
  const Status status = read_chunk(out, 0);
  if (status == Status::kChunk)
    out.resize(static_cast<std::size_t>(decoded_events_ - before));
  return status;
}

namespace detail {

Trace read_v2_image(const char* data, std::size_t size, bool salvage,
                    SalvageReport& report) {
  ChunkReader reader(data, size, salvage);
  reader.read_header();  // a borrowed image never needs more bytes
  Trace t(reader.info());
  // Pre-size for the full declared count, bounded by what the image can
  // actually hold (salvage accepts over-declared counts); each chunk lands
  // at the end of the decoded prefix and the vector is trimmed to it after.
  std::vector<Event>& events = t.events();
  events.resize(static_cast<std::size_t>(std::min<std::uint64_t>(
      reader.count_, reader.avail() / kEventBytes + 1)));
  while (reader.read_chunk(events, static_cast<std::size_t>(
                                       reader.decoded_events_)) ==
         ChunkReader::Status::kChunk) {
  }
  events.resize(static_cast<std::size_t>(reader.decoded_events_));
  report = reader.report();
  return t;
}

}  // namespace detail

}  // namespace perturb::trace

// Oracle for binary-trace reads: the trace that was written.  A read of a
// (possibly damaged) v2 image is judged against the events that went into
// it, never against a second decoder.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "trace/io.hpp"

namespace perturb::trace {

/// Serialized v2 image of a trace.
inline std::string image_of(const Trace& t) {
  std::ostringstream out(std::ios::binary);
  write_binary(out, t);
  return out.str();
}

/// A strict read that succeeded returns exactly the written trace.
inline ::testing::AssertionResult equals_written(const Trace& written,
                                                 const Trace& read) {
  if (read.info().name != written.info().name ||
      read.info().num_procs != written.info().num_procs ||
      read.info().ticks_per_us != written.info().ticks_per_us)
    return ::testing::AssertionFailure() << "header fields differ";
  if (read.events() != written.events())
    return ::testing::AssertionFailure()
           << "read " << read.size() << " events, wrote " << written.size()
           << " (or the events differ)";
  return ::testing::AssertionSuccess();
}

/// A v2 salvage read is coherent with the written trace: the salvaged
/// events are the written events' prefix of length events_recovered, the
/// chunk counters agree with that count, and `detail` is non-empty exactly
/// when the read is incomplete.
inline ::testing::AssertionResult salvage_matches_written(
    const Trace& written, const std::vector<Event>& salvaged,
    const SalvageReport& report) {
  const std::size_t n = written.size();
  if (report.version != kFormatV2)
    return ::testing::AssertionFailure() << "version " << report.version;
  if (report.events_declared != n)
    return ::testing::AssertionFailure()
           << "events_declared " << report.events_declared << " != " << n;
  if (salvaged.size() != report.events_recovered || salvaged.size() > n)
    return ::testing::AssertionFailure()
           << salvaged.size() << " events salvaged, events_recovered "
           << report.events_recovered << ", " << n << " written";
  if (!std::equal(salvaged.begin(), salvaged.end(), written.begin()))
    return ::testing::AssertionFailure()
           << "salvaged events are not a prefix of the written trace";
  if (report.chunks_total != (n + kChunkEvents - 1) / kChunkEvents)
    return ::testing::AssertionFailure()
           << "chunks_total " << report.chunks_total << " for " << n
           << " events";
  if (report.events_recovered !=
      std::min(report.chunks_recovered * kChunkEvents, n))
    return ::testing::AssertionFailure()
           << report.chunks_recovered << " chunks recovered but "
           << report.events_recovered << " events";
  if (report.complete != (report.events_recovered == n))
    return ::testing::AssertionFailure()
           << "complete=" << report.complete << " with "
           << report.events_recovered << " of " << n << " events";
  if (report.detail.empty() != report.complete)
    return ::testing::AssertionFailure()
           << "complete=" << report.complete << " but detail \""
           << report.detail << "\"";
  return ::testing::AssertionSuccess();
}

}  // namespace perturb::trace

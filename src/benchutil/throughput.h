#ifndef FLAT_BENCHUTIL_THROUGHPUT_H_
#define FLAT_BENCHUTIL_THROUGHPUT_H_

#include <cstdint>
#include <vector>

#include "engine/query_engine.h"

namespace flat {

/// One thread-count point of a throughput sweep.
struct ThroughputPoint {
  size_t threads = 0;
  /// Best wall time over the repeats (minimum — standard practice for
  /// throughput measurements on a shared machine).
  double best_seconds = 0.0;
  double queries_per_second = 0.0;
  /// Speedup over the plain serial loop (thread count 1 outside the engine).
  double speedup = 0.0;
  uint64_t total_reads = 0;
  /// True when every per-query result vector is bit-identical to the serial
  /// loop's and the merged IoStats totals match per category.
  bool identical_to_serial = false;
};

/// Serial reference for a throughput sweep: the batch executed by a plain
/// loop over FlatIndex with a fresh BufferPool per query (the paper's
/// cold-cache methodology).
struct SerialReference {
  std::vector<QueryResult> results;
  IoStats io;
  double seconds = 0.0;
};

/// Runs `batch` serially (no engine) and returns results, merged I/O, and
/// wall time.
SerialReference RunSerialReference(const FlatIndex& index,
                                   const std::vector<Query>& batch);

/// Queries/sec vs. thread count: executes `batch` through a QueryEngine at
/// each thread count (`repeats` times, keeping the best wall time) and
/// validates every run against the serial reference.
std::vector<ThroughputPoint> RunThroughputSweep(
    const FlatIndex& index, const std::vector<Query>& batch,
    const std::vector<size_t>& thread_counts, int repeats = 3);

}  // namespace flat

#endif  // FLAT_BENCHUTIL_THROUGHPUT_H_

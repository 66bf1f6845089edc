#include "benchutil/throughput.h"

#include <chrono>

#include "storage/buffer_pool.h"

namespace flat {
namespace {

using Clock = std::chrono::steady_clock;

bool SameCounts(const IoStats& a, const IoStats& b) {
  for (int c = 0; c < kNumPageCategories; ++c) {
    const PageCategory category = static_cast<PageCategory>(c);
    if (a.ReadsIn(category) != b.ReadsIn(category)) return false;
  }
  return true;
}

}  // namespace

SerialReference RunSerialReference(const FlatIndex& index,
                                   const std::vector<Query>& batch,
                                   size_t pool_pages) {
  SerialReference ref;
  ref.results.resize(batch.size());
  CrawlScratch scratch;  // reused across the loop, same as an engine worker
  IoStats unused;
  BufferPool pool(index.file(), &unused, pool_pages);
  const auto start = Clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    QueryResult& r = ref.results[i];
    // Clear() + set_stats() = a fresh cold pool per query (the paper's
    // methodology) at O(1) cost, same as an engine worker.
    pool.Clear();
    pool.set_stats(&r.io);
    DispatchQuery({&index, batch[i]}, &pool, &r, &scratch);
    ref.io += r.io;
  }
  ref.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return ref;
}

std::vector<ThroughputPoint> RunThroughputSweep(
    const FlatIndex& index, const std::vector<Query>& batch,
    const std::vector<size_t>& thread_counts, int repeats,
    QueryEngine::CacheMode cache_mode, size_t pool_pages) {
  const SerialReference ref = RunSerialReference(index, batch, pool_pages);

  std::vector<ThroughputPoint> points;
  points.reserve(thread_counts.size());
  for (size_t threads : thread_counts) {
    QueryEngine::Options options;
    options.threads = threads;
    options.pool_pages = pool_pages;
    // `pool_pages` is the cache bound in either mode: per-query pools when
    // cold, the shared striped cache when shared.
    options.shared_cache_pages = pool_pages;
    options.cache_mode = cache_mode;
    QueryEngine engine(&index, options);

    ThroughputPoint point;
    point.threads = threads;
    point.identical_to_serial = true;
    double best = -1.0;
    for (int rep = 0; rep < repeats; ++rep) {
      BatchStats stats;
      std::vector<QueryResult> results = engine.Run(batch, &stats);
      if (best < 0.0 || stats.wall_seconds < best) {
        best = stats.wall_seconds;
        point.total_reads = stats.io.TotalReads();
      }
      for (size_t i = 0; i < results.size(); ++i) {
        if (results[i].ids != ref.results[i].ids) {
          point.identical_to_serial = false;
        }
      }
      // Merged I/O totals must match serial exactly in cold-per-query mode;
      // the shared cache legitimately reads less.
      if (cache_mode == QueryEngine::CacheMode::kColdPerQuery &&
          !SameCounts(stats.io, ref.io)) {
        point.identical_to_serial = false;
      }
    }
    point.best_seconds = best;
    point.queries_per_second =
        best > 0.0 ? static_cast<double>(batch.size()) / best : 0.0;
    point.speedup = best > 0.0 ? ref.seconds / best : 0.0;
    points.push_back(point);
  }
  return points;
}

}  // namespace flat

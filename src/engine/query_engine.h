#ifndef FLAT_ENGINE_QUERY_ENGINE_H_
#define FLAT_ENGINE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/crawl_scratch.h"
#include "core/flat_index.h"
#include "core/query_control.h"
#include "geometry/aabb.h"
#include "parallel/thread_pool.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"

namespace flat {

/// One query in a batch submitted to the QueryEngine. Plain value type;
/// freely copyable and safe to share across threads once constructed.
struct Query {
  enum class Type {
    kRange,       ///< ids of elements intersecting `box` (seed + crawl).
    kRangeCount,  ///< count only, no id vector (reads: see RangeCount).
    kSeedScan,    ///< kRange answered via the seed tree alone (ablation plan).
    kKnn,         ///< `k` nearest element MBRs around `center`.
    kSphere,      ///< ids of elements intersecting the ball around `center`.
  };

  Type type = Type::kRange;
  Aabb box;                // kRange / kRangeCount / kSeedScan
  Vec3 center;             // kKnn / kSphere
  double radius = 0.0;     // kSphere
  size_t k = 0;            // kKnn
  FlatIndex::CrawlGuard guard = FlatIndex::CrawlGuard::kPartitionMbr;
  /// Optional fail-soft controls (deadline, cancel token, I/O budget; see
  /// core/query_control.h). Must outlive the batch. Null (default) runs the
  /// query to completion with zero overhead on the hot path — results and
  /// IoStats stay bit-identical to an uncontrolled run.
  const QueryControl* control = nullptr;

  static Query Range(
      const Aabb& box,
      FlatIndex::CrawlGuard guard = FlatIndex::CrawlGuard::kPartitionMbr) {
    Query q;
    q.type = Type::kRange;
    q.box = box;
    q.guard = guard;
    return q;
  }

  /// Count-only range query: reports only `QueryResult::count`, never
  /// materializing ids. It reads the same pages as Range only when the index
  /// has no aggregates; with them it runs the aggregate descent
  /// (FlatIndex::RangeCount) or the store's covered-shard shortcut.
  static Query RangeCount(const Aabb& box) {
    Query q;
    q.type = Type::kRangeCount;
    q.box = box;
    return q;
  }

  /// Range query executed through FlatIndex::RangeQueryViaSeedScan — the
  /// "use the seed tree as a plain R-Tree" ablation plan. Same result set as
  /// Range, different page reads.
  static Query RangeSeedScan(const Aabb& box) {
    Query q;
    q.type = Type::kSeedScan;
    q.box = box;
    return q;
  }

  static Query Knn(const Vec3& center, size_t k) {
    Query q;
    q.type = Type::kKnn;
    q.center = center;
    q.k = k;
    return q;
  }

  static Query Sphere(const Vec3& center, double radius) {
    Query q;
    q.type = Type::kSphere;
    q.center = center;
    q.radius = radius;
    return q;
  }
};

/// Result of one query: element ids in index traversal order (identical to
/// what the serial FlatIndex call produces) plus the query's own I/O
/// breakdown. For kRangeCount queries `ids` stays empty and `count` carries
/// the tally; for every other type `count == ids.size()`.
///
/// `status` reports the fail-soft outcome: kOk means the full, exact result;
/// any other status means the query stopped early (deadline, cancellation,
/// budget, I/O failure, admission shed) and `ids` holds the matches gathered
/// up to the stop point — a valid partial result, never torn, with
/// `count == ids.size()` still holding. kRangeCount partials carry the
/// tally accumulated so far (a lower bound on the exact count), mirroring
/// how partial kRange keeps the ids gathered so far; check `status` to
/// distinguish a partial tally from an exact one (core/query_control.h).
struct QueryResult {
  std::vector<uint64_t> ids;
  uint64_t count = 0;
  IoStats io;
  QueryStatus status = QueryStatus::kOk;
  /// Human-readable detail for kIoError (the underlying exception's what()).
  std::string error;

  bool ok() const { return status == QueryStatus::kOk; }
};

class OverlayView;

/// A query paired with the index it runs against, for multi-index batches
/// (e.g. the scatter phase of ShardedFlatStore). `index` may be null or
/// unbuilt, in which case the query yields an empty result — unless an
/// `overlay` is attached, in which case the sub-query still scans overlay
/// bucket `overlay_bucket` (this is how the spill-bucket tail sub-query of
/// an overlayed store runs with no shard index at all).
struct IndexedQuery {
  const FlatIndex* index = nullptr;
  Query query;
  /// Snapshot overlay to merge with the index's result: base ids touched by
  /// the overlay are masked out and live entries of `overlay_bucket` that
  /// match the query are appended (see DispatchQuery). Null for
  /// plain bulkload-only queries. The view must outlive the batch.
  const OverlayView* overlay = nullptr;
  size_t overlay_bucket = 0;
};

/// Runs `iq.query` against `iq.index` through `cache` via the serial
/// FlatIndex code path, appending ids into `result->ids` and setting
/// `result->count` — the single dispatch point behind the engine's workers,
/// its inline runner and the serial reference harnesses. `scratch` is the
/// caller's reusable crawl scratch (one per thread); nullptr falls back to a
/// throwaway — results are identical either way. Thread-safe for distinct
/// (cache, result, scratch) triples: FlatIndex queries are const and share
/// no mutable state.
///
/// With a non-empty `iq.overlay`, base ids the overlay touches are masked
/// out (a partial result's too, when the base pass stops early) and
/// matching live entries of bucket `iq.overlay_bucket` are appended/counted,
/// the gate tests charged to `result->io` as overlay probes; a null/unbuilt
/// index then degenerates to a pure bucket scan (no page reads). An
/// overlayed kRangeCount runs the materializing range path — seed + crawl,
/// Range's page reads even with aggregates attached — so delete masking can
/// see the ids, then reports only the count. kKnn over an overlay throws
/// std::logic_error. A null/empty overlay with a null/unbuilt index yields
/// an empty result.
void DispatchQuery(const IndexedQuery& iq, PageCache* cache,
                   QueryResult* result, CrawlScratch* scratch = nullptr);

/// Aggregate outcome of one batch execution.
struct BatchStats {
  /// Sum of every query's IoStats: identical — per category — to executing
  /// the batch serially with a cold cache per query (the paper's
  /// methodology).
  IoStats io;
  /// Sum of every query's `count` (ids for materializing queries, tallies
  /// for kRangeCount).
  uint64_t result_elements = 0;
  double wall_seconds = 0.0;
  size_t threads = 0;
  /// Fail-soft outcome tally: queries that completed exactly, queries that
  /// stopped early with a typed status (excluding sheds), and queries shed
  /// by admission control (kRejected).
  uint64_t queries_ok = 0;
  uint64_t queries_failed = 0;
  uint64_t queries_shed = 0;

  /// Adds one query's I/O, result count and outcome to the tallies.
  void Record(const QueryResult& result) {
    io += result.io;
    result_elements += result.count;
    if (result.status == QueryStatus::kOk) {
      ++queries_ok;
    } else if (result.status == QueryStatus::kRejected) {
      ++queries_shed;
    } else {
      ++queries_failed;
    }
  }
};

/// Parallel batch query engine.
///
/// A fixed ThreadPool (src/parallel/) executes a batch of queries through
/// ThreadPool's ParallelFor with a grain of one: each worker claims the next
/// unclaimed query off a shared cursor, so skewed batches (a few crawl-heavy
/// queries among many cheap ones) still balance. A batch of one query runs
/// on the calling thread as worker 0 without waking the pool. Each worker
/// owns one CrawlScratch and one BufferPool reused across all its queries,
/// keeping the crawl hot path allocation-free.
///
/// The engine runs in one of two shapes:
///  - bound to a single FlatIndex (the original API): `Run(vector<Query>)`.
///  - index-free (constructed from Options alone): `RunMulti` executes each
///    query against its own index — this is the fan-out primitive behind
///    ShardedFlatStore's scatter-gather, where one batch mixes sub-queries
///    for many shards and the pool balances across all of them.
///    (Distinctly named, not an overload, so `Run({...})` braced calls stay
///    unambiguous.)
///
/// Each query runs the unmodified serial FlatIndex code path, so per-query
/// result vectors are bit-identical to serial execution no matter the thread
/// count. I/O accounting is per query and merged into BatchStats: every
/// query gets a cold, unbounded BufferPool over its index's PageStore —
/// exactly the paper's benchmark methodology — so merged totals equal serial
/// execution's.
///
/// Thread-safety: construction and destruction must happen on one thread;
/// `Run` must not be called concurrently from multiple threads (queue the
/// batches instead — that is what a batch is for). The indexes queried must
/// stay alive and unmodified for the duration of `Run`.
class QueryEngine {
 public:
  struct Options {
    /// Worker threads (0 means std::thread::hardware_concurrency()).
    size_t threads = 0;
    /// Admission control: when non-zero, at most this many queries of a
    /// batch are admitted; the excess (batch tail, in order) comes back
    /// immediately with status kRejected and no I/O, and is counted in
    /// BatchStats::queries_shed / IoStats::QueriesShed. 0 (default) admits
    /// everything.
    size_t max_queued_queries = 0;
  };

  /// Engine bound to one index; `Run(vector<Query>)` targets it.
  explicit QueryEngine(const FlatIndex* index)
      : QueryEngine(index, Options()) {}
  QueryEngine(const FlatIndex* index, Options options);

  /// Index-free engine for multi-index batches; only RunMulti may be used
  /// (the single-index Run throws std::logic_error).
  explicit QueryEngine(Options options) : QueryEngine(nullptr, options) {}

  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Executes `batch` against the bound index, returning one QueryResult per
  /// query in batch order. Requires construction with a non-null index
  /// (throws std::logic_error on an index-free engine).
  std::vector<QueryResult> Run(const std::vector<Query>& batch,
                               BatchStats* stats = nullptr);

  /// Executes a multi-index batch: each query runs against its own
  /// IndexedQuery::index. Queries with a null/unbuilt index yield empty
  /// results (and no I/O). All indexes' PageStores may differ.
  std::vector<QueryResult> RunMulti(const std::vector<IndexedQuery>& batch,
                                    BatchStats* stats = nullptr);

  /// The inline, one-thread runner: executes a multi-index batch serially
  /// on the calling thread with default Options (cold cache per query, no
  /// admission control) — RunMulti's body with no pool. Stateless, so any
  /// number of threads may call it at once; results and IoStats are
  /// identical to RunMulti on an engine with default Options, at any thread
  /// count.
  static std::vector<QueryResult> RunInline(
      const std::vector<IndexedQuery>& batch);

  size_t threads() const { return pool_.threads(); }
  const Options& options() const { return options_; }

 private:
  /// Per-worker reusable state: the crawl scratch plus one BufferPool
  /// recycled across the worker's queries — Clear() (an O(1) epoch bump)
  /// plus set_stats() gives every query the same cold cache and per-query
  /// accounting a fresh pool would, without re-allocating the pool's page
  /// table each time. The pool is rebuilt only when a multi-index batch
  /// switches the worker to a different PageStore. Cache-line aligned so
  /// neighboring workers' crawl cursors never share a line.
  struct alignas(64) WorkerState {
    CrawlScratch scratch;
    std::unique_ptr<BufferPool> pool;
  };

  /// RunMulti's and RunInline's one body: sheds the batch tail beyond
  /// `max_queued_queries` (0 = admit all), then runs the admitted prefix
  /// through ParallelFor on `pool` (null: serially on the calling thread),
  /// worker w using `workers[w]`.
  static std::vector<QueryResult> RunOn(ThreadPool* pool,
                                        size_t max_queued_queries,
                                        WorkerState* workers,
                                        const std::vector<IndexedQuery>& batch);
  static void ExecuteQuery(const IndexedQuery& iq, QueryResult* result,
                           WorkerState* state);

  const FlatIndex* index_;
  Options options_;

  ThreadPool pool_;
  std::vector<WorkerState> workers_;  // one per worker
};

}  // namespace flat

#endif  // FLAT_ENGINE_QUERY_ENGINE_H_

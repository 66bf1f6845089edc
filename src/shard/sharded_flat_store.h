#ifndef FLAT_SHARD_SHARDED_FLAT_STORE_H_
#define FLAT_SHARD_SHARDED_FLAT_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/flat_index.h"
#include "engine/query_engine.h"
#include "shard/shard_catalog.h"
#include "storage/disk_page_file.h"
#include "storage/io_stats.h"
#include "storage/page_file.h"
#include "storage/page_store.h"

namespace flat {

class OverlayView;

/// A horizontally sharded FLAT store: one data set spatially partitioned into
/// K independent FlatIndexes ("shards"), each in its own PageFile, behind a
/// single catalog and a scatter-gather query façade — plus an LSM-style
/// **delta overlay** that makes the bulkloaded store dynamic.
///
/// Why: a single FLAT index is bounded by one PageFile and one build; the
/// serving scenario (ROADMAP) needs data sets larger than that, bulk-built in
/// parallel and queried across volumes. Sharding is the horizontal layer:
///
///  - **Split.** A top-level STR pass (the same Sort-Tile-Recursive machinery
///    as Algorithm 1, via StrPartition with shard-sized capacity) divides the
///    elements into ~`num_shards` spatially tight, disjoint element sets.
///    The split's shard membership depends only on the element set, so
///    the shard assignment — and every shard's PageFile — is
///    byte-identical for any thread count and input order.
///  - **Build.** Each shard's FlatIndex is bulk-built independently; shard
///    builds fan out over a shared ThreadPool (one serial build per worker at
///    a time), so K shards build in parallel end to end.
///  - **Catalog.** Shard MBRs, tiles, element counts, descriptors and
///    PageFile names persist in a versioned ShardCatalog
///    (docs/file_format.md); Save/Load round-trips the whole store through a
///    directory, including the overlay WAL and the generation sidecar.
///  - **Query.** Every query runs through one executor — scatter, dispatch,
///    gather. Range / range-count / seed-scan / sphere queries scatter to
///    every shard whose element bounds intersect the query, dispatch as one
///    multi-index batch (the engine's workers claim sub-queries one at a
///    time across all shards, cold cache per sub-query), and gather into a
///    canonically ordered merge. A single query is a batch of one; a
///    Snapshot runs the same executor on the engine's inline, one-thread
///    runner.
///
/// **Delta overlay (dynamic updates).** The bulkloaded shards are immutable;
/// Insert/Erase append to an in-memory DeltaLog instead (src/delta/). Every
/// query runs against a *snapshot*: an immutable base (catalog + shard
/// files) plus an OverlayView folding the log window the base has not
/// absorbed — base ids the window touches are masked out, live overlay
/// entries that match are merged in, all in the store's canonical ascending
/// id order (src/core/overlay_merge.h). Insert is an upsert (re-inserting an
/// existing id replaces its box); erasing an absent id is a no-op. The log
/// position is the store's **epoch**: PinSnapshot captures (base, epoch) so
/// any number of threads can query one consistent view — snapshot isolation
/// — while a writer appends and compaction runs. `Compact` folds the window
/// into a fresh parallel bulkload and atomically swaps the base; the
/// compacted store's shard PageFiles are byte-identical to a fresh Build of
/// the merged elements (enforced by tests/snapshot_isolation_test.cc).
///
/// Result contract: `RangeQuery` returns ids sorted ascending. Because the
/// shards partition the elements (each element lives in exactly one shard)
/// and overlay-live ids are masked out of base results before the overlay's
/// matches are appended, the concatenation of per-shard results contains no
/// duplicates, and its sorted form is bit-identical to the sorted result of
/// one unsharded FlatIndex over the merged data — enforced by
/// tests/sharded_store_test.cc and tests/delta_overlay_test.cc. Merged
/// IoStats are the exact per-category sum of the per-shard cold-cache
/// executions plus the snapshot's overlay probes, independent of thread
/// count.
///
/// Thread-safety: store-level queries (RangeQuery .. RunBatch) must be
/// driven from one thread at a time (the engine parallelizes internally).
/// Insert/Erase/PinSnapshot/epoch may be called concurrently with each
/// other, with store-level queries, and with one Compact; Snapshot query
/// methods are fully thread-safe (const, inline, engine-free). The store
/// owns its PageFiles; moving the store is safe, copying is disabled.
class ShardedFlatStore {
 private:
  struct Base;          // one immutable bulkload: catalog + files + indexes
  struct DynamicState;  // the swap-able base handle + the delta log

 public:
  struct Options {
    /// Target shard count. The STR split tiles space with roughly this many
    /// partitions; the actual count (`shard_count()`) can differ slightly
    /// for awkward element/shard ratios. 1 always yields exactly one shard.
    size_t num_shards = 4;
    /// Worker threads for the shard builds and the query engine: 1 (default)
    /// is serial, 0 uses std::thread::hardware_concurrency(). Results and
    /// I/O totals are identical for every value.
    size_t num_threads = 1;
    /// Page size of every shard's PageFile.
    uint32_t page_size = kDefaultPageSize;
    /// Build per-shard subtree-count aggregates
    /// (FlatIndex::BuildOptions::aggregate_counts): RangeCount prunes
    /// covered subtrees via the sidecars, and sub-queries whose whole shard
    /// is covered by the query are answered from the catalog's element
    /// counts without touching the shard at all (overlay windows disable
    /// the shard-level shortcut — overlays must descend exactly). Shard
    /// PageFiles stay byte-identical either way; Save writes one
    /// "<shard>.pgf.agg" sidecar per shard and Load re-attaches them.
    /// Counts and results are bit-identical to the unpruned store
    /// (tests/aggregate_index_test.cc). Off by default.
    bool aggregate_counts = false;
  };

  /// Build timings and per-shard breakdowns.
  struct BuildStats {
    double split_seconds = 0.0;  ///< top-level STR scatter of the elements.
    double build_seconds = 0.0;  ///< parallel per-shard FlatIndex builds.
    size_t shards = 0;
    uint64_t elements = 0;
    std::vector<FlatIndex::BuildStats> per_shard;
  };

  /// Outcome of one Compact call.
  struct CompactionStats {
    uint64_t folded_ops = 0;      ///< log ops folded into the new base.
    uint64_t deleted = 0;         ///< base elements masked out by the fold.
    uint64_t inserted = 0;        ///< live overlay entries merged in.
    uint64_t merged_elements = 0; ///< element count of the new base.
    uint64_t generation = 0;      ///< generation of the new base.
    double seconds = 0.0;         ///< wall time of the whole compaction.
    BuildStats build;             ///< the rebuild's own stats.
  };

  /// A pinned, immutable view of the store at one epoch: the base the store
  /// had when pinned plus the overlay window [base floor, epoch). Queries
  /// against a Snapshot see exactly that state no matter how many
  /// Insert/Erase/Compact calls land afterwards, and are bit-identical to
  /// the store-level entry points at the same epoch. Snapshot query methods
  /// run inline on the calling thread (QueryEngine::RunInline) and are safe
  /// to call concurrently from any number of threads; copying a Snapshot
  /// is cheap (shared handles). Holding a Snapshot keeps its base (and its
  /// PageFiles) alive across compactions.
  class Snapshot {
   public:
    Snapshot() = default;

    /// Same contracts as the store-level counterparts, evaluated at the
    /// pinned epoch. `io` additionally receives the overlay probe count.
    std::vector<uint64_t> RangeQuery(const Aabb& query,
                                     IoStats* io = nullptr) const;
    uint64_t RangeCount(const Aabb& query, IoStats* io = nullptr) const;
    std::vector<uint64_t> RangeQueryViaSeedScan(const Aabb& query,
                                                IoStats* io = nullptr) const;
    std::vector<uint64_t> SphereQuery(const Vec3& center, double radius,
                                      IoStats* io = nullptr) const;

    /// The log position this snapshot pins (number of ops it observes).
    uint64_t epoch() const { return epoch_; }
    /// Generation of the pinned base (0 for a default-constructed store).
    uint64_t generation() const;
    /// Live overlay entries merged at this snapshot (0 when none).
    uint64_t overlay_live_count() const;
    size_t shard_count() const;

   private:
    friend class ShardedFlatStore;

    /// The store's one query executor. Scatter: each query of `batch`
    /// fans out to its routed shards plus, when an overlay is pinned, the
    /// spill-bucket tail. Dispatch: all sub-queries run as one multi-index
    /// batch — on `engine` when given, else inline on the calling thread.
    /// Gather: per query, sub-results merge in canonical sorted order.
    /// Throws std::invalid_argument for kKnn (see RunBatch).
    std::vector<QueryResult> Execute(const std::vector<Query>& batch,
                                     QueryEngine* engine = nullptr) const;

    std::shared_ptr<const Base> base_;
    std::shared_ptr<const OverlayView> overlay_;
    uint64_t epoch_ = 0;
  };

  /// An empty store with no shards (and no engine): every query answers
  /// empty, mirroring an unbuilt FlatIndex — but Insert/Erase work, making
  /// it a valid overlay-only store (queries answer from the overlay alone,
  /// inline). Use Build or Load for a real bulkloaded store.
  ShardedFlatStore();
  ~ShardedFlatStore();
  ShardedFlatStore(ShardedFlatStore&&);
  ShardedFlatStore& operator=(ShardedFlatStore&&);
  ShardedFlatStore(const ShardedFlatStore&) = delete;
  ShardedFlatStore& operator=(const ShardedFlatStore&) = delete;

  /// Splits `elements` into shards and bulk-builds every shard's FlatIndex.
  /// `elements` is consumed. An empty input yields a store with zero shards
  /// whose queries all return empty. The built store has generation 1 and an
  /// empty overlay.
  static ShardedFlatStore Build(std::vector<RTreeEntry> elements,
                                const Options& options,
                                BuildStats* stats = nullptr);

  /// Appends an insert to the delta overlay and returns the new epoch.
  /// Upsert semantics: if `entry.id` already exists (in the base or the
  /// overlay), the new box replaces the old one at this epoch.
  uint64_t Insert(const RTreeEntry& entry);

  /// Appends a delete for `id` and returns the new epoch. Deleting an id
  /// that does not exist is a no-op on query results.
  uint64_t Erase(uint64_t id);

  /// Number of overlay ops appended so far; the epoch a PinSnapshot issued
  /// now would observe. Monotone, never reset (compaction moves the base's
  /// floor forward instead).
  uint64_t epoch() const;

  /// Generation of the current base: 1 after Build, +1 per Compact, 0 for a
  /// default-constructed store.
  uint64_t generation() const;

  /// Ops in the current overlay window (epoch() minus the base's floor) —
  /// the amount of work the next Compact would fold.
  uint64_t overlay_op_count() const;

  /// Pins the current (base, epoch) pair. O(window) — the overlay view is
  /// materialized here, once, so the snapshot's queries don't re-fold.
  Snapshot PinSnapshot() const;

  /// Folds the current overlay window into a fresh parallel bulkload of the
  /// merged elements (base minus touched ids plus live overlay entries,
  /// built with the store's own Options) and atomically swaps it in as the
  /// new base, bumping the generation. Pinned Snapshots keep reading the
  /// old base; the log itself is untouched — the new base's floor simply
  /// moves past the folded window. Safe to run from a background thread
  /// concurrently with writers, PinSnapshot and snapshot queries; one
  /// Compact runs at a time (later callers queue on an internal mutex).
  /// The new base's shard PageFiles are byte-identical to
  /// Build(merged elements, options) — the hard invariant
  /// tests/snapshot_isolation_test.cc enforces.
  CompactionStats Compact();

  /// Ids of all elements whose MBR intersects `query`, sorted ascending
  /// (canonical order; see class comment). `io` (optional) receives the
  /// per-category sum of all per-shard cold-cache reads plus overlay
  /// probes. Evaluated at the current epoch (pins a snapshot internally).
  std::vector<uint64_t> RangeQuery(const Aabb& query,
                                   IoStats* io = nullptr) const;

  /// Number of elements RangeQuery would return, without materializing ids.
  /// Reads the same pages as RangeQuery only without aggregates; with
  /// Options::aggregate_counts it takes the covered-shard shortcut or each
  /// shard's planned count (FlatIndex::RangeCount): the crawl on small
  /// boxes, the aggregate descent on large ones, and stored counts for
  /// records the box provably covers (BENCH_aggregate.json).
  uint64_t RangeCount(const Aabb& query, IoStats* io = nullptr) const;

  /// RangeQuery answered through each shard's seed tree alone (the seed-scan
  /// ablation plan) — same sorted id set, different page reads.
  std::vector<uint64_t> RangeQueryViaSeedScan(const Aabb& query,
                                              IoStats* io = nullptr) const;

  /// Ids of all elements intersecting the closed ball, sorted ascending.
  std::vector<uint64_t> SphereQuery(const Vec3& center, double radius,
                                    IoStats* io = nullptr) const;

  /// Scatter-gather batch execution: the batch pins ONE snapshot (every
  /// query in it sees the same epoch), every query fans out to its
  /// overlapping shards plus — when an overlay is pinned — its overlay
  /// buckets, all sub-queries run as ONE multi-index engine batch (so the
  /// engine's pool balances across queries and shards alike), and
  /// per-query results are gathered in canonical sorted order.
  /// Supported types: kRange, kRangeCount, kSeedScan, kSphere. kKnn throws
  /// std::invalid_argument — a global k-merge needs distance-annotated
  /// results, which the gather does not have yet.
  ///
  /// Fail-soft: a query carrying a QueryControl threads it into every
  /// scattered sub-query under a shared QueryGroup, so one failing shard
  /// (deadline, budget, I/O error) poisons the group and its siblings stop
  /// at their next cancellation point instead of completing work that will
  /// be discarded. The merged QueryResult reports the group's originating
  /// status; its ids are the (sorted) union of whatever the sub-queries
  /// gathered — a valid partial result. Queries without a control are
  /// unaffected, bit-identical to before.
  std::vector<QueryResult> RunBatch(const std::vector<Query>& batch,
                                    BatchStats* stats = nullptr) const;

  /// Persists the store into directory `dir` (created if needed): one
  /// "shard-NNNN.pgf" PageFile per shard, "catalog.flatshard", the overlay
  /// WAL "overlay.flatwal" (the current window, possibly empty) and the
  /// "generation.flatgen" sidecar. Existing files with those names are
  /// overwritten — unless the directory's sidecar records a NEWER
  /// generation than this store's, in which case Save throws
  /// std::runtime_error ("stale generation"): a store must never clobber a
  /// directory that already holds a later compaction of itself.
  void Save(const std::string& dir) const;

  /// Reopens a store previously written by Save, serving every shard
  /// through a DiskPageFile: pages come from an mmap'd (fallback: pread)
  /// read-only view of the shard file — real out-of-core execution.
  /// `num_threads` configures the reopened store's query engine (1 =
  /// serial, 0 = hardware concurrency). The overlay WAL is replayed, so
  /// queries behave identically to the saved store's. Shards saved with
  /// aggregate sidecars reattach them and turn Options::aggregate_counts
  /// on, so Compact rebuilds them as the saving store would. Throws
  /// std::runtime_error on a missing or corrupt catalog, page file or WAL,
  /// on a catalog entry of a non-empty shard without a tile-directory root,
  /// and on a stale catalog: one whose generation regressed behind the
  /// directory's "generation.flatgen" sidecar (e.g. a pre-compaction
  /// catalog restored into a post-compaction directory).
  ///
  /// `disk_options` (may be null for the defaults) configures every shard's
  /// DiskPageFile — access mode, retry policy and the fault-injection
  /// schedule used by the robustness tests/benches.
  /// Must outlive nothing: the options are copied at Open (though a non-null
  /// Options::fault_schedule must outlive the store).
  static ShardedFlatStore Load(const std::string& dir, size_t num_threads = 1,
                               const DiskPageFile::Options* disk_options =
                                   nullptr);

  size_t shard_count() const;
  /// The current base's catalog. The reference stays valid until the next
  /// Compact swaps the base (pin a Snapshot to hold it longer).
  const ShardCatalog& catalog() const;
  const BuildStats& build_stats() const { return build_stats_; }

  /// Direct access to one shard's index and PageStore (bench/test hooks).
  /// A built store's shards are in-memory PageFiles; a loaded store's are
  /// DiskPageFiles. Same lifetime caveat as catalog().
  const FlatIndex& shard_index(size_t shard) const;
  const PageStore& shard_file(size_t shard) const;

 private:
  static std::shared_ptr<const Base> BuildBase(std::vector<RTreeEntry> elements,
                                               const Options& options,
                                               uint64_t generation,
                                               uint64_t overlay_floor,
                                               BuildStats* stats);

  void AttachEngine(size_t num_threads);

  std::unique_ptr<DynamicState> state_;
  std::unique_ptr<QueryEngine> engine_;  // multi-index, owns pool
  Options options_;
  BuildStats build_stats_;
};

}  // namespace flat

#endif  // FLAT_SHARD_SHARDED_FLAT_STORE_H_

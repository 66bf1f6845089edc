#ifndef FLAT_CORE_FLAT_INDEX_H_
#define FLAT_CORE_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/crawl_scratch.h"
#include "core/metadata.h"
#include "core/partitioner.h"
#include "geometry/aabb.h"
#include "rtree/aggregates.h"
#include "rtree/entry.h"
#include "storage/page_cache.h"
#include "storage/page_file.h"
#include "storage/page_store.h"

namespace flat {

/// FLAT: the paper's two-phase index for dense spatial data.
///
/// Usage:
///
///   PageFile file;                       // simulated disk
///   FlatIndex index = FlatIndex::Build(&file, elements);
///   IoStats stats;
///   BufferPool pool(&file, &stats);
///   std::vector<uint64_t> result;
///   index.RangeQuery(&pool, query_box, &result);
///
/// Build bulkloads (the data sets "change only slowly, if at all"; no updates
/// by design — Section I). Queries run the seed phase (find one record to
/// start from, by point location in the tile directory) followed by the
/// crawl phase (BFS over neighbor pointers, Algorithm 2); their I/O is
/// charged to the BufferPool's IoStats under the kSeedInternal / kSeedLeaf
/// / kObject categories, reproducing the paper's Figure 14/18 breakdowns.
///
/// Thread-safety: a built (or attached) FlatIndex is immutable, and every
/// query entry point is const and touches no shared mutable state — queries
/// may run concurrently from any number of threads provided each thread
/// uses its own PageCache (and its own CrawlScratch, when passed). That is
/// exactly how the QueryEngine parallelizes batches. Build/Attach/move must
/// not race with queries on the same object.
///
/// Fail-soft execution: when the caller's CrawlScratch has a QueryControl
/// bound (CrawlScratch::BindControl — the QueryEngine dispatch layer does
/// this), the seed phase checks it before its lookup, and the crawl BFS and
/// the seed-tree walks once per frontier pop and per object-page probe,
/// throwing QueryAbort with the typed status when a deadline/cancel/budget
/// trips. With no control bound the checks are one predictable branch each
/// and results are bit-identical to builds that predate them. The storage backend may also throw std::runtime_error on
/// unrecoverable I/O failure; the dispatch layer converts either into
/// QueryResult::status (core/query_control.h, engine/query_engine.h).
class FlatIndex {
 public:
  /// Timing and layout information captured during Build, matching the
  /// phases reported in Figure 10 and the size breakdown of Figure 11.
  struct BuildStats {
    double partition_seconds = 0.0;  ///< STR selection + tile
                                     ///< ("Partitioning").
    double neighbor_seconds = 0.0;   ///< tile grid join
                                     ///< ("Finding Neighbors").
    double write_seconds = 0.0;      ///< object pages + seed tree.
    size_t partitions = 0;
    size_t object_pages = 0;
    size_t seed_leaf_pages = 0;
    size_t seed_internal_pages = 0;  ///< includes directory_pages
    size_t directory_pages = 0;      ///< tile directory (core/tile_directory.h)
    uint64_t neighbor_pointers = 0;
    uint64_t metadata_bytes = 0;  ///< serialized record bytes (excl. padding).
    int seed_height = 0;          ///< seed tree levels incl. leaf level.
  };

  /// Per-partition figures kept in memory for the Figure 20/21 analyses.
  struct PartitionProfile {
    double partition_volume = 0.0;
    uint32_t neighbor_count = 0;
  };

  /// Which box gates neighbor expansion during the crawl. kPartitionMbr
  /// gates on the record's stored tile (MetadataRecordView::tile), which
  /// the paper's stretched partition MBR contains; either keeps the crawl
  /// exact, while the page MBR alone does not (Figures 8/9). kPageMbr
  /// exists only for the `bench_ablation_crawl_guard` experiment
  /// demonstrating that failure; it needs a start whose page MBR meets the
  /// query (see Crawl).
  enum class CrawlGuard { kPartitionMbr, kPageMbr };

  /// Options for the build pipeline.
  struct BuildOptions {
    /// Worker threads: 1 (default) builds serially on the calling thread,
    /// 0 uses std::thread::hardware_concurrency(). Every thread count
    /// produces a byte-identical PageFile — the STR passes depend only on
    /// the element set, each object page is sorted by EntryCenterOrder,
    /// and all page writes happen at deterministic PageIds
    /// (verified by tests/parallel_build_test.cc).
    size_t num_threads = 1;

    /// Compute per-subtree aggregates (element and page counts per child
    /// pointer — rtree/aggregates.h) during the build and attach them to
    /// the returned index, enabling the covered-node pruning fast paths:
    /// RangeCount answers fully-covered subtrees, and records whose
    /// elements all meet the query, from the stored counts without reading
    /// below them, and RangeQueryViaSeedScan batch-copies such records'
    /// object pages without per-element gates. The aggregates
    /// live in a sidecar keyed by (page, slot): the PageFile bytes are
    /// identical with or without this option, and pruned query results and
    /// counts are bit-identical to the unpruned paths
    /// (tests/aggregate_index_test.cc). Silently skipped — the index then
    /// reports has_aggregates() == false and every query runs the exact
    /// paths — when any element box is empty or non-finite, since such
    /// elements are invisible to the intersection gates but would be
    /// included in stored counts. Off by default.
    bool aggregate_counts = false;
  };

  /// An unbuilt index: empty() is true, queries have no PageFile to read
  /// from and must not be issued (engines treat such an index as "no data").
  FlatIndex() = default;

  /// Bulkloads `elements` into a fresh FLAT index appended to `file`.
  /// Elements are reordered (STR) in the process.
  static FlatIndex Build(PageFile* file, std::vector<RTreeEntry> elements,
                         BuildStats* stats = nullptr);

  /// As above, with the parallel build pipeline: STR selection passes, the
  /// neighbor join, and page serialization all fan out over
  /// `options.num_threads` workers, with the per-phase BuildStats timings
  /// still measured at the (sequential) phase boundaries.
  static FlatIndex Build(PageFile* file, std::vector<RTreeEntry> elements,
                         const BuildOptions& options,
                         BuildStats* stats = nullptr);

  /// True when the index holds no elements (never built, or built empty).
  bool empty() const { return seed_root_ == kInvalidPageId; }

  /// Appends the ids of all elements whose MBR intersects `query`.
  ///
  /// `scratch` (optional, here and on every other query entry point) is the
  /// caller-owned crawl scratch: pass the same instance across queries — one
  /// per thread — to make the crawl hot path allocation-free. nullptr uses a
  /// throwaway scratch; results and I/O are identical either way.
  void RangeQuery(PageCache* pool, const Aabb& query,
                  std::vector<uint64_t>* out,
                  CrawlScratch* scratch = nullptr) const;

  /// Number of elements RangeQuery would return, without materializing the
  /// id vector. Without aggregates the crawl tallies the batched gate tests
  /// directly and reads the same pages as RangeQuery, so IoStats match it
  /// exactly. With aggregates attached (BuildOptions::aggregate_counts /
  /// AttachAggregates) a record whose elements all meet the query (the
  /// query contains its page MBR or its stored tile) adds its stored count
  /// instead of reading its object page, and the count picks one of two
  /// plans by the query's volume. Boxes smaller than four seed leaves'
  /// share of the data bounds crawl as above, from the tile directory;
  /// larger ones, and every box on a single-leaf index, descend the seed
  /// tree, where a child whose box the query contains adds its
  /// stored subtree count with zero reads below it and only boundary
  /// subtrees are descended and gated exactly. Same count on every plan;
  /// far fewer reads on large boxes, and no descent down several
  /// overlapping seed nodes on small ones.
  size_t RangeCount(PageCache* pool, const Aabb& query,
                    CrawlScratch* scratch = nullptr) const;

  /// RangeCount that *adds into* `*acc` as matches accumulate, rather than
  /// returning the tally at the end. The engine dispatch layer counts
  /// through this so a query stopped mid-flight by its QueryControl keeps
  /// the elements counted so far as a valid partial result (consistent with
  /// partial RangeQuery keeping its ids — see core/query_control.h).
  void RangeCountInto(PageCache* pool, const Aabb& query, uint64_t* acc,
                      CrawlScratch* scratch = nullptr) const;

  /// Appends the ids of all elements whose MBR intersects the closed ball
  /// around `center` — the structural-neighborhood primitive of Section
  /// III-A ("all elements within a distance of 5 µm"). Seeds and crawls
  /// with the ball's bounding box, filtering elements by exact
  /// box-to-sphere distance.
  void SphereQuery(PageCache* pool, const Vec3& center, double radius,
                   std::vector<uint64_t>* out,
                   CrawlScratch* scratch = nullptr) const;

  /// The ids of (at least) the `k` elements whose MBRs are closest to
  /// `center`, nearest first. Implemented as iterative-deepening sphere
  /// crawls: start from half the page-MBR diagonal of the record whose tile
  /// holds `center` when its object page holds an element containing
  /// `center` (else from 1.0), and double until k elements are inside —
  /// every probe is a cheap seed+crawl, so the cost stays proportional to
  /// the neighborhood size, in the spirit of the paper's incremental
  /// structural-neighborhood use case.
  std::vector<uint64_t> KnnQuery(PageCache* pool, const Vec3& center, size_t k,
                                 CrawlScratch* scratch = nullptr) const;

  /// Compact handle describing a built index inside its PageFile; together
  /// with the PageFile contents this is everything needed to re-attach the
  /// index (see storage/persistence.h).
  struct Descriptor {
    PageId seed_root = kInvalidPageId;
    bool root_is_leaf = false;
    int seed_height = 0;
    /// Root of the tile directory (core/tile_directory.h); every non-empty
    /// index has one.
    PageId directory_root = kInvalidPageId;
  };

  /// The handle to persist alongside the PageFile (see Attach).
  Descriptor descriptor() const {
    return Descriptor{seed_root_, root_is_leaf_, seed_height_,
                      directory_root_};
  }

  /// Re-attaches an index previously built into `file` — any PageStore
  /// holding the same bytes: the in-memory PageFile it was built into, or a
  /// DiskPageFile opened over the saved form. Build statistics and
  /// partition profiles are not persisted; queries behave identically
  /// regardless of backend. Throws std::runtime_error for a non-empty
  /// descriptor without a directory root (one saved before every index had
  /// a tile directory).
  static FlatIndex Attach(const PageStore* file, const Descriptor& descriptor);

  /// Seed phase only: the record RangeQuery crawls from. The record whose
  /// stored tile holds the center of `query`'s overlap with the index bounds
  /// (the union of the stored tiles), found by point location in the tile
  /// directory, or nullopt exactly when that overlap is empty. The record's
  /// tile meets the query, but its object page need not hold a hit, and a
  /// query with no hits inside the bounds still gets a record. Reads the
  /// directory pages (kSeedInternal, at most three) and no seed leaf or
  /// object page; an empty `query` reads nothing. Checks the control of
  /// `scratch`, when given, before its first read.
  std::optional<RecordRef> Seed(PageCache* pool, const Aabb& query,
                                CrawlScratch* scratch = nullptr) const;

  /// Crawl phase only (Algorithm 2), starting BFS at `start`. Exposed so
  /// tests can verify seed-choice independence: every record whose page MBR
  /// intersects the query, and the record Seed returns, is a valid start
  /// and yields the same result set. The kPageMbr ablation guard needs a
  /// start whose page MBR meets the query, such as the first record
  /// FindAllCandidateRecords returns.
  void Crawl(PageCache* pool, const Aabb& query, RecordRef start,
             std::vector<uint64_t>* out,
             CrawlGuard guard = CrawlGuard::kPartitionMbr,
             CrawlScratch* scratch = nullptr) const;

  /// Crawl phase of SphereQuery, starting BFS at `start`: any record whose
  /// page MBR intersects the ball's bounding box, and the record Seed
  /// returns for that box, is a valid start.
  void CrawlSphere(PageCache* pool, const Vec3& center, double radius,
                   RecordRef start, std::vector<uint64_t>* out,
                   CrawlScratch* scratch = nullptr) const;

  /// All record addresses whose object page passes `query`'s gate (its
  /// page MBR and a half-page box meet it, MetadataRecordView::
  /// ObjectPageMeets), in seed-walk order; test hook for the seed-
  /// independence property and the start of the kPageMbr ablation crawl
  /// (walks through an uncharged pool).
  std::vector<RecordRef> FindAllCandidateRecords(const Aabb& query) const;

  /// Ablation baseline ("why crawl?"): answers the range query by a plain
  /// hierarchical traversal of the seed tree — descend every subtree whose
  /// MBR intersects the query, read each candidate record's object page —
  /// i.e., use the seed structure as an ordinary R-Tree and ignore the
  /// neighbor pointers. Charged through `pool` like RangeQuery, so
  /// `bench_ablation_seed_strategy` can compare the two execution plans.
  void RangeQueryViaSeedScan(PageCache* pool, const Aabb& query,
                             std::vector<uint64_t>* out,
                             CrawlScratch* scratch = nullptr) const;

  /// Timings and layout figures of the Build that produced this index
  /// (zeroed for attached indexes — they are not persisted).
  const BuildStats& build_stats() const { return build_stats_; }

  /// Per-partition volume/neighbor figures for the Figure 20/21 analyses
  /// (empty for attached indexes).
  const std::vector<PartitionProfile>& partition_profiles() const {
    return partition_profiles_;
  }

  /// Height of the seed tree (levels including the metadata leaf level).
  int seed_height() const { return seed_height_; }

  /// The PageStore this index reads from (nullptr before Build/Attach).
  /// Query engines use it to construct per-worker page caches.
  const PageStore* file() const { return file_; }

  /// Attaches a loaded aggregate sidecar (rtree/aggregates.h) to an
  /// attached index, enabling the covered-node pruning fast paths exactly
  /// as BuildOptions::aggregate_counts does at build time. Shared because
  /// sharded snapshots hand the same immutable index (and sidecar) to many
  /// workers. Passing nullptr detaches. Also fixes RangeCount's plan rule
  /// from the sidecar's seed-leaf groups and the root page's bounds (read
  /// once, uncharged); a single-leaf index, or a root page that fails the
  /// seed walk's checks, keeps every count on the descent, which reports a
  /// bad root at query time.
  void AttachAggregates(std::shared_ptr<const SeedAggregates> aggregates);

  /// True when subtree aggregates are attached (pruning paths active).
  bool has_aggregates() const { return aggregates_ != nullptr; }

  /// The attached sidecar, or nullptr (tests and persistence use this).
  const std::shared_ptr<const SeedAggregates>& aggregates() const {
    return aggregates_;
  }

 private:
  // The seed and crawl phases are generic over how elements are matched
  // (box intersection, sphere distance, ...) and what happens per object
  // page (append ids, count, ...). Templates keep the hot loops free of
  // std::function indirection; all instantiations live in flat_index.cc.

  // The one walk of the seed tree, behind RangeCount's descent,
  // RangeQueryViaSeedScan and FindAllCandidateRecords: depth first,
  // children first to last, each internal page gated once against `gate`.
  // Calls visit(ref, record, scratch) for every record whose object page
  // passes `gate` (ObjectPageMeets). A `covered` callback (aggregated indexes only) adds the
  // containment mask: each child whose box `gate` contains, and each
  // record whose elements all meet `gate` (AllElementsMeet in
  // flat_index.cc), goes to covered(page, slot) first, and true means
  // answered, not descended or visited. Uses `scratch` when given, else a
  // throwaway, and checks its control once per popped page. Throws
  // std::runtime_error naming the page when an internal page's format byte
  // is not 0 (exact), its level is not one below its parent's, or its entry
  // count exceeds NodeCapacity(page_size).
  template <typename Visit, typename Covered = std::nullptr_t>
  void WalkSeedTree(PageCache* pool, const Aabb& gate, CrawlScratch* scratch,
                    const Visit& visit,
                    const Covered& covered = nullptr) const;

  // Generalized crawl (Algorithm 2): BFS over neighbor pointers, calling
  // scan(page_data, scratch) for every object page whose page MBR and one of
  // whose half-page boxes meet the query gate (ObjectPageMeets). A record whose tile meets the gate skips the cross-leaf
  // pointers whose hints miss it. A `covered` callback (aggregated indexes
  // only) is asked first, as in WalkSeedTree, for each such record whose
  // elements all meet the gate; true means answered, and its object page is
  // not read. Uses `scratch` when given, else a throwaway.
  template <typename ScanPage, typename Covered = std::nullptr_t>
  void CrawlPages(PageCache* pool, const Aabb& gate, RecordRef start,
                  CrawlGuard guard, CrawlScratch* scratch,
                  const ScanPage& scan,
                  const Covered& covered = nullptr) const;

  const PageStore* file_ = nullptr;
  PageId seed_root_ = kInvalidPageId;
  bool root_is_leaf_ = false;  // single seed-leaf tree, no internal nodes
  int seed_height_ = 0;
  PageId directory_root_ = kInvalidPageId;
  BuildStats build_stats_;
  std::vector<PartitionProfile> partition_profiles_;
  std::shared_ptr<const SeedAggregates> aggregates_;  // null = no pruning
  // An aggregated count crawls when its box's volume is below this, and
  // descends otherwise; 0 (no aggregates or a single leaf) always descends.
  // Set by AttachAggregates.
  double crawl_count_below_ = 0.0;
};

}  // namespace flat

#endif  // FLAT_CORE_FLAT_INDEX_H_

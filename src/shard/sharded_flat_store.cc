#include "shard/sharded_flat_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "core/partitioner.h"
#include "delta/delta_log.h"
#include "delta/overlay_view.h"
#include "parallel/thread_pool.h"
#include "rtree/node.h"
#include "storage/disk_page_file.h"
#include "storage/persistence.h"

namespace flat {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string ShardFileName(size_t shard) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04zu.pgf", shard);
  return name;
}

constexpr char kCatalogFileName[] = "catalog.flatshard";
constexpr char kOverlayWalFileName[] = "overlay.flatwal";
constexpr char kGenerationFileName[] = "generation.flatgen";
constexpr char kGenerationMagic[8] = {'F', 'L', 'A', 'T', 'G', 'E', 'N', '1'};

// The bounding box that gates shard routing for a query; every element the
// query can match has an MBR intersecting this box.
Aabb QueryGate(const Query& query) {
  switch (query.type) {
    case Query::Type::kRange:
    case Query::Type::kRangeCount:
    case Query::Type::kSeedScan:
      return query.box;
    case Query::Type::kSphere:
      return Aabb::FromCenterHalfExtents(
          query.center, Vec3(query.radius, query.radius, query.radius));
    case Query::Type::kKnn:
      throw std::invalid_argument(
          "ShardedFlatStore: kKnn is not supported — the gather has no "
          "distances to merge per-shard candidates globally");
  }
  return Aabb();
}

// Gathers the sub-results of one scattered query: I/O is summed per
// category; materializing queries concatenate ids and sort ascending (the
// store's canonical order). No dedup is needed: the shards partition the
// elements, per-shard result sets are disjoint, and overlay merging masks
// every overlay-touched id out of base results before appending overlay
// matches — so the sorted merge is exactly the sorted result of an
// unsharded index over the merged data.
//
// Fail-soft: if any sub-query stopped early, the merged result carries a
// non-kOk status — the group's originating status when `group` is set
// (siblings cancelled BY the group report kCancelled, which would otherwise
// mask the real cause), else the first non-kOk sub in scatter order. The
// partial ids of failed subs are still merged: a partial union, sorted, is
// a valid partial result. A non-kOk merged kRangeCount likewise keeps the
// sum of whatever the sub-queries tallied — a lower bound on the exact
// count, mirroring partial kRange keeping its ids (core/query_control.h).
void GatherSubResults(std::vector<QueryResult>* sub_results, size_t first,
                      size_t count, Query::Type type, const QueryGroup* group,
                      QueryResult* out) {
  for (size_t s = 0; s < count; ++s) {
    const QueryResult& sub = (*sub_results)[first + s];
    out->io += sub.io;
    if (out->status == QueryStatus::kOk && sub.status != QueryStatus::kOk) {
      out->status = sub.status;
      out->error = sub.error;
    }
    if (type == Query::Type::kRangeCount) {
      out->count += sub.count;
    } else {
      out->ids.insert(out->ids.end(), sub.ids.begin(), sub.ids.end());
    }
  }
  if (group != nullptr && group->status() != QueryStatus::kOk) {
    out->status = group->status();
    if (out->error.empty()) {
      // Recover the originating sub's detail (the scatter-order-first
      // non-kOk sub may be a cancelled sibling with no error text).
      for (size_t s = 0; s < count; ++s) {
        const QueryResult& sub = (*sub_results)[first + s];
        if (sub.status == out->status && !sub.error.empty()) {
          out->error = sub.error;
          break;
        }
      }
    }
  }
  if (type != Query::Type::kRangeCount) {
    std::sort(out->ids.begin(), out->ids.end());
    out->count = out->ids.size();
  }
}

// Reads the generation sidecar; throws on a corrupt one.
uint64_t LoadGenerationSidecar(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("ShardedFlatStore: cannot open " + path.string());
  }
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kGenerationMagic, sizeof(kGenerationMagic))) {
    throw std::runtime_error("ShardedFlatStore: corrupt generation sidecar " +
                             path.string());
  }
  uint64_t generation = 0;
  in.read(reinterpret_cast<char*>(&generation), sizeof(generation));
  if (!in) {
    throw std::runtime_error("ShardedFlatStore: corrupt generation sidecar " +
                             path.string());
  }
  return generation;
}

void SaveGenerationSidecar(const std::filesystem::path& path,
                           uint64_t generation) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(kGenerationMagic, sizeof(kGenerationMagic));
  out.write(reinterpret_cast<const char*>(&generation), sizeof(generation));
  if (!out) {
    throw std::runtime_error("ShardedFlatStore: cannot write " +
                             path.string());
  }
}

}  // namespace

/// One immutable bulkload generation. Snapshots and the store share Bases by
/// shared_ptr: Compact publishes a fresh Base and pinned snapshots keep the
/// old one (and its PageFiles) alive until released.
struct ShardedFlatStore::Base {
  ShardCatalog catalog;
  std::vector<std::unique_ptr<PageStore>> files;  // one per shard
  std::vector<FlatIndex> indexes;                 // parallel to files
  /// Log position this base has absorbed: ops < floor are folded into the
  /// shard files, ops >= floor live in the overlay window. Monotone across
  /// compactions.
  uint64_t overlay_floor = 0;
};

/// The mutable heart of the store, held behind a unique_ptr so the store
/// stays movable (mutexes are not).
struct ShardedFlatStore::DynamicState {
  /// Guards the base handle (pin = copy under mu, publish = swap under mu).
  mutable std::mutex mu;
  std::shared_ptr<const Base> base;
  /// The delta overlay's op log. Appends serialize internally; reads are
  /// lock-free (acquire on the published size).
  DeltaLog log;
  /// Serializes compactions with each other (never with readers/writers).
  std::mutex compact_mu;
};

namespace {

/// Per-shard routing bounds for OverlayView::Build — must be exactly the
/// bounds Route() gates with, so bucket routing and query routing agree.
std::vector<Aabb> ShardBounds(const ShardCatalog& catalog) {
  std::vector<Aabb> bounds;
  bounds.reserve(catalog.shards.size());
  for (const ShardCatalogEntry& shard : catalog.shards) {
    bounds.push_back(shard.bounds);
  }
  return bounds;
}

/// Appends the scatter list for one query against (base, overlay): one
/// overlay-annotated sub-query per routed shard, plus — when an overlay is
/// pinned — an index-free tail sub-query scanning the spill bucket.
/// Returns the number of sub-queries appended.
///
/// `precount` (non-null for kRangeCount) receives the catalog-level
/// shortcut: a shard whose element bounds are fully inside the query box
/// contributes its exact catalog element count here instead of a sub-query
/// — zero reads for that shard. Only taken when the shard's index carries
/// aggregates (which certifies every element box non-empty and finite, so
/// "bounds covered" really means "every element matches") and the overlay
/// window is empty (an overlay can mask or override this shard's ids, so
/// overlayed counts descend exactly).
size_t AppendScatter(const ShardCatalog& catalog,
                     const std::vector<FlatIndex>& indexes,
                     const OverlayView* overlay, const Query& query,
                     std::vector<IndexedQuery>* scatter,
                     uint64_t* precount = nullptr) {
  const Aabb gate = QueryGate(query);
  const bool can_precount = precount != nullptr &&
                            query.type == Query::Type::kRangeCount &&
                            (overlay == nullptr || overlay->empty());
  size_t count = 0;
  for (size_t s = 0; s < catalog.shards.size(); ++s) {
    if (!catalog.shards[s].bounds.Intersects(gate)) continue;
    if (can_precount && indexes[s].has_aggregates() &&
        gate.Contains(catalog.shards[s].bounds)) {
      *precount += catalog.shards[s].element_count;
      continue;
    }
    scatter->push_back(IndexedQuery{&indexes[s], query, overlay, s});
    ++count;
  }
  if (overlay != nullptr) {
    // The spill bucket holds live entries contained in no shard's bounds
    // (including everything when there are no shards); it is scanned
    // unconditionally — it is the brute-force part of the overlay.
    scatter->push_back(
        IndexedQuery{nullptr, query, overlay, overlay->spill_bucket()});
    ++count;
  }
  return count;
}

/// Per-query shared cancellation state for a scattered query whose caller
/// supplied a control without a group. Heap-allocated so the control/group
/// addresses the sub-queries capture stay stable for the batch's lifetime.
struct ControlBlock {
  QueryControl control;
  QueryGroup group;
};

/// If `query` carries a control without a group, clones the control into a
/// fresh ControlBlock wired to its own QueryGroup — so one failing scattered
/// sibling cancels the others — and repoints the query at the clone.
/// Returns the group the gather should consult (the caller's own, the
/// block's, or null for an uncontrolled query).
const QueryGroup* WireControlGroup(
    Query* query, std::vector<std::unique_ptr<ControlBlock>>* blocks) {
  if (query->control == nullptr) return nullptr;
  if (query->control->group != nullptr) return query->control->group;
  auto block = std::make_unique<ControlBlock>();
  block->control = *query->control;
  block->control.group = &block->group;
  query->control = &block->control;
  const QueryGroup* group = &block->group;
  blocks->push_back(std::move(block));
  return group;
}

// Unpacks the result of a batch of one for the id/count entry points,
// adding its I/O into `io` when given.
std::vector<uint64_t> TakeIds(std::vector<QueryResult> batch, IoStats* io) {
  if (io != nullptr) *io += batch.front().io;
  return std::move(batch.front().ids);
}

uint64_t TakeCount(const std::vector<QueryResult>& batch, IoStats* io) {
  if (io != nullptr) *io += batch.front().io;
  return batch.front().count;
}

}  // namespace

ShardedFlatStore::ShardedFlatStore()
    : state_(std::make_unique<DynamicState>()) {
  state_->base = std::make_shared<const Base>();
}

ShardedFlatStore::~ShardedFlatStore() = default;
ShardedFlatStore::ShardedFlatStore(ShardedFlatStore&&) = default;
ShardedFlatStore& ShardedFlatStore::operator=(ShardedFlatStore&&) = default;

std::shared_ptr<const ShardedFlatStore::Base> ShardedFlatStore::BuildBase(
    std::vector<RTreeEntry> elements, const Options& options,
    uint64_t generation, uint64_t overlay_floor, BuildStats* out_stats) {
  auto base = std::make_shared<Base>();
  BuildStats stats;
  stats.elements = elements.size();
  base->catalog.page_size = options.page_size;
  base->catalog.generation = generation;
  base->catalog.total_elements = elements.size();
  base->overlay_floor = overlay_floor;

  if (!elements.empty()) {
    std::optional<ThreadPool> owned_pool;
    ThreadPool* pool = nullptr;
    if (options.num_threads != 1) {
      owned_pool.emplace(options.num_threads);
      pool = &*owned_pool;
    }

    // Top-level STR split: the same tiling machinery as the index build, at
    // shard granularity. Its membership depends only on the element set,
    // so the shard assignment is the same for any thread count and, as
    // compaction needs, for any order the merged elements were collected
    // in.
    const auto t_split = Clock::now();
    const Aabb universe = BoundsOf(elements);
    const size_t target_shards = std::max<size_t>(1, options.num_shards);
    const uint32_t shard_capacity = static_cast<uint32_t>(std::min<uint64_t>(
        std::numeric_limits<uint32_t>::max(),
        (elements.size() + target_shards - 1) / target_shards));
    const std::vector<PartitionInfo> split =
        StrPartition(elements, shard_capacity, universe, pool);
    stats.split_seconds = SecondsSince(t_split);
    base->catalog.universe = universe;

    // Build every shard's FlatIndex in parallel — one serial build per
    // worker at a time, each into its own pre-allocated PageFile and in
    // place on its own slice of the split's (reordered) elements. The
    // slices are disjoint, so each has one writer.
    const auto t_build = Clock::now();
    const size_t shard_count = split.size();
    base->files.resize(shard_count);
    base->indexes.resize(shard_count);
    stats.per_shard.resize(shard_count);
    // Builds need the concrete PageFile (MutableData); files holds the
    // type-erased PageStore handles that queries read through.
    std::vector<PageFile*> shard_files(shard_count);
    for (size_t i = 0; i < shard_count; ++i) {
      auto file = std::make_unique<PageFile>(options.page_size);
      shard_files[i] = file.get();
      base->files[i] = std::move(file);
    }
    // Each shard build is serial (the ParallelFor is the parallelism) and
    // may carry the aggregate-sidecar option; the PageFile bytes are
    // identical with or without it.
    FlatIndex::BuildOptions shard_build;
    shard_build.aggregate_counts = options.aggregate_counts;
    ParallelFor(pool, shard_count, /*grain=*/1, [&](size_t, size_t i) {
      base->indexes[i] = FlatIndex::Build(
          shard_files[i],
          std::span(elements).subspan(split[i].first, split[i].count),
          shard_build, &stats.per_shard[i]);
    });
    stats.build_seconds = SecondsSince(t_build);

    base->catalog.shards.resize(shard_count);
    for (size_t i = 0; i < shard_count; ++i) {
      ShardCatalogEntry& entry = base->catalog.shards[i];
      entry.page_file_name = ShardFileName(i);
      entry.descriptor = base->indexes[i].descriptor();
      entry.bounds = split[i].page_mbr;
      entry.tile = split[i].tile;
      entry.element_count = split[i].count;
    }
  }

  stats.shards = base->indexes.size();
  if (out_stats != nullptr) *out_stats = std::move(stats);
  return base;
}

ShardedFlatStore ShardedFlatStore::Build(std::vector<RTreeEntry> elements,
                                         const Options& options,
                                         BuildStats* out_stats) {
  ShardedFlatStore store;
  store.options_ = options;
  store.state_->base = BuildBase(std::move(elements), options,
                                 /*generation=*/1, /*overlay_floor=*/0,
                                 &store.build_stats_);
  if (out_stats != nullptr) *out_stats = store.build_stats_;
  store.AttachEngine(options.num_threads);
  return store;
}

void ShardedFlatStore::AttachEngine(size_t num_threads) {
  QueryEngine::Options options;
  options.threads = num_threads;
  engine_ = std::make_unique<QueryEngine>(options);
}

uint64_t ShardedFlatStore::Insert(const RTreeEntry& entry) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::kInsert;
  op.entry = entry;
  return state_->log.Append(op);
}

uint64_t ShardedFlatStore::Erase(uint64_t id) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::kDelete;
  op.entry.id = id;
  return state_->log.Append(op);
}

uint64_t ShardedFlatStore::epoch() const { return state_->log.size(); }

uint64_t ShardedFlatStore::generation() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->base->catalog.generation;
}

uint64_t ShardedFlatStore::overlay_op_count() const {
  std::shared_ptr<const Base> base;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    base = state_->base;
  }
  // Reading the size after pinning keeps the difference non-negative: the
  // floor was the log size at some earlier instant.
  return state_->log.size() - base->overlay_floor;
}

ShardedFlatStore::Snapshot ShardedFlatStore::PinSnapshot() const {
  Snapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    snapshot.base_ = state_->base;
  }
  // The epoch is read after the base: the base's floor is a past log size,
  // so floor <= epoch always and the window below is well-formed.
  snapshot.epoch_ = state_->log.size();
  snapshot.overlay_ =
      OverlayView::Build(state_->log, snapshot.base_->overlay_floor,
                         snapshot.epoch_, ShardBounds(snapshot.base_->catalog));
  return snapshot;
}

ShardedFlatStore::CompactionStats ShardedFlatStore::Compact() {
  // One compaction at a time; readers and the writer are never blocked by
  // this lock (they only ever take state_->mu, and only for a pointer copy).
  std::lock_guard<std::mutex> compact_lock(state_->compact_mu);
  const auto start = Clock::now();

  std::shared_ptr<const Base> base;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    base = state_->base;
  }
  const uint64_t limit = state_->log.size();

  CompactionStats cstats;
  cstats.folded_ops = limit - base->overlay_floor;
  std::shared_ptr<const OverlayView> overlay = OverlayView::Build(
      state_->log, base->overlay_floor, limit, ShardBounds(base->catalog));

  // Merged element set = base elements minus overlay-touched ids, plus live
  // overlay entries. Base elements are re-extracted from the shard files'
  // object pages — the pages are immutable and exact, so this is the
  // authoritative copy, identical for in-memory and disk-backed shards.
  std::vector<RTreeEntry> merged;
  merged.reserve(base->catalog.total_elements +
                 (overlay != nullptr ? overlay->live_count() : 0));
  for (const std::unique_ptr<PageStore>& file : base->files) {
    for (size_t page = 0; page < file->page_count(); ++page) {
      const PageId id = static_cast<PageId>(page);
      if (file->category(id) != PageCategory::kObject) continue;
      const NodeView node(file->Data(id));
      for (uint16_t i = 0; i < node.count(); ++i) {
        const RTreeEntry entry = node.EntryAt(i);
        if (overlay != nullptr && overlay->IsTouched(entry.id)) {
          ++cstats.deleted;
          continue;
        }
        merged.push_back(entry);
      }
    }
  }
  if (overlay != nullptr) {
    for (size_t b = 0; b < overlay->bucket_count(); ++b) {
      const std::vector<RTreeEntry>& bucket = overlay->bucket(b);
      merged.insert(merged.end(), bucket.begin(), bucket.end());
    }
    cstats.inserted = overlay->live_count();
  }
  cstats.merged_elements = merged.size();

  // Fresh bulkload with the store's own Options; the STR split's total
  // order makes the new shard PageFiles byte-identical to
  // Build(merged, options_) regardless of the order `merged` was collected
  // in. The new base absorbs the window: its floor is the pinned limit.
  std::shared_ptr<const Base> next =
      BuildBase(std::move(merged), options_, base->catalog.generation + 1,
                limit, &cstats.build);
  cstats.generation = base->catalog.generation + 1;

  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->base = std::move(next);
  }
  cstats.seconds = SecondsSince(start);
  return cstats;
}

std::vector<uint64_t> ShardedFlatStore::RangeQuery(const Aabb& query,
                                                   IoStats* io) const {
  return TakeIds(RunBatch({Query::Range(query)}), io);
}

uint64_t ShardedFlatStore::RangeCount(const Aabb& query, IoStats* io) const {
  return TakeCount(RunBatch({Query::RangeCount(query)}), io);
}

std::vector<uint64_t> ShardedFlatStore::RangeQueryViaSeedScan(
    const Aabb& query, IoStats* io) const {
  return TakeIds(RunBatch({Query::RangeSeedScan(query)}), io);
}

std::vector<uint64_t> ShardedFlatStore::SphereQuery(const Vec3& center,
                                                    double radius,
                                                    IoStats* io) const {
  return TakeIds(RunBatch({Query::Sphere(center, radius)}), io);
}

std::vector<QueryResult> ShardedFlatStore::RunBatch(
    const std::vector<Query>& batch, BatchStats* stats) const {
  const auto start = Clock::now();
  // One snapshot for the whole batch: every query sees the same epoch no
  // matter how writers interleave with the batch's execution. A
  // default-constructed store has no engine and runs inline.
  std::vector<QueryResult> results =
      PinSnapshot().Execute(batch, engine_.get());
  if (stats != nullptr) {
    *stats = BatchStats{};
    stats->threads = engine_ != nullptr ? engine_->threads() : 1;
    for (const QueryResult& r : results) stats->Record(r);
    stats->wall_seconds = SecondsSince(start);
  }
  return results;
}

std::vector<QueryResult> ShardedFlatStore::Snapshot::Execute(
    const std::vector<Query>& batch, QueryEngine* engine) const {
  std::vector<QueryResult> results(batch.size());
  if (base_ == nullptr) return results;  // default-constructed Snapshot

  // Scatter: one flat multi-index sub-batch covering every (query, shard)
  // pair — plus each query's overlay tail — so the engine's pool balances
  // across queries and shards alike.
  struct Span {
    size_t first = 0;
    size_t count = 0;
    const QueryGroup* group = nullptr;
    uint64_t precount = 0;  // fully covered shards, answered off-catalog
  };
  std::vector<Span> spans(batch.size());
  std::vector<IndexedQuery> scatter;
  std::vector<std::unique_ptr<ControlBlock>> blocks;
  for (size_t i = 0; i < batch.size(); ++i) {
    Query wired = batch[i];
    spans[i].first = scatter.size();
    spans[i].group = WireControlGroup(&wired, &blocks);
    spans[i].count = AppendScatter(base_->catalog, base_->indexes,
                                   overlay_.get(), wired, &scatter,
                                   &spans[i].precount);
  }

  // Dispatch.
  std::vector<QueryResult> sub_results =
      engine != nullptr ? engine->RunMulti(scatter)
                        : QueryEngine::RunInline(scatter);

  // Gather: per original query, merge its shards' sub-results.
  for (size_t i = 0; i < batch.size(); ++i) {
    GatherSubResults(&sub_results, spans[i].first, spans[i].count,
                     batch[i].type, spans[i].group, &results[i]);
    results[i].count += spans[i].precount;
  }
  return results;
}

std::vector<uint64_t> ShardedFlatStore::Snapshot::RangeQuery(
    const Aabb& query, IoStats* io) const {
  return TakeIds(Execute({Query::Range(query)}), io);
}

uint64_t ShardedFlatStore::Snapshot::RangeCount(const Aabb& query,
                                                IoStats* io) const {
  return TakeCount(Execute({Query::RangeCount(query)}), io);
}

std::vector<uint64_t> ShardedFlatStore::Snapshot::RangeQueryViaSeedScan(
    const Aabb& query, IoStats* io) const {
  return TakeIds(Execute({Query::RangeSeedScan(query)}), io);
}

std::vector<uint64_t> ShardedFlatStore::Snapshot::SphereQuery(
    const Vec3& center, double radius, IoStats* io) const {
  return TakeIds(Execute({Query::Sphere(center, radius)}), io);
}

uint64_t ShardedFlatStore::Snapshot::generation() const {
  return base_ != nullptr ? base_->catalog.generation : 0;
}

uint64_t ShardedFlatStore::Snapshot::overlay_live_count() const {
  return overlay_ != nullptr ? overlay_->live_count() : 0;
}

size_t ShardedFlatStore::Snapshot::shard_count() const {
  return base_ != nullptr ? base_->indexes.size() : 0;
}

size_t ShardedFlatStore::shard_count() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->base->indexes.size();
}

const ShardCatalog& ShardedFlatStore::catalog() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->base->catalog;
}

const FlatIndex& ShardedFlatStore::shard_index(size_t shard) const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->base->indexes[shard];
}

const PageStore& ShardedFlatStore::shard_file(size_t shard) const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return *state_->base->files[shard];
}

void ShardedFlatStore::Save(const std::string& dir) const {
  namespace fs = std::filesystem;
  const fs::path root(dir);
  fs::create_directories(root);

  // Pin what gets persisted: the base plus the overlay window [floor,
  // epoch). Ops appended after this line are simply not part of the save.
  Snapshot snapshot = PinSnapshot();
  const Base& base = *snapshot.base_;

  // Stale-generation guard: a directory that already holds a LATER
  // generation of a store must not be clobbered by an earlier one (e.g. a
  // stale handle saving over a compacted copy).
  const fs::path generation_path = root / kGenerationFileName;
  if (fs::exists(generation_path)) {
    const uint64_t existing = LoadGenerationSidecar(generation_path);
    if (existing > base.catalog.generation) {
      throw std::runtime_error(
          "ShardedFlatStore::Save: stale generation: directory " + dir +
          " already holds generation " + std::to_string(existing) +
          ", refusing to overwrite with generation " +
          std::to_string(base.catalog.generation));
    }
  }

  {
    std::ofstream catalog_out(root / kCatalogFileName,
                              std::ios::binary | std::ios::trunc);
    if (!catalog_out) {
      throw std::runtime_error("ShardedFlatStore::Save: cannot open catalog " +
                               (root / kCatalogFileName).string());
    }
    SaveShardCatalog(base.catalog, catalog_out);
  }

  // Shard files are disjoint, so they are written in parallel (on the
  // caller alone with one thread). Each page file is unlinked before it is
  // written: a loaded store, this one included, holds the file it replaces
  // open, and keeps reading the old inode instead of a truncated one.
  std::optional<ThreadPool> owned_pool;
  ThreadPool* pool = nullptr;
  if (options_.num_threads != 1) {
    owned_pool.emplace(options_.num_threads);
    pool = &*owned_pool;
  }
  ParallelFor(pool, base.files.size(), /*grain=*/1, [&](size_t, size_t i) {
    const fs::path path = root / base.catalog.shards[i].page_file_name;
    std::error_code error;
    fs::remove(path, error);
    if (error) {
      throw std::runtime_error("ShardedFlatStore::Save: cannot replace " +
                               path.string() + ": " + error.message());
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("ShardedFlatStore::Save: cannot open " +
                               path.string());
    }
    SavePageFile(*base.files[i], out);

    // Aggregate sidecar rides next to the page file it indexes into; a
    // shard without aggregates removes any stale sidecar so a reload never
    // pairs this generation's pages with an older generation's counts.
    const fs::path agg_path = path.string() + ".agg";
    if (base.indexes[i].has_aggregates()) {
      std::ofstream agg_out(agg_path, std::ios::binary | std::ios::trunc);
      if (!agg_out) {
        throw std::runtime_error("ShardedFlatStore::Save: cannot open " +
                                 agg_path.string());
      }
      SaveSeedAggregates(*base.indexes[i].aggregates(), agg_out);
    } else {
      fs::remove(agg_path);
    }
  });

  // The overlay WAL holds the pinned window (possibly zero ops) — Load
  // replays it, so the reloaded store answers exactly like this snapshot.
  std::ofstream wal_out(root / kOverlayWalFileName,
                        std::ios::binary | std::ios::trunc);
  if (!wal_out) {
    throw std::runtime_error("ShardedFlatStore::Save: cannot open WAL " +
                             (root / kOverlayWalFileName).string());
  }
  SaveDeltaOps(state_->log, base.overlay_floor, snapshot.epoch_, wal_out);

  SaveGenerationSidecar(generation_path, base.catalog.generation);
}

ShardedFlatStore ShardedFlatStore::Load(
    const std::string& dir, size_t num_threads,
    const DiskPageFile::Options* disk_options) {
  namespace fs = std::filesystem;
  const fs::path root(dir);

  std::ifstream catalog_in(root / kCatalogFileName, std::ios::binary);
  if (!catalog_in) {
    throw std::runtime_error("ShardedFlatStore::Load: cannot open catalog " +
                             (root / kCatalogFileName).string());
  }
  ShardCatalog catalog = LoadShardCatalog(catalog_in);

  // Stale-catalog guard: the sidecar records the generation last saved into
  // this directory; a catalog older than that is a restored pre-compaction
  // file whose shard list may not match the directory's page files.
  const fs::path generation_path = root / kGenerationFileName;
  if (fs::exists(generation_path)) {
    const uint64_t recorded = LoadGenerationSidecar(generation_path);
    if (catalog.generation < recorded) {
      throw std::runtime_error(
          "ShardedFlatStore::Load: stale catalog: catalog generation " +
          std::to_string(catalog.generation) +
          " regressed behind the store directory's recorded generation " +
          std::to_string(recorded));
    }
  }

  ShardedFlatStore store;
  auto base = std::make_shared<Base>();
  base->catalog = std::move(catalog);

  base->files.reserve(base->catalog.shards.size());
  base->indexes.reserve(base->catalog.shards.size());
  for (const ShardCatalogEntry& entry : base->catalog.shards) {
    const fs::path path = root / entry.page_file_name;
    // Serve the shard straight from the file: DiskPageFile validates the
    // header against the actual file size and maps it read-only.
    base->files.push_back(
        disk_options != nullptr
            ? DiskPageFile::Open(path.string(), *disk_options)
            : DiskPageFile::Open(path.string()));
    const PageStore& file = *base->files.back();
    if (file.page_size() != base->catalog.page_size) {
      throw std::runtime_error(
          "ShardedFlatStore::Load: shard page size disagrees with catalog: " +
          path.string());
    }
    // The catalog's descriptor must address a page that actually exists in
    // the shard file — PageFile::Data() does not bounds-check in Release
    // builds, so a corrupt catalog has to be rejected here, not at query
    // time.
    const PageId seed_root = entry.descriptor.seed_root;
    if (seed_root != kInvalidPageId) {
      if (seed_root >= file.page_count()) {
        throw std::runtime_error(
            "ShardedFlatStore::Load: catalog seed root outside shard file: " +
            path.string());
      }
      const PageCategory expected = entry.descriptor.root_is_leaf
                                        ? PageCategory::kSeedLeaf
                                        : PageCategory::kSeedInternal;
      if (file.category(seed_root) != expected) {
        throw std::runtime_error(
            "ShardedFlatStore::Load: catalog seed root has the wrong page "
            "category: " +
            path.string());
      }
    }
    // Every non-empty shard seeds through its tile directory; a catalog
    // entry without one was saved before every index had one.
    const PageId directory_root = entry.descriptor.directory_root;
    if (seed_root != kInvalidPageId && directory_root == kInvalidPageId) {
      throw std::runtime_error(
          "ShardedFlatStore::Load: catalog entry has no tile directory root "
          "(saved before every index had one); rebuild the store: " +
          path.string());
    }
    if (directory_root != kInvalidPageId) {
      if (directory_root >= file.page_count()) {
        throw std::runtime_error(
            "ShardedFlatStore::Load: catalog directory root outside shard "
            "file: " +
            path.string());
      }
      if (file.category(directory_root) != PageCategory::kSeedInternal) {
        throw std::runtime_error(
            "ShardedFlatStore::Load: catalog directory root has the wrong "
            "page category: " +
            path.string());
      }
    }
    base->indexes.push_back(
        FlatIndex::Attach(base->files.back().get(), entry.descriptor));

    // Re-attach the aggregate sidecar when present. Its loader rejects
    // corrupt bytes; on top of that the totals must agree with the catalog
    // — a sidecar from another generation would silently certify wrong
    // counts for the catalog-level covered-shard shortcut.
    const fs::path agg_path = path.string() + ".agg";
    if (fs::exists(agg_path)) {
      std::ifstream agg_in(agg_path, std::ios::binary);
      if (!agg_in) {
        throw std::runtime_error("ShardedFlatStore::Load: cannot open " +
                                 agg_path.string());
      }
      auto aggregates =
          std::make_shared<const SeedAggregates>(LoadSeedAggregates(agg_in));
      if (aggregates->total_elements() != entry.element_count) {
        throw std::runtime_error(
            "ShardedFlatStore::Load: aggregate sidecar disagrees with the "
            "catalog's element count: " +
            agg_path.string());
      }
      base->indexes.back().AttachAggregates(std::move(aggregates));
    }
  }

  store.build_stats_.shards = base->indexes.size();
  store.build_stats_.elements = base->catalog.total_elements;
  store.options_.num_shards = std::max<size_t>(1, base->catalog.shards.size());
  store.options_.num_threads = num_threads;
  store.options_.page_size = base->catalog.page_size;
  // Saved sidecars mean the store was built with aggregates; Compact must
  // rebuild them, or the next Save would delete them.
  store.options_.aggregate_counts = std::any_of(
      base->indexes.begin(), base->indexes.end(),
      [](const FlatIndex& index) { return index.has_aggregates(); });
  store.state_->base = std::move(base);

  // Replay the overlay WAL, which every Save writes: the reloaded log
  // starts at floor 0 with exactly the window the save pinned. Without it
  // that window is lost, so a directory missing it does not load.
  const fs::path wal_path = root / kOverlayWalFileName;
  std::ifstream wal_in(wal_path, std::ios::binary);
  if (!wal_in) {
    throw std::runtime_error("ShardedFlatStore::Load: cannot open WAL " +
                             wal_path.string());
  }
  for (const DeltaOp& op : LoadDeltaOps(wal_in)) {
    store.state_->log.Append(op);
  }

  store.AttachEngine(num_threads);
  return store;
}

}  // namespace flat

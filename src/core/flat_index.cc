#include "core/flat_index.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/tile_directory.h"
#include "geometry/box_kernels.h"
#include "parallel/thread_pool.h"
#include "rtree/node.h"
#include "rtree/pack.h"
#include "storage/buffer_pool.h"

namespace flat {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Aggregate pruning rests on "query covers the subtree MBR => every element
// below matches", which only holds when every element box is non-empty and
// finite: an empty or NaN box is invisible to the intersection gates yet
// would be included in stored counts. One such element disables aggregates
// for the whole build (the exact paths remain correct for it).
bool AllBoxesAggregatable(std::span<const RTreeEntry> elements) {
  for (const RTreeEntry& e : elements) {
    for (int axis = 0; axis < 3; ++axis) {
      const double lo = e.box.lo()[axis];
      const double hi = e.box.hi()[axis];
      if (!(lo <= hi) || !std::isfinite(lo) || !std::isfinite(hi)) {
        return false;
      }
    }
  }
  return true;
}

// True when every element on `record`'s object page meets `query`: the query
// contains the record's page MBR, or its stored tile when that tile is not
// empty (Aabb::Contains holds for every empty box). Exact only on indexes
// with aggregates attached, whose build certified every element box
// non-empty and finite (AllBoxesAggregatable): each element's center then
// lies in its box and in its exact tile, since MakeChunks cuts between
// centers, and the stored tile is rounded outward around that tile, so a
// query containing it holds the center.
bool AllElementsMeet(const Aabb& query, const MetadataRecordView& record) {
  if (query.Contains(record.page_mbr())) return true;
  const Aabb tile = record.tile();
  return !tile.IsEmpty() && query.Contains(tile);
}

// An aggregated count crawls when its box's volume is below this many seed
// leaves' share of the data bounds (docs/architecture.md, "Aggregate
// pruning"): smaller boxes read fewer pages on the crawl, larger ones on
// the descent.
constexpr double kCrawlCountLeaves = 4.0;

// A seed-tree internal page that is not an exact node page at the level
// its parent implies (`want`; kAnyLevel for the root, which must only be
// above the leaves) with at most a page's worth of entries (`capacity`): a
// retired or corrupt format byte, a child pointer aimed back up the tree,
// or a count that would gate entries past the page. Reading on would
// misread the page, walk a cycle or read past the store.
constexpr int kAnyLevel = -1;

bool IsSeedNode(const NodeView& node, int want, uint32_t capacity) {
  return node.format() == NodeFormat::kExact && node.level() != 0 &&
         (want == kAnyLevel || node.level() == want) &&
         node.count() <= capacity;
}

[[noreturn]] void ThrowBadSeedPage(PageId page, const NodeView& node,
                                   int want, uint32_t capacity) {
  std::string what = "FlatIndex: seed-tree page " + std::to_string(page);
  if (node.format() != NodeFormat::kExact) {
    what += " has node format " +
            std::to_string(static_cast<int>(node.format())) +
            "; only format 0 (exact) is readable";
  } else if (node.count() > capacity) {
    what += " holds " + std::to_string(node.count()) +
            " entries; a page holds at most " + std::to_string(capacity);
  } else {
    what += " is at level " + std::to_string(node.level()) + ", expected " +
            (want == kAnyLevel ? std::string("a level above 0")
                               : std::to_string(want));
  }
  throw std::runtime_error(what);
}

// Seed leaves as FillSeedLeaves fills them: each leaf's records (partition
// indices) by slot, each record's address (its page is the leaf's index
// until Build allocates the leaves), and each record's same-leaf neighbor
// count.
struct SeedLeafFill {
  std::vector<std::vector<uint32_t>> members;
  std::vector<RecordRef> refs;
  std::vector<uint16_t> same_leaf;
};

// Orders the records by StrOrder over their page MBRs, in 3-D blobs of
// `records_per_leaf` ("storing the records in the leafs of the seed tree (an
// R-Tree) ensures that spatially close records are stored on the same leaf
// page", Section V-B.2), and fills leaves greedily in that order with each
// record's exact footprint. A pointer between two records on one leaf is a
// bit of the leaf's same-leaf bitmap, so a record joining a leaf turns its
// pointers to the members, and theirs back to it (the relation is
// symmetric), into bits, and every record's bitmap grows to the new count.
SeedLeafFill FillSeedLeaves(const std::vector<PartitionInfo>& partitions,
                            uint32_t page_size, uint32_t records_per_leaf,
                            ThreadPool* pool) {
  std::vector<RTreeEntry> order(partitions.size());
  for (size_t i = 0; i < partitions.size(); ++i) {
    order[i] = RTreeEntry{partitions[i].page_mbr, i};
  }
  StrOrder(&order, records_per_leaf, pool);

  SeedLeafFill fill;
  fill.refs.resize(partitions.size());
  fill.same_leaf.assign(partitions.size(), 0);
  // A record's bytes on a leaf, bitmap aside.
  const auto footprint = [&](uint32_t pi, size_t same) {
    return RecordFootprint(0, partitions[pi].neighbors.size() - same);
  };
  size_t used = 0;  // the current leaf's footprints, bitmaps aside
  for (const RTreeEntry& rec : order) {
    const uint32_t pi = static_cast<uint32_t>(rec.id);
    const PageId leaf = static_cast<PageId>(fill.members.size() - 1);
    size_t joined = used;
    uint16_t same = 0;
    size_t records = 1;
    if (!fill.members.empty()) {
      for (uint32_t ni : partitions[pi].neighbors) {
        if (fill.refs[ni].page != leaf) continue;
        ++same;
        joined -= footprint(ni, fill.same_leaf[ni]) -
                  footprint(ni, fill.same_leaf[ni] + 1);
      }
      joined += footprint(pi, same);
      records = fill.members.back().size() + 1;
    }
    if (fill.members.empty() ||
        kSeedLeafHeaderSize + joined + records * BitmapBytes(records) >
            page_size) {
      fill.members.emplace_back();
      used = footprint(pi, 0);
    } else {
      used = joined;
      fill.same_leaf[pi] = same;
      for (uint32_t ni : partitions[pi].neighbors) {
        fill.same_leaf[ni] += fill.refs[ni].page == leaf;
      }
    }
    fill.refs[pi].slot = static_cast<uint16_t>(fill.members.back().size());
    fill.refs[pi].page = static_cast<PageId>(fill.members.size() - 1);
    fill.members.back().push_back(pi);
  }
  return fill;
}

// Reads object page `id` for a scan, which gates NodeView::count() entries:
// throws std::runtime_error naming the page unless it is a kObject page of
// exact level-0 node format with at most a page's worth of entries.
const char* ReadObjectPage(PageCache* pool, const PageStore& file,
                           PageId id) {
  const char* data = pool->Read(id);
  const NodeView node(data);
  const uint32_t capacity = NodeCapacity(file.page_size());
  if (file.category(id) != PageCategory::kObject ||
      node.format() != NodeFormat::kExact || node.level() != 0) {
    throw std::runtime_error(
        "FlatIndex: page " + std::to_string(id) +
        " is read as an object page but is not one (category " +
        std::to_string(static_cast<int>(file.category(id))) + ", format " +
        std::to_string(static_cast<int>(node.format())) + ", level " +
        std::to_string(node.level()) + ")");
  }
  if (node.count() > capacity) {
    throw std::runtime_error("FlatIndex: object page " + std::to_string(id) +
                             " holds " + std::to_string(node.count()) +
                             " entries; a page holds at most " +
                             std::to_string(capacity));
  }
  return data;
}

}  // namespace

FlatIndex FlatIndex::Build(PageFile* file, std::vector<RTreeEntry> elements,
                           BuildStats* out_stats) {
  return Build(file, elements, BuildOptions{}, out_stats);
}

FlatIndex FlatIndex::Build(PageFile* file, std::span<RTreeEntry> elements,
                           const BuildOptions& options,
                           BuildStats* out_stats) {
  FlatIndex index;
  index.file_ = file;
  BuildStats stats;
  if (elements.empty()) {
    index.build_stats_ = stats;
    if (out_stats != nullptr) *out_stats = stats;
    return index;
  }

  // num_threads == 1 keeps the whole build on the calling thread; any other
  // value spins up a pool shared by all three phases. Either way the
  // resulting PageFile is byte-identical (see BuildOptions).
  std::optional<ThreadPool> owned_pool;
  ThreadPool* pool = nullptr;
  if (options.num_threads != 1) {
    owned_pool.emplace(options.num_threads);
    pool = &*owned_pool;
  }

  const uint32_t page_capacity = NodeCapacity(file->page_size());

  const bool aggregate_counts =
      options.aggregate_counts && AllBoxesAggregatable(elements);
  const uint64_t total_elements = elements.size();

  // Phase 1: STR partitioning (Algorithm 1, by selection).
  auto t_partition = Clock::now();
  const Aabb universe = BoundsOf(elements);
  std::vector<PartitionInfo> partitions =
      StrPartition(elements, page_capacity, universe, pool);
  stats.partition_seconds = SecondsSince(t_partition);

  // Phase 2: neighborhood computation (tile grid join).
  auto t_neighbor = Clock::now();
  ComputeNeighbors(&partitions, pool);
  stats.neighbor_seconds = SecondsSince(t_neighbor);
  stats.partitions = partitions.size();
  stats.neighbor_pointers = TotalNeighborPointers(partitions);

  // Phase 3: materialize object pages and the seed tree. PageIds are
  // allocated serially (deterministic layout); filling the pages fans out —
  // every worker writes only its own pages.
  auto t_write = Clock::now();

  // One object page per partition. StrPartition fixes only which elements
  // share a page; each page stores them sorted on z, the order the STR sort
  // of its run would give.
  ParallelFor(pool, partitions.size(), /*grain=*/0, [&](size_t, size_t i) {
    const PartitionInfo& p = partitions[i];
    std::sort(elements.begin() + p.first, elements.begin() + p.first + p.count,
              EntryCenterOrder{2});
  });

  // Records fill seed leaves in STR blob order. A first fill sizes its blobs
  // as if every pointer crossed leaves (a record alone on a leaf); the final
  // fill re-runs StrOrder with the first fill's mean records per leaf.
  uint64_t total_footprint = 0;
  for (const PartitionInfo& p : partitions) {
    if (kSeedLeafHeaderSize + RecordFootprint(1, p.neighbors.size()) >
            file->page_size() ||
        p.neighbors.size() > UINT16_MAX) {
      throw std::runtime_error(
          "FlatIndex::Build: metadata record exceeds page size; increase the "
          "page size or reduce data-set degeneracy (neighbor fan-out)");
    }
    total_footprint += RecordFootprint(0, p.neighbors.size());
  }
  const uint32_t est_records_per_leaf = std::max<uint32_t>(
      1, static_cast<uint32_t>(
             (file->page_size() - kSeedLeafHeaderSize) /
             (total_footprint / partitions.size() + 1)));
  const size_t first_leaves =
      FillSeedLeaves(partitions, file->page_size(), est_records_per_leaf, pool)
          .members.size();
  SeedLeafFill fill = FillSeedLeaves(
      partitions, file->page_size(),
      static_cast<uint32_t>((partitions.size() + first_leaves / 2) /
                            first_leaves),
      pool);
  const std::vector<std::vector<uint32_t>>& leaf_members = fill.members;
  std::vector<RecordRef>& refs = fill.refs;  // page: leaf index
  const std::vector<uint16_t>& same_leaf = fill.same_leaf;
  for (const std::vector<uint32_t>& members : leaf_members) {
    for (const uint32_t pi : members) {
      stats.metadata_bytes +=
          RecordFootprint(members.size(),
                          partitions[pi].neighbors.size() - same_leaf[pi]) -
          kSlotDirEntrySize;
    }
  }

  // Object pages are allocated in leaf order, then slot order, so record s
  // of a leaf reads the leaf's first object page + s (docs/file_format.md
  // §3). The pages themselves fill in parallel.
  std::vector<PageId> object_pages(partitions.size());
  for (const std::vector<uint32_t>& members : leaf_members) {
    for (size_t slot = 0; slot < members.size(); ++slot) {
      object_pages[members[slot]] = file->Allocate(PageCategory::kObject);
      assert(object_pages[members[slot]] ==
             object_pages[members.front()] + slot);
    }
  }
  ParallelFor(pool, partitions.size(), /*grain=*/0, [&](size_t, size_t i) {
    const PartitionInfo& p = partitions[i];
    NodeWriter writer(file->MutableData(object_pages[i]), file->page_size());
    writer.Init(/*level=*/0);
    for (uint32_t j = 0; j < p.count; ++j) {
      writer.Append(elements[p.first + j]);
    }
  });
  stats.object_pages = partitions.size();

  // Allocate leaves, then rewrite the provisional leaf indexes in refs into
  // real PageIds. The packed 4-byte neighbor-pointer format caps leaf page
  // ids at 2^20 and slots at 2^12 (metadata.h); enforce that in release
  // builds too.
  std::vector<PageId> leaf_ids(leaf_members.size());
  for (size_t l = 0; l < leaf_members.size(); ++l) {
    leaf_ids[l] = file->Allocate(PageCategory::kSeedLeaf);
  }
  if (!leaf_ids.empty() && leaf_ids.back() >= kMaxSeedLeafPages) {
    throw std::runtime_error(
        "FlatIndex::Build: seed-leaf PageId exceeds the packed neighbor-"
        "pointer range (2^20 pages); use a larger page size or shard the "
        "data set");
  }
  for (RecordRef& ref : refs) {
    if (ref.slot >= kMaxRecordsPerLeaf) {
      throw std::runtime_error(
          "FlatIndex::Build: record slot exceeds the packed neighbor-"
          "pointer range (2^12 records per leaf)");
    }
    ref.page = leaf_ids[ref.page];
  }

  // Each record's boxes as its leaf stores them: the f32 boxes coded on the
  // leaf frame's grid, decoded. Hints are encoded on these decoded boxes,
  // the ones the crawl reads back.
  std::vector<std::vector<MetadataRecordDraft>> drafts(leaf_members.size());
  std::vector<Aabb> stored_tiles(partitions.size());
  std::vector<Aabb> stored_pages(partitions.size());
  ParallelFor(pool, leaf_members.size(), /*grain=*/0, [&](size_t, size_t l) {
    drafts[l].resize(leaf_members[l].size());
    for (size_t slot = 0; slot < leaf_members[l].size(); ++slot) {
      const PartitionInfo& p = partitions[leaf_members[l][slot]];
      MetadataRecordDraft& draft = drafts[l][slot];
      draft.page_mbr = p.page_mbr;
      draft.tile = p.tile;
      HalfPageBoxes(&elements[p.first], p.count, draft.halves);
    }
    const QuantGrid frame(SeedLeafFrame(drafts[l]), kRecordCells);
    for (const uint32_t pi : leaf_members[l]) {
      stored_tiles[pi] = StoredRecordBox(frame, partitions[pi].tile);
      stored_pages[pi] = StoredRecordBox(frame, partitions[pi].page_mbr);
    }
  });

  // Serialize the leaves with fully-resolved neighbor pointers; leaves are
  // disjoint pages, so they serialize in parallel.
  std::vector<RTreeEntry> leaf_entries(leaf_members.size());
  ParallelFor(pool, leaf_members.size(), /*grain=*/0, [&](size_t, size_t l) {
    Aabb leaf_bounds;
    for (size_t slot = 0; slot < leaf_members[l].size(); ++slot) {
      const uint32_t pi = leaf_members[l][slot];
      const PartitionInfo& p = partitions[pi];
      MetadataRecordDraft& draft = drafts[l][slot];
      const size_t cross = p.neighbors.size() - same_leaf[pi];
      draft.same_leaf.reserve(same_leaf[pi]);
      draft.cross_leaf.reserve(cross);
      draft.hints.reserve(cross);
      const HintGrid grid(stored_tiles[pi]);
      for (uint32_t ni : p.neighbors) {
        if (refs[ni].page == leaf_ids[l]) {
          draft.same_leaf.push_back(refs[ni].slot);
        } else {
          draft.cross_leaf.push_back(refs[ni]);
          draft.hints.push_back(
              grid.Encode(stored_tiles[ni], stored_pages[ni]));
        }
      }
      // The record is indexed in the seed tree under its page MBR key
      // (Section V-B.2).
      leaf_bounds.ExpandToInclude(p.page_mbr);
    }
    WriteSeedLeaf(file->MutableData(leaf_ids[l]), file->page_size(),
                  object_pages[leaf_members[l].front()], drafts[l]);
    leaf_entries[l] = RTreeEntry{leaf_bounds, leaf_ids[l]};
  });
  stats.seed_leaf_pages = leaf_members.size();

  // Seed the aggregate builder with the record-level entries (one object
  // page each) and the per-leaf totals; BuildUpperLevels rolls them up
  // through the internal levels. Serial and in deterministic leaf order, so
  // the sidecar is byte-identical across thread counts like the pages.
  std::optional<AggregateBuilder> agg_builder;
  if (aggregate_counts) {
    agg_builder.emplace();
    for (size_t l = 0; l < leaf_members.size(); ++l) {
      AggEntry leaf_total{0, 1};  // the seed-leaf page itself
      for (size_t slot = 0; slot < leaf_members[l].size(); ++slot) {
        const AggEntry record{partitions[leaf_members[l][slot]].count, 1};
        agg_builder->RecordSlot(leaf_ids[l], static_cast<uint16_t>(slot),
                                record);
        leaf_total.elements += record.elements;
        leaf_total.pages += record.pages;
      }
      agg_builder->SetPageTotal(leaf_ids[l], leaf_total);
    }
  }

  // Internal levels of the seed tree, then the tile directory, which every
  // query seeds through.
  const size_t pages_before = file->page_count();
  if (leaf_entries.size() == 1) {
    index.seed_root_ = leaf_ids.front();
    index.root_is_leaf_ = true;
    index.seed_height_ = 1;
  } else {
    RTree upper = BuildUpperLevels(
        file, leaf_entries, /*level=*/1, LevelOrder::kStr,
        PageCategory::kSeedInternal, pool,
        agg_builder.has_value() ? &*agg_builder : nullptr);
    index.seed_root_ = upper.root();
    index.root_is_leaf_ = false;
    index.seed_height_ = upper.height();
  }
  const size_t tree_pages = file->page_count() - pages_before;
  index.directory_root_ = WriteTileDirectory(file, partitions, refs);
  stats.seed_internal_pages = file->page_count() - pages_before;
  stats.directory_pages = stats.seed_internal_pages - tree_pages;
  stats.seed_height = index.seed_height_;
  stats.write_seconds = SecondsSince(t_write);

  if (agg_builder.has_value()) {
    index.AttachAggregates(std::make_shared<const SeedAggregates>(
        agg_builder->Finish(total_elements)));
  }

  index.partition_profiles_.reserve(partitions.size());
  for (const PartitionInfo& p : partitions) {
    index.partition_profiles_.push_back(PartitionProfile{
        p.partition_mbr.Volume(),
        static_cast<uint32_t>(p.neighbors.size())});
  }

  index.build_stats_ = stats;
  if (out_stats != nullptr) *out_stats = stats;
  return index;
}

FlatIndex FlatIndex::Attach(const PageStore* file,
                            const Descriptor& descriptor) {
  if (descriptor.seed_root != kInvalidPageId &&
      descriptor.directory_root == kInvalidPageId) {
    throw std::runtime_error(
        "FlatIndex::Attach: the descriptor has a seed root but no tile "
        "directory root; it was saved before every index had a directory, "
        "so rebuild the index");
  }
  FlatIndex index;
  index.file_ = file;
  index.seed_root_ = descriptor.seed_root;
  index.root_is_leaf_ = descriptor.root_is_leaf;
  index.seed_height_ = descriptor.seed_height;
  index.directory_root_ = descriptor.directory_root;
  return index;
}

void FlatIndex::AttachAggregates(
    std::shared_ptr<const SeedAggregates> aggregates) {
  aggregates_ = std::move(aggregates);
  crawl_count_below_ = 0.0;
  if (aggregates_ == nullptr || root_is_leaf_ ||
      seed_root_ >= file_->page_count()) {
    return;
  }
  // Seed-leaf pages from the sidecar, not PageCountIn (one PageFile can
  // hold several indexes): a leaf's group holds its records' entries, which
  // count one object page each, and an internal child counts at least two.
  size_t leaves = 0;
  aggregates_->ForEachPage(
      [&leaves](PageId, const std::vector<AggEntry>& slots) {
        leaves += !slots.empty() && slots.front().pages == 1;
      });
  // The data bounds: the root page's child boxes, read uncharged.
  const NodeView root(file_->Data(seed_root_));
  if (leaves == 0 ||
      !IsSeedNode(root, kAnyLevel, NodeCapacity(file_->page_size()))) {
    return;
  }
  crawl_count_below_ =
      kCrawlCountLeaves * root.Bounds().Volume() / static_cast<double>(leaves);
}

template <typename Visit, typename Covered>
void FlatIndex::WalkSeedTree(PageCache* pool, const Aabb& gate,
                             CrawlScratch* scratch, const Visit& visit,
                             const Covered& covered) const {
  if (empty() || gate.IsEmpty()) return;
  constexpr bool kWantCovered = !std::is_same_v<Covered, std::nullptr_t>;

  // Each frame carries the level its page must have, one below its
  // parent's; level 0 is a seed leaf. Levels strictly fall, so no walk can
  // revisit an ancestor.
  struct Frame {
    PageId page;
    int level;
  };
  // The batched node gates need the scratch's hit buffers; materialize a
  // throwaway when the caller brought none (results and I/O identical).
  std::optional<CrawlScratch> throwaway;
  CrawlScratch* s = scratch != nullptr ? scratch : &throwaway.emplace();
  std::vector<Frame> stack = {{seed_root_, root_is_leaf_ ? 0 : kAnyLevel}};
  const uint32_t capacity = NodeCapacity(file_->page_size());
  while (!stack.empty()) {
    // Cancellation point: one pop reads at most one node page before the
    // next check (visitors check again before each object-page read).
    s->CheckControl();
    const Frame frame = stack.back();
    stack.pop_back();
    const char* data = pool->Read(frame.page);
    if (frame.level == 0) {
      const SeedLeafView leaf(data, file_->page_size(), frame.page);
      for (uint16_t slot = 0; slot < leaf.count(); ++slot) {
        const MetadataRecordView record = leaf.RecordAt(slot);
        if (!record.ObjectPageMeets(gate)) continue;
        if constexpr (kWantCovered) {
          if (AllElementsMeet(gate, record) && covered(frame.page, slot)) {
            continue;
          }
        }
        visit(RecordRef{frame.page, slot}, record, s);
      }
      continue;
    }
    const NodeView node(data);
    if (!IsSeedNode(node, frame.level, capacity)) {
      ThrowBadSeedPage(frame.page, node, frame.level, capacity);
    }
    // Gate the whole fanout in one batched sweep, plus the containment mask
    // when a covered callback wants it; push the hits last to first so they
    // pop first to last.
    const uint16_t n = node.count();
    const char* boxes = data + kNodeHeaderSize;
    uint8_t* hits = s->Hits(n);
    IntersectsBatch(boxes, sizeof(RTreeEntry), n, gate, hits);
    [[maybe_unused]] uint8_t* cover = nullptr;
    if constexpr (kWantCovered) {
      cover = s->CoverHits(n);
      ContainsBatch(boxes, sizeof(RTreeEntry), n, gate, cover);
    }
    for (int i = n - 1; i >= 0; --i) {
      const auto slot = static_cast<uint16_t>(i);
      if (!hits[slot]) continue;
      if constexpr (kWantCovered) {
        if (cover[slot] && covered(frame.page, slot)) continue;
      }
      stack.push_back(
          Frame{static_cast<PageId>(node.IdAt(slot)), node.level() - 1});
    }
  }
}

template <typename ScanPage, typename Covered>
void FlatIndex::CrawlPages(PageCache* pool, const Aabb& gate_box,
                           RecordRef start, CrawlGuard guard,
                           CrawlScratch* scratch, const ScanPage& scan,
                           const Covered& covered) const {
  if (empty() || gate_box.IsEmpty() || !start.valid()) return;
  constexpr bool kWantCovered = !std::is_same_v<Covered, std::nullptr_t>;

  // Only materialize the fallback when the caller brought no scratch; a
  // caller-owned scratch keeps this path allocation-free.
  std::optional<CrawlScratch> throwaway;
  CrawlScratch* s = scratch != nullptr ? scratch : &throwaway.emplace();
  s->Reset();
  s->Push(start);  // breadth-first (Algorithm 2)
  s->Insert(start.Key());

  RecordRef ref;
  while (s->Pop(&ref)) {
    // Cancellation point, once per BFS frontier pop: a pop reads at most two
    // pages (the seed leaf + possibly the object page), so a tripped
    // deadline/cancel/budget stops the crawl within one frontier step.
    s->CheckControl();
    const SeedLeafView leaf(pool->Read(ref.page), file_->page_size(),
                            ref.page);
    const MetadataRecordView record = leaf.RecordAt(ref.slot);

    // "The object page is only read from disk if m's page MBR intersects
    // with the query", and here also one of its half-page boxes.
    if (record.ObjectPageMeets(gate_box)) {
      bool answered = false;
      if constexpr (kWantCovered) {
        answered = AllElementsMeet(gate_box, record) &&
                   covered(ref.page, ref.slot);
      }
      if (!answered) {
        scan(ReadObjectPage(pool, *file_, record.object_page()), s);
      }
    }

    // The paper follows M's neighbor pointers iff M's stretched partition
    // MBR intersects the query. The tile suffices: the tiles meeting the
    // query are linked tile to tile and reach every hit's record. The start
    // record always expands: the directory's start has a tile that meets
    // the query, and any other valid start has a page that does, so it
    // links to a tile that does (docs/architecture.md, "Why the crawl is
    // exact"). kPageMbr reproduces the broken variant of Figures 8/9 for
    // the ablation bench.
    const Aabb tile = record.tile();
    const bool tile_meets = tile.Intersects(gate_box);
    const bool expands = guard == CrawlGuard::kPartitionMbr
                             ? tile_meets
                             : record.page_mbr().Intersects(gate_box);
    if (ref == start || expands) {
      const auto push = [s](RecordRef neighbor) {
        if (s->Insert(neighbor.Key())) s->Push(neighbor);
      };
      // Same-leaf neighbors cost no read: push them all.
      record.ForEachSameLeafSlot(
          [&](uint16_t slot) { push(RecordRef{ref.page, slot}); });
      // A cross-leaf pointer's hint holds every point where the neighbor's
      // tile or page meets this record's tile. Every link the crawl needs
      // from a record whose tile meets the query meets the query there, so
      // a pointer whose hint misses the query is skipped
      // (docs/architecture.md, "Why the crawl is exact"). A start whose
      // tile misses the query and the kPageMbr ablation push every pointer.
      std::optional<HintGrid> grid;
      if (guard == CrawlGuard::kPartitionMbr && tile_meets) grid.emplace(tile);
      for (uint32_t i = 0; i < record.cross_leaf_count(); ++i) {
        if (grid.has_value() &&
            !grid->Decode(record.HintAt(i)).Intersects(gate_box)) {
          continue;
        }
        push(record.CrossLeafRefAt(i));
      }
    }
  }
}

namespace {

/// Object-page scan for the crawl: transposes the page's entry MBRs into
/// the scratch SoA lanes, runs `gate(soa, hits)` (one of the vector
/// kernels), then `sink(elements, i)` for every hit — the one place the
/// Assign / Hits / gate / collect pattern lives.
template <typename GateFn, typename SinkFn>
auto SoaScan(GateFn gate, SinkFn sink) {
  return [gate, sink](const char* page, CrawlScratch* s) {
    NodeView elements(page);
    const uint16_t n = elements.count();
    SoaBoxes& soa = s->Soa();
    soa.Assign(page + kNodeHeaderSize, sizeof(RTreeEntry), n);
    uint8_t* hits = s->Hits(soa.padded_count());
    gate(soa, hits);
    for (uint16_t i = 0; i < n; ++i) {
      if (hits[i]) sink(elements, i);
    }
  };
}

}  // namespace

std::optional<RecordRef> FlatIndex::Seed(PageCache* pool, const Aabb& query,
                                         CrawlScratch* scratch) const {
  if (empty() || query.IsEmpty()) return std::nullopt;
  if (scratch != nullptr) scratch->CheckControl();
  return LocateTile(pool, *file_, directory_root_, query);
}

void FlatIndex::Crawl(PageCache* pool, const Aabb& query, RecordRef start,
                      std::vector<uint64_t>* out, CrawlGuard guard,
                      CrawlScratch* scratch) const {
  // Object pages pack their RTreeEntry slots contiguously: transpose the
  // page's MBRs into the scratch SoA lanes once, then gate the whole fanout
  // with the vector kernel (see geometry/box_kernels.h).
  CrawlPages(pool, query, start, guard, scratch,
             SoaScan(
                 [&query](const SoaBoxes& soa, uint8_t* hits) {
                   IntersectsSoa(soa, query, hits);
                 },
                 [out](const NodeView& elements, uint16_t i) {
                   out->push_back(elements.IdAt(i));
                 }));
}

void FlatIndex::RangeQuery(PageCache* pool, const Aabb& query,
                           std::vector<uint64_t>* out,
                           CrawlScratch* scratch) const {
  const std::optional<RecordRef> start = Seed(pool, query, scratch);
  if (!start.has_value()) return;
  Crawl(pool, query, *start, out, CrawlGuard::kPartitionMbr, scratch);
}

size_t FlatIndex::RangeCount(PageCache* pool, const Aabb& query,
                             CrawlScratch* scratch) const {
  uint64_t count = 0;
  RangeCountInto(pool, query, &count, scratch);
  return static_cast<size_t>(count);
}

void FlatIndex::RangeCountInto(PageCache* pool, const Aabb& query,
                               uint64_t* acc, CrawlScratch* scratch) const {
  // With aggregates, a covered subtree or a record whose elements all meet
  // the query adds its stored count instead of being read (aggregated
  // builds have no empty element boxes). Every tally goes straight into
  // *acc, so a QueryAbort from a cancellation point leaves the elements
  // counted so far there — the partial-result contract (see
  // core/query_control.h).
  const auto stored = [this, acc](PageId page, uint16_t slot) {
    const AggEntry* e = aggregates_->Find(page, slot);
    if (e != nullptr) *acc += e->elements;
    return e != nullptr;
  };
  if (aggregates_ != nullptr && !(query.Volume() < crawl_count_below_)) {
    // Descent: the seed-tree walk visits every candidate object page
    // exactly once, so it tallies the same count as the crawl, and only
    // subtrees straddling the query boundary are gated exactly.
    WalkSeedTree(
        pool, query, scratch,
        [&](RecordRef, const MetadataRecordView& record, CrawlScratch* s) {
          s->CheckControl();  // each boundary record reads one object page
          const char* page =
              ReadObjectPage(pool, *file_, record.object_page());
          const uint16_t n = NodeView(page).count();
          uint8_t* hits = s->Hits(n);
          IntersectsBatch(page + kNodeHeaderSize, sizeof(RTreeEntry), n,
                          query, hits);
          for (uint16_t i = 0; i < n; ++i) *acc += hits[i];
        },
        stored);
    return;
  }
  const std::optional<RecordRef> start = Seed(pool, query, scratch);
  if (!start.has_value()) return;
  const auto count_hits = SoaScan(
      [&query](const SoaBoxes& soa, uint8_t* hits) {
        IntersectsSoa(soa, query, hits);
      },
      [acc](const NodeView&, uint16_t) { ++*acc; });
  if (aggregates_ != nullptr) {
    CrawlPages(pool, query, *start, CrawlGuard::kPartitionMbr, scratch,
               count_hits, stored);
  } else {
    CrawlPages(pool, query, *start, CrawlGuard::kPartitionMbr, scratch,
               count_hits);
  }
}

namespace {

/// Page scan testing every element against a custom predicate (the kNN
/// path, whose accept lambda is stateful and records distances).
template <typename Accept>
auto PredicateScan(const Accept& accept, std::vector<uint64_t>* out) {
  return [&accept, out](const char* page, CrawlScratch*) {
    NodeView elements(page);
    for (uint16_t i = 0; i < elements.count(); ++i) {
      const RTreeEntry e = elements.EntryAt(i);
      if (accept(e.box)) out->push_back(e.id);
    }
  };
}

}  // namespace

std::vector<uint64_t> FlatIndex::KnnQuery(PageCache* pool, const Vec3& center,
                                          size_t k,
                                          CrawlScratch* scratch) const {
  std::vector<uint64_t> result;
  if (empty() || k == 0) return result;

  // Initial radius guess: half the page-MBR diagonal of the record whose
  // tile holds `center`, when its object page holds an element containing
  // the center; else a coarse default. On sparse data the tile holding the
  // center may belong to a page far wider than the center's neighborhood.
  double radius = 1.0;
  if (const std::optional<RecordRef> seed =
          Seed(pool, Aabb::FromPoint(center), scratch)) {
    const MetadataRecordView record =
        SeedLeafView(pool->Read(seed->page), file_->page_size(), seed->page)
            .RecordAt(seed->slot);
    // No element holds the center unless a half-page box does.
    if (record.ObjectPageMeets(Aabb::FromPoint(center))) {
      const NodeView elements(
          ReadObjectPage(pool, *file_, record.object_page()));
      for (uint16_t i = 0; i < elements.count(); ++i) {
        if (elements.BoxAt(i).Contains(center)) {
          radius = 0.5 * record.page_mbr().Extents().Norm() + 1e-12;
          break;
        }
      }
    }
  }

  // Sphere-crawl with doubling radius until at least k elements lie within
  // the ball. The accept predicate records each accepted element's distance
  // in the same order the PredicateScan crawl records its id, so pairing by
  // position is exact. Once k elements are inside radius r, the true k-th nearest is at
  // distance <= r, hence all true top-k were inside the ball: ranking the
  // candidates is exact.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double radius2 = radius * radius;
    const Aabb gate =
        Aabb::FromCenterHalfExtents(center, Vec3(radius, radius, radius));
    std::vector<double> distances;
    std::vector<uint64_t> ids;
    const auto accept = [&center, radius2, &distances](const Aabb& box) {
      const double d2 = box.DistanceSquaredTo(center);
      // A NaN coordinate gives a NaN distance: no ball holds that box (as
      // in IntersectsSphere), and it must not reach the ranking below.
      if (!(d2 <= radius2)) return false;
      distances.push_back(d2);
      return true;
    };
    const std::optional<RecordRef> start = Seed(pool, gate, scratch);
    if (start.has_value()) {
      CrawlPages(pool, gate, *start, CrawlGuard::kPartitionMbr, scratch,
                 PredicateScan(accept, &ids));
    }
    // The last attempt returns whatever was found (k may exceed the data
    // set size).
    if (ids.size() >= k || attempt == 63) {
      std::vector<std::pair<double, uint64_t>> candidates(ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        candidates[i] = {distances[i], ids[i]};
      }
      std::sort(candidates.begin(), candidates.end());
      const size_t take = std::min(k, candidates.size());
      result.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        result.push_back(candidates[i].second);
      }
      return result;
    }
    radius *= 2.0;
  }
  return result;
}

void FlatIndex::SphereQuery(PageCache* pool, const Vec3& center,
                            double radius, std::vector<uint64_t>* out,
                            CrawlScratch* scratch) const {
  if (radius < 0.0) return;
  const Aabb gate = Aabb::FromCenterHalfExtents(
      center, Vec3(radius, radius, radius));
  const std::optional<RecordRef> start = Seed(pool, gate, scratch);
  if (!start.has_value()) return;
  CrawlSphere(pool, center, radius, *start, out, scratch);
}

void FlatIndex::CrawlSphere(PageCache* pool, const Vec3& center,
                            double radius, RecordRef start,
                            std::vector<uint64_t>* out,
                            CrawlScratch* scratch) const {
  if (radius < 0.0) return;
  const Aabb gate = Aabb::FromCenterHalfExtents(
      center, Vec3(radius, radius, radius));
  // The crawl's element gate runs as a batched SoA sphere-distance sweep;
  // SphereGateSoa reproduces IntersectsSphere exactly (same IEEE operation
  // order — see geometry/box_kernels.h), so results match the per-element
  // predicate bit for bit.
  CrawlPages(pool, gate, start, CrawlGuard::kPartitionMbr, scratch,
             SoaScan(
                 [&center, radius](const SoaBoxes& soa, uint8_t* hits) {
                   SphereGateSoa(soa, center, radius, hits);
                 },
                 [out](const NodeView& elements, uint16_t i) {
                   out->push_back(elements.IdAt(i));
                 }));
}

void FlatIndex::RangeQueryViaSeedScan(PageCache* pool, const Aabb& query,
                                      std::vector<uint64_t>* out,
                                      CrawlScratch* scratch) const {
  // Amortized reservation keeps vector growth out of the measurement for
  // this ablation baseline. Every object page belongs to exactly one
  // metadata record and every leaf is visited once, so the output needs no
  // de-duplication afterwards.
  const auto reserve_more = [out](size_t more) {
    const size_t need = out->size() + more;
    if (out->capacity() < need) {
      out->reserve(std::max(need, out->capacity() * 2));
    }
  };
  WalkSeedTree(
      pool, query, scratch,
      [&](RecordRef, const MetadataRecordView& record, CrawlScratch* s) {
        s->CheckControl();  // each candidate record reads one object page
        const char* page = ReadObjectPage(pool, *file_, record.object_page());
        NodeView elements(page);
        const uint16_t n = elements.count();
        if (aggregates_ != nullptr && AllElementsMeet(query, record)) {
          // Every element meets the query (the query contains the record's
          // page MBR or its stored tile), so skip the per-entry gates and
          // copy the whole page's ids. Licensed by has_aggregates(): an
          // aggregated build certified all element boxes non-empty and
          // finite, which the certificate needs. The page read itself stays
          // (same bytes, same I/O as the gated path).
          reserve_more(n);
          for (uint16_t i = 0; i < n; ++i) out->push_back(elements.IdAt(i));
          return;
        }
        uint8_t* hits = s->Hits(n);
        IntersectsBatch(page + kNodeHeaderSize, sizeof(RTreeEntry), n, query,
                        hits);
        size_t matched = 0;
        for (uint16_t i = 0; i < n; ++i) matched += hits[i];
        reserve_more(matched);
        for (uint16_t i = 0; i < n; ++i) {
          if (hits[i]) out->push_back(elements.IdAt(i));
        }
      });
}

std::vector<RecordRef> FlatIndex::FindAllCandidateRecords(
    const Aabb& query) const {
  std::vector<RecordRef> result;
  if (empty()) return result;
  IoStats uncharged;  // a test hook's reads are no query's I/O
  BufferPool pool(file_, &uncharged);
  WalkSeedTree(&pool, query, nullptr,
               [&result](RecordRef ref, const MetadataRecordView&,
                         CrawlScratch*) { result.push_back(ref); });
  return result;
}

}  // namespace flat

#include "core/flat_index.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "geometry/box_kernels.h"
#include "parallel/thread_pool.h"
#include "rtree/node.h"
#include "rtree/pack.h"

namespace flat {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Aabb BoundsOf(const std::vector<RTreeEntry>& entries) {
  Aabb bounds;
  for (const RTreeEntry& e : entries) bounds.ExpandToInclude(e.box);
  return bounds;
}

// Aggregate pruning rests on "query covers the subtree MBR => every element
// below matches", which only holds when every element box is non-empty and
// finite: an empty or NaN box is invisible to the intersection gates yet
// would be included in stored counts. One such element disables aggregates
// for the whole build (the exact paths remain correct for it).
bool AllBoxesAggregatable(const std::vector<RTreeEntry>& elements) {
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

/// One internal seed node, gated against `gate` whichever format the page
/// carries (the header's format byte dispatches). Exact pages run the
/// batched double-precision sweep; compressed pages quantize the query once
/// into the node's grid and sweep the u16 slots through the scratch's
/// quantized SoA lanes. Quantized hits are a superset of the exact hits
/// (outward rounding, geometry/box_kernels.h): a spurious child costs one
/// extra descent and is resolved by the exact gates at the seed-leaf /
/// object level; a miss is impossible, so results never change.
class InternalNodeGate {
 public:
  /// `want_covered` additionally computes a containment mask (Covered):
  /// exact pages run the flipped-predicate ContainsBatch, compressed pages
  /// certify slots against the conservatively dequantized cover thresholds
  /// (QuantizeCoverQuery) — covered can under-trigger near the query faces
  /// on quantized pages but never over-trigger, so a covered verdict always
  /// licenses taking the child's stored aggregate instead of descending.
  InternalNodeGate(const char* data, const Aabb& gate, CrawlScratch* scratch,
                   bool want_covered = false)
      : data_(data), node_(data) {
    const uint16_t n = node_.count();
    uint8_t* hits;
    if (node_.format() == NodeFormat::kQuantized) {
      const CompressedNodeView cnode(data);
      QuantizedSoa& soa = scratch->QuantizedLanes();
      soa.Assign(cnode.slots(), sizeof(QuantizedSlot), n);
      hits = scratch->Hits(soa.padded_count());
      IntersectsQuantizedSoa(soa, QuantizeQuery(cnode.node_box(), gate),
                             hits);
      if (want_covered) {
        uint8_t* cover = scratch->CoverHits(soa.padded_count());
        ContainsQuantizedSoa(soa, QuantizeCoverQuery(cnode.node_box(), gate),
                             cover);
        cover_ = cover;
      }
    } else {
      hits = scratch->Hits(n);
      IntersectsBatch(data + kNodeHeaderSize, sizeof(RTreeEntry), n, gate,
                      hits);
      if (want_covered) {
        uint8_t* cover = scratch->CoverHits(n);
        ContainsBatch(data + kNodeHeaderSize, sizeof(RTreeEntry), n, gate,
                      cover);
        cover_ = cover;
      }
    }
    hits_ = hits;
  }

  uint16_t count() const { return node_.count(); }
  uint8_t level() const { return node_.level(); }
  bool Hit(uint16_t i) const { return hits_[i] != 0; }
  bool Covered(uint16_t i) const { return cover_[i] != 0; }

  PageId ChildAt(uint16_t i) const {
    if (node_.format() == NodeFormat::kQuantized) {
      uint32_t child;
      std::memcpy(&child,
                  data_ + kQuantizedSlotsOffset + i * sizeof(QuantizedSlot) +
                      offsetof(QuantizedSlot, child),
                  sizeof(child));
      return child;
    }
    return static_cast<PageId>(node_.IdAt(i));
  }

 private:
  const char* data_;
  NodeView node_;
  const uint8_t* hits_;
  const uint8_t* cover_ = nullptr;  // set iff want_covered
};

}  // namespace

FlatIndex FlatIndex::Build(PageFile* file, std::vector<RTreeEntry> elements,
                           BuildStats* out_stats) {
  return Build(file, std::move(elements), BuildOptions{}, out_stats);
}

FlatIndex FlatIndex::Build(PageFile* file, std::vector<RTreeEntry> elements,
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

  // Phase 1: STR partitioning (Algorithm 1, sorting passes).
  auto t_partition = Clock::now();
  const Aabb universe = BoundsOf(elements);
  std::vector<PartitionInfo> partitions =
      StrPartition(&elements, page_capacity, universe, pool);
  stats.partition_seconds = SecondsSince(t_partition);

  // Phase 2: neighborhood computation (grid intersection join).
  auto t_neighbor = Clock::now();
  ComputeNeighbors(&partitions, pool);
  stats.neighbor_seconds = SecondsSince(t_neighbor);
  stats.partitions = partitions.size();
  stats.neighbor_pointers = TotalNeighborPointers(partitions);

  // Phase 3: materialize object pages and the seed tree. PageIds are
  // allocated serially (deterministic layout); filling the pages fans out —
  // every worker writes only its own pages.
  auto t_write = Clock::now();

  // Object pages: one per partition, elements in STR order.
  std::vector<PageId> object_pages(partitions.size());
  for (size_t i = 0; i < partitions.size(); ++i) {
    object_pages[i] = file->Allocate(PageCategory::kObject);
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

  // Assign each metadata record to a seed-leaf page. Records are indexed in
  // the seed tree under their page MBR, and "storing the records in the
  // leafs of the seed tree (an R-Tree) ensures that spatially close records
  // are stored on the same leaf page" (Section V-B.2): we therefore re-tile
  // the records with STR at *leaf granularity* (a 3-D blob of ~a dozen
  // records per leaf) instead of reusing the 1-D object-page run order —
  // this is what keeps the crawl's metadata reads local.
  uint64_t total_footprint = 0;
  for (const PartitionInfo& p : partitions) {
    const size_t footprint = RecordFootprint(p.neighbors.size());
    if (kSeedLeafHeaderSize + footprint > file->page_size()) {
      throw std::runtime_error(
          "FlatIndex::Build: metadata record exceeds page size; increase the "
          "page size or reduce data-set degeneracy (neighbor fan-out)");
    }
    total_footprint += footprint;
  }
  const uint32_t est_records_per_leaf = std::max<uint32_t>(
      1, static_cast<uint32_t>(
             (file->page_size() - kSeedLeafHeaderSize) /
             (total_footprint / partitions.size() + 1)));
  std::vector<RTreeEntry> record_order(partitions.size());
  for (size_t i = 0; i < partitions.size(); ++i) {
    record_order[i] = RTreeEntry{partitions[i].page_mbr, i};
  }
  StrOrder(&record_order, est_records_per_leaf, pool);

  std::vector<std::vector<uint32_t>> leaf_members;
  std::vector<RecordRef> refs(partitions.size());
  size_t used = kSeedLeafHeaderSize;
  for (const RTreeEntry& rec : record_order) {
    const uint32_t pi = static_cast<uint32_t>(rec.id);
    const size_t footprint = RecordFootprint(partitions[pi].neighbors.size());
    if (leaf_members.empty() || used + footprint > file->page_size()) {
      leaf_members.emplace_back();
      used = kSeedLeafHeaderSize;
    }
    refs[pi].slot = static_cast<uint16_t>(leaf_members.back().size());
    refs[pi].page = static_cast<PageId>(leaf_members.size() - 1);  // leaf idx
    leaf_members.back().push_back(pi);
    used += footprint;
    stats.metadata_bytes += kRecordFixedSize +
                            partitions[pi].neighbors.size() * kNeighborRefSize;
  }

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

  // Serialize the leaves with fully-resolved neighbor pointers; leaves are
  // disjoint pages, so they serialize in parallel.
  std::vector<RTreeEntry> leaf_entries(leaf_members.size());
  ParallelFor(pool, leaf_members.size(), /*grain=*/0, [&](size_t, size_t l) {
    std::vector<MetadataRecordDraft> drafts;
    drafts.reserve(leaf_members[l].size());
    Aabb leaf_bounds;
    for (uint32_t pi : leaf_members[l]) {
      const PartitionInfo& p = partitions[pi];
      MetadataRecordDraft draft;
      draft.page_mbr = p.page_mbr;
      draft.tile = p.tile;
      draft.object_page = object_pages[pi];
      draft.neighbors.reserve(p.neighbors.size());
      for (uint32_t ni : p.neighbors) draft.neighbors.push_back(refs[ni]);
      drafts.push_back(std::move(draft));
      // The record is indexed in the seed tree under its page MBR key
      // (Section V-B.2).
      leaf_bounds.ExpandToInclude(p.page_mbr);
    }
    WriteSeedLeaf(file->MutableData(leaf_ids[l]), file->page_size(), drafts);
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

  // Internal levels of the seed tree, exact or compressed per the build
  // options (the two layouts differ only in these kSeedInternal pages —
  // object pages and seed leaves above are byte-identical either way).
  if (leaf_entries.size() == 1) {
    index.seed_root_ = leaf_ids.front();
    index.root_is_leaf_ = true;
    index.seed_height_ = 1;
  } else {
    const size_t pages_before = file->page_count();
    const NodeFormat seed_format = options.compressed_seed_pages
                                       ? NodeFormat::kQuantized
                                       : NodeFormat::kExact;
    RTree upper = BuildUpperLevels(
        file, leaf_entries, /*level=*/1, LevelOrder::kStr,
        PageCategory::kSeedInternal, pool, seed_format,
        agg_builder.has_value() ? &*agg_builder : nullptr);
    index.seed_root_ = upper.root();
    index.root_is_leaf_ = false;
    index.seed_height_ = upper.height();
    stats.seed_internal_pages = file->page_count() - pages_before;
  }
  stats.seed_height = index.seed_height_;
  stats.write_seconds = SecondsSince(t_write);

  if (agg_builder.has_value()) {
    index.aggregates_ = std::make_shared<const SeedAggregates>(
        agg_builder->Finish(total_elements));
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

template <typename Accept>
bool FlatIndex::ProbeRecord(PageCache* pool, const MetadataRecordView& record,
                            const Accept& accept) const {
  const char* data = pool->Read(record.object_page());
  NodeView elements(data);
  for (uint16_t i = 0; i < elements.count(); ++i) {
    if (accept(elements.BoxAt(i))) return true;
  }
  return false;
}

template <typename Accept>
std::optional<RecordRef> FlatIndex::SeedWhere(PageCache* pool,
                                              const Aabb& gate,
                                              const Accept& accept,
                                              CrawlScratch* scratch) const {
  if (empty() || gate.IsEmpty()) return std::nullopt;

  struct Frame {
    PageId page;
    bool is_leaf;
  };
  // The batched node gates need the scratch's hit/lane buffers; materialize
  // a throwaway when the caller brought none (results and I/O identical).
  std::optional<CrawlScratch> throwaway;
  CrawlScratch* s = scratch != nullptr ? scratch : &throwaway.emplace();
  std::vector<Frame> stack = {{seed_root_, root_is_leaf_}};
  while (!stack.empty()) {
    // Cancellation point: one pop reads at most one node page before the
    // next check (plus per-record probes below, each checked too).
    s->CheckControl();
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.is_leaf) {
      SeedLeafView leaf(pool->Read(frame.page));
      for (uint16_t slot = 0; slot < leaf.count(); ++slot) {
        MetadataRecordView record = leaf.RecordAt(slot);
        if (!record.page_mbr().Intersects(gate)) continue;
        s->CheckControl();  // each probe below reads one object page
        if (ProbeRecord(pool, record, accept)) {
          return RecordRef{frame.page, slot};
        }
      }
      continue;
    }
    // Gate the whole fanout in one batched, format-dispatching sweep (same
    // push order as the former per-entry loop, so the descent — and thus
    // the returned seed — is unchanged on exact pages).
    const InternalNodeGate gated(pool->Read(frame.page), gate, s);
    const bool children_are_leaves = gated.level() == 1;
    for (int i = gated.count() - 1; i >= 0; --i) {
      if (gated.Hit(static_cast<uint16_t>(i))) {
        stack.push_back(Frame{gated.ChildAt(static_cast<uint16_t>(i)),
                              children_are_leaves});
      }
    }
  }
  return std::nullopt;
}

template <typename ScanPage>
void FlatIndex::CrawlPages(PageCache* pool, const Aabb& gate_box,
                           RecordRef start, CrawlGuard guard,
                           CrawlScratch* scratch, const ScanPage& scan) const {
  if (empty() || gate_box.IsEmpty() || !start.valid()) return;

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
    SeedLeafView leaf(pool->Read(ref.page));
    MetadataRecordView record = leaf.RecordAt(ref.slot);

    // "The object page is only read from disk if m's page MBR intersects
    // with the query."
    if (record.page_mbr().Intersects(gate_box)) {
      scan(pool->Read(record.object_page()), s);
    }

    // The paper follows M's neighbor pointers iff M's stretched partition
    // MBR intersects the query. The tile suffices: the tiles meeting the
    // query are linked tile to tile and reach every hit's record. The start
    // record always expands — its page meets the query, so it links to a
    // tile that does (docs/architecture.md, "Why the crawl is exact").
    // kPageMbr reproduces the broken variant of Figures 8/9 for the
    // ablation bench.
    const Aabb gate = guard == CrawlGuard::kPartitionMbr ? record.tile()
                                                         : record.page_mbr();
    if (ref == start || gate.Intersects(gate_box)) {
      const uint32_t n = record.neighbor_count();
      for (uint32_t i = 0; i < n; ++i) {
        const RecordRef neighbor = record.NeighborAt(i);
        if (s->Insert(neighbor.Key())) s->Push(neighbor);
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

std::optional<RecordRef> FlatIndex::Seed(PageCache* pool,
                                         const Aabb& query) const {
  return SeedWhere(pool, query,
                   [&query](const Aabb& box) { return box.Intersects(query); });
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
                           std::vector<uint64_t>* out, CrawlScratch* scratch,
                           CrawlGuard guard) const {
  std::optional<RecordRef> start = SeedWhere(
      pool, query, [&query](const Aabb& box) { return box.Intersects(query); },
      scratch);
  if (!start.has_value()) return;
  Crawl(pool, query, *start, out, guard, scratch);
}

size_t FlatIndex::RangeCount(PageCache* pool, const Aabb& query,
                             CrawlScratch* scratch) const {
  uint64_t count = 0;
  RangeCountInto(pool, query, &count, scratch);
  return static_cast<size_t>(count);
}

void FlatIndex::RangeCountInto(PageCache* pool, const Aabb& query,
                               uint64_t* acc, CrawlScratch* scratch) const {
  if (aggregates_ != nullptr) {
    RangeCountViaAggregates(pool, query, acc, scratch);
    return;
  }
  std::optional<RecordRef> start = SeedWhere(
      pool, query, [&query](const Aabb& box) { return box.Intersects(query); },
      scratch);
  if (!start.has_value()) return;
  // The sink bumps the caller's accumulator directly, so a QueryAbort from
  // a cancellation point leaves the elements counted so far in *acc — the
  // partial-result contract (see core/query_control.h).
  CrawlPages(pool, query, *start, CrawlGuard::kPartitionMbr, scratch,
             SoaScan(
                 [&query](const SoaBoxes& soa, uint8_t* hits) {
                   IntersectsSoa(soa, query, hits);
                 },
                 [acc](const NodeView&, uint16_t) { ++*acc; }));
}

void FlatIndex::RangeCountViaAggregates(PageCache* pool, const Aabb& query,
                                        uint64_t* acc,
                                        CrawlScratch* scratch) const {
  if (empty() || query.IsEmpty()) return;
  struct Frame {
    PageId page;
    bool is_leaf;
  };
  std::vector<uint8_t> hits;  // reused across boundary object pages
  std::optional<CrawlScratch> throwaway;
  CrawlScratch* s = scratch != nullptr ? scratch : &throwaway.emplace();
  const SeedAggregates& agg = *aggregates_;
  // Hierarchical descent like RangeQueryViaSeedScan (which is exact and
  // visits every candidate object page exactly once, so it tallies the same
  // count as the crawl). The difference: a child fully covered by the query
  // contributes its stored subtree count with zero reads below it, and a
  // fully covered record skips its object page — only subtrees straddling
  // the query boundary are gated exactly.
  std::vector<Frame> stack = {{seed_root_, root_is_leaf_}};
  while (!stack.empty()) {
    s->CheckControl();  // cancellation point, once per tree-node pop
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.is_leaf) {
      SeedLeafView leaf(pool->Read(frame.page));
      for (uint16_t slot = 0; slot < leaf.count(); ++slot) {
        MetadataRecordView record = leaf.RecordAt(slot);
        const Aabb page_mbr = record.page_mbr();
        if (!page_mbr.Intersects(query)) continue;
        if (query.Contains(page_mbr)) {
          // Covered record: every element in the object page matches
          // (aggregated builds have no empty element boxes), so the stored
          // count stands in for reading the page.
          if (const AggEntry* e = agg.Find(frame.page, slot)) {
            *acc += e->elements;
            continue;
          }
        }
        s->CheckControl();  // each boundary record reads one object page
        const char* page = pool->Read(record.object_page());
        NodeView elements(page);
        const uint16_t n = elements.count();
        if (hits.size() < n) hits.resize(n);
        IntersectsBatch(page + kNodeHeaderSize, sizeof(RTreeEntry), n, query,
                        hits.data());
        for (uint16_t i = 0; i < n; ++i) *acc += hits[i];
      }
      continue;
    }
    const InternalNodeGate gated(pool->Read(frame.page), query, s,
                                 /*want_covered=*/true);
    const bool children_are_leaves = gated.level() == 1;
    for (uint16_t i = 0; i < gated.count(); ++i) {
      if (!gated.Hit(i)) continue;
      if (gated.Covered(i)) {
        if (const AggEntry* e = agg.Find(frame.page, i)) {
          *acc += e->elements;  // whole subtree inside the query: O(1)
          continue;
        }
      }
      stack.push_back(Frame{gated.ChildAt(i), children_are_leaves});
    }
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

  // Initial radius guess: the partition holding `center` (or the nearest
  // record's page MBR). Probe with SeedWhere over a tiny gate; fall back to
  // a coarse default when the point lies outside all page MBRs.
  double radius = 0.0;
  {
    const Aabb probe = Aabb::FromPoint(center);
    std::optional<RecordRef> seed = SeedWhere(
        pool, probe,
        [&center](const Aabb& box) { return box.Contains(center); }, scratch);
    if (seed.has_value()) {
      SeedLeafView leaf(pool->Read(seed->page));
      const Aabb page_mbr = leaf.RecordAt(seed->slot).page_mbr();
      radius = 0.5 * page_mbr.Extents().Norm() + 1e-12;
    }
  }

  // Sphere-crawl with doubling radius until at least k elements lie within
  // the ball. The accept predicate records each accepted element's distance
  // in the same order the PredicateScan crawl records its id, so pairing by
  // position is exact. Once k elements are inside radius r, the true k-th nearest is at
  // distance <= r, hence all true top-k were inside the ball: ranking the
  // candidates is exact.
  for (int attempt = 0; attempt < 64; ++attempt) {
    if (radius <= 0.0) radius = 1.0;
    const double radius2 = radius * radius;
    const Aabb gate =
        Aabb::FromCenterHalfExtents(center, Vec3(radius, radius, radius));
    std::vector<double> distances;
    std::vector<uint64_t> ids;
    const auto accept = [&center, radius2, &distances](const Aabb& box) {
      const double d2 = box.DistanceSquaredTo(center);
      if (d2 > radius2) return false;
      distances.push_back(d2);
      return true;
    };
    std::optional<RecordRef> start = SeedWhere(pool, gate, accept, scratch);
    distances.clear();  // seed probes also ran the predicate
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
  const auto accept = [&center, radius](const Aabb& box) {
    return box.IntersectsSphere(center, radius);
  };
  std::optional<RecordRef> start = SeedWhere(pool, gate, accept, scratch);
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
  if (empty() || query.IsEmpty()) return;
  struct Frame {
    PageId page;
    bool is_leaf;
  };
  std::vector<uint8_t> hits;  // reused across object pages
  // Caller scratch (control-aware, allocation-free across queries) or a
  // throwaway for the internal-node gate buffers.
  std::optional<CrawlScratch> throwaway;
  CrawlScratch* s = scratch != nullptr ? scratch : &throwaway.emplace();
  std::vector<Frame> stack = {{seed_root_, root_is_leaf_}};
  while (!stack.empty()) {
    s->CheckControl();  // cancellation point, once per tree-node pop
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.is_leaf) {
      SeedLeafView leaf(pool->Read(frame.page));
      for (uint16_t slot = 0; slot < leaf.count(); ++slot) {
        MetadataRecordView record = leaf.RecordAt(slot);
        const Aabb page_mbr = record.page_mbr();
        if (!page_mbr.Intersects(query)) continue;
        s->CheckControl();  // each candidate record reads one object page
        const char* page = pool->Read(record.object_page());
        NodeView elements(page);
        const uint16_t n = elements.count();
        if (aggregates_ != nullptr && query.Contains(page_mbr)) {
          // Fully covered record: every element box sits inside the page MBR
          // and thus inside the query, so skip the per-entry gates and copy
          // the whole page's ids. Licensed by has_aggregates(): an aggregated
          // build certified all element boxes non-empty and finite, which is
          // exactly what the gated path's hit test would re-check. The page
          // read itself stays (same bytes, same I/O as the gated path).
          const size_t need = out->size() + n;
          if (out->capacity() < need) {
            out->reserve(std::max(need, out->capacity() * 2));
          }
          for (uint16_t i = 0; i < n; ++i) out->push_back(elements.IdAt(i));
          continue;
        }
        if (hits.size() < n) hits.resize(n);
        IntersectsBatch(page + kNodeHeaderSize, sizeof(RTreeEntry), n, query,
                        hits.data());
        // Amortized reservation keeps vector growth out of the measurement
        // for this ablation baseline. Every object page belongs to exactly
        // one metadata record and every leaf is visited once, so the output
        // needs no de-duplication afterwards.
        size_t matched = 0;
        for (uint16_t i = 0; i < n; ++i) matched += hits[i];
        const size_t need = out->size() + matched;
        if (out->capacity() < need) {
          out->reserve(std::max(need, out->capacity() * 2));
        }
        for (uint16_t i = 0; i < n; ++i) {
          if (hits[i]) out->push_back(elements.IdAt(i));
        }
      }
      continue;
    }
    const InternalNodeGate gated(pool->Read(frame.page), query, s);
    const bool children_are_leaves = gated.level() == 1;
    for (uint16_t i = 0; i < gated.count(); ++i) {
      if (gated.Hit(i)) {
        stack.push_back(Frame{gated.ChildAt(i), children_are_leaves});
      }
    }
  }
}

std::vector<RecordRef> FlatIndex::FindAllCandidateRecords(
    const Aabb& query) const {
  std::vector<RecordRef> result;
  if (empty() || query.IsEmpty()) return result;

  struct Frame {
    PageId page;
    bool is_leaf;
  };
  CrawlScratch scratch;  // buffers for the internal-node gates
  std::vector<Frame> stack = {{seed_root_, root_is_leaf_}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.is_leaf) {
      SeedLeafView leaf(file_->Data(frame.page));
      for (uint16_t slot = 0; slot < leaf.count(); ++slot) {
        if (leaf.RecordAt(slot).page_mbr().Intersects(query)) {
          result.push_back(RecordRef{frame.page, slot});
        }
      }
      continue;
    }
    const InternalNodeGate gated(file_->Data(frame.page), query, &scratch);
    const bool children_are_leaves = gated.level() == 1;
    for (uint16_t i = 0; i < gated.count(); ++i) {
      if (gated.Hit(i)) {
        stack.push_back(Frame{gated.ChildAt(i), children_are_leaves});
      }
    }
  }
  return result;
}

}  // namespace flat

// The aggregate-augmented seed hierarchy (rtree/aggregates.h): stored
// subtree counts must equal brute-force subtree cardinality on every build
// configuration, pruned queries must be bit-identical to the exact paths,
// the sidecar must round-trip deterministically and reject hostile bytes,
// and the sharded covered-shard shortcut must agree with the oracle across
// shard/thread counts, overlay churn, compaction and disk round-trips.
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/flat_index.h"
#include "core/metadata.h"
#include "data/mesh_generator.h"
#include "data/neuron_generator.h"
#include "data/uniform_generator.h"
#include "engine/query_engine.h"
#include "geometry/rng.h"
#include "rtree/aggregates.h"
#include "rtree/node.h"
#include "shard/sharded_flat_store.h"
#include "storage/buffer_pool.h"
#include "storage/page_cache.h"
#include "storage/persistence.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::BruteForce;
using testing::RandomEntries;
using testing::RandomQueries;
using testing::Sorted;

// ---------------------------------------------------------------------------
// Stored counts == brute-force subtree cardinality, on every data set.
// ---------------------------------------------------------------------------

// Recomputes one subtree's totals by exhaustive page traversal — the oracle
// the sidecar entries are checked against — while asserting every slot's
// stored entry along the way. (Out-param because gtest ASSERTs require a
// void-returning function.)
void SubtreeOracle(const PageFile& file, const SeedAggregates& agg,
                   PageId page, bool is_leaf, AggEntry* out) {
  AggEntry total{0, 1};  // this page
  if (is_leaf) {
    SeedLeafView leaf(file.Data(page), file.page_size(), page);
    for (uint16_t slot = 0; slot < leaf.count(); ++slot) {
      const NodeView elements(
          file.Data(leaf.RecordAt(slot).object_page()));
      const AggEntry* stored = agg.Find(page, slot);
      ASSERT_NE(stored, nullptr) << "page " << page << " slot " << slot;
      EXPECT_EQ(stored->elements, elements.count());
      EXPECT_EQ(stored->pages, 1u);  // the object page
      total.elements += elements.count();
      total.pages += 1;
    }
    *out = total;
    return;
  }
  const NodeView node(file.Data(page));
  const bool children_are_leaves = node.level() == 1;
  for (uint16_t i = 0; i < node.count(); ++i) {
    const auto child = static_cast<PageId>(node.IdAt(i));
    AggEntry want{0, 0};
    ASSERT_NO_FATAL_FAILURE(
        SubtreeOracle(file, agg, child, children_are_leaves, &want));
    const AggEntry* stored = agg.Find(page, i);
    ASSERT_NE(stored, nullptr) << "page " << page << " slot " << i;
    EXPECT_EQ(stored->elements, want.elements)
        << "page " << page << " slot " << i;
    EXPECT_EQ(stored->pages, want.pages) << "page " << page << " slot " << i;
    total.elements += want.elements;
    total.pages += want.pages;
  }
  *out = total;
}

using CardinalityParam = std::tuple<int, uint32_t>;  // dataset, page size

// 6000 elements of neuron (0), mesh (1) or uniform (2) data.
Dataset DatasetOfKind(int kind) {
  switch (kind) {
    case 0: {
      NeuronParams params;
      params.total_elements = 6000;
      return GenerateNeurons(params);
    }
    case 1: {
      // Enough triangles for two 4 KiB seed leaves; the tile rule test
      // also needs each record's tile below the count plan threshold at
      // 512 B, which 9000 triangles break.
      MeshParams params;
      params.target_triangles = 8000;
      return GenerateMesh(params);
    }
    default: {
      UniformBoxParams params;
      params.count = 6000;
      return GenerateUniformBoxes(params);
    }
  }
}

class AggregateCardinalityTest
    : public ::testing::TestWithParam<CardinalityParam> {};

TEST_P(AggregateCardinalityTest, StoredCountsMatchBruteForce) {
  const auto [dataset_kind, page_size] = GetParam();
  const Dataset dataset = DatasetOfKind(dataset_kind);

  PageFile file(page_size);
  FlatIndex::BuildOptions options;
  options.aggregate_counts = true;
  std::vector<RTreeEntry> elements = dataset.elements;
  FlatIndex index = FlatIndex::Build(&file, elements, options);

  ASSERT_TRUE(index.has_aggregates());
  const SeedAggregates& agg = *index.aggregates();
  EXPECT_EQ(agg.total_elements(), dataset.elements.size());

  const auto descriptor = index.descriptor();
  AggEntry root{0, 0};
  ASSERT_NO_FATAL_FAILURE(SubtreeOracle(file, agg, descriptor.seed_root,
                                        descriptor.root_is_leaf, &root));
  EXPECT_EQ(root.elements, dataset.elements.size());
}

std::string CardinalityParamName(
    const ::testing::TestParamInfo<CardinalityParam>& info) {
  const char* name = std::get<0>(info.param) == 0   ? "Neuron"
                     : std::get<0>(info.param) == 1 ? "Mesh"
                                                    : "Uniform";
  // "Exact" names the seed-page format, the only one there is.
  return std::string(name) + std::to_string(std::get<1>(info.param)) +
         "Exact";
}

INSTANTIATE_TEST_SUITE_P(
    DatasetPageFormat, AggregateCardinalityTest,
    ::testing::Combine(::testing::Values(0, 1, 2),  // neuron/mesh/unif
                       ::testing::Values<uint32_t>(512, 4096)),
    CardinalityParamName);

// ---------------------------------------------------------------------------
// The tile certificate: a count whose box contains a record's stored tile
// takes the record's stored count and never reads its object page.
// ---------------------------------------------------------------------------

// A PageCache that remembers every page it served.
class RecordingCache : public PageCache {
 public:
  explicit RecordingCache(const PageStore* file) : file_(file) {}

  const char* Read(PageId id) override {
    read_.insert(id);
    return file_->Data(id);
  }

  bool WasRead(PageId id) const { return read_.count(id) != 0; }

 private:
  const PageStore* file_;
  std::set<PageId> read_;
};

class AggregateTileRuleTest
    : public ::testing::TestWithParam<CardinalityParam> {};

// A record whose page MBR pokes out of its stored tile: only the tile rule
// certifies it. Every element's center lies in its tile, so every element
// on the page meets a box containing the tile, and the count must equal
// brute force without reading that page. Two boxes per record cover both
// plans. The tile itself is below the plan threshold and crawls from the
// directory. The tile grown outward on every face but one the page pokes
// out of, by ten times the data extents, is above any threshold (four
// times the data bounds' volume at most) and descends: the walk must read
// the seed root, and it reaches the record through its leaf, whose box
// pokes out of the grown box too.
TEST_P(AggregateTileRuleTest, TileCoveredRecordsCountWithoutObjectReads) {
  const auto [dataset_kind, page_size] = GetParam();
  const Dataset dataset = DatasetOfKind(dataset_kind);
  PageFile file(page_size);
  FlatIndex::BuildOptions options;
  options.aggregate_counts = true;
  std::vector<RTreeEntry> elements = dataset.elements;
  const FlatIndex index = FlatIndex::Build(&file, elements, options);
  ASSERT_TRUE(index.has_aggregates());
  const PageId seed_root = index.descriptor().seed_root;
  const PageId directory_root = index.descriptor().directory_root;
  ASSERT_FALSE(index.descriptor().root_is_leaf);
  Aabb bounds;
  for (const RTreeEntry& e : dataset.elements) bounds.ExpandToInclude(e.box);
  const Vec3 far = bounds.Extents() * 10.0;

  size_t checked = 0;
  for (PageId page = 0; page < file.page_count(); ++page) {
    if (file.category(page) != PageCategory::kSeedLeaf) continue;
    const SeedLeafView leaf(file.Data(page), file.page_size(), page);
    for (uint16_t slot = 0; slot < leaf.count(); ++slot) {
      const MetadataRecordView record = leaf.RecordAt(slot);
      const Aabb tile = record.tile();
      const Aabb page_mbr = record.page_mbr();
      if (tile.Contains(page_mbr)) continue;
      Vec3 lo = tile.lo() - far;
      Vec3 hi = tile.hi() + far;
      for (int axis = 0; axis < 3; ++axis) {
        if (page_mbr.lo()[axis] < tile.lo()[axis]) {
          lo.At(axis) = tile.lo()[axis];
          break;
        }
        if (page_mbr.hi()[axis] > tile.hi()[axis]) {
          hi.At(axis) = tile.hi()[axis];
          break;
        }
      }
      for (const bool descends : {false, true}) {
        SCOPED_TRACE(descends ? "grown" : "tile");
        const Aabb box = descends ? Aabb(lo, hi) : tile;
        RecordingCache cache(&file);
        EXPECT_EQ(index.RangeCount(&cache, box),
                  BruteForce(dataset.elements, box).size())
            << "page " << page << " slot " << slot;
        EXPECT_FALSE(cache.WasRead(record.object_page()))
            << "page " << page << " slot " << slot;
        if (!descends) {
          EXPECT_TRUE(cache.WasRead(directory_root));
          EXPECT_FALSE(cache.WasRead(seed_root));
        } else {
          EXPECT_TRUE(cache.WasRead(seed_root));
          EXPECT_FALSE(cache.WasRead(directory_root));
          EXPECT_TRUE(cache.WasRead(page));
        }
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DatasetPageFormat, AggregateTileRuleTest,
    ::testing::Combine(::testing::Values(0, 1, 2),  // neuron/mesh/unif
                       ::testing::Values<uint32_t>(512, 4096)),
    CardinalityParamName);

// ---------------------------------------------------------------------------
// The option is sidecar-only: PageFile bytes never change.
// ---------------------------------------------------------------------------

TEST(AggregateBuildTest, PageFileBytesIdenticalWithAndWithoutAggregates) {
  const auto entries = RandomEntries(5000, 901);
  PageFile plain_file, agg_file;
  FlatIndex::BuildOptions with;
  with.aggregate_counts = true;
  FlatIndex::Build(&plain_file, entries);
  std::vector<RTreeEntry> elements = entries;
  FlatIndex index = FlatIndex::Build(&agg_file, elements, with);
  ASSERT_TRUE(index.has_aggregates());

  std::ostringstream plain_bytes, agg_bytes;
  SavePageFile(plain_file, plain_bytes);
  SavePageFile(agg_file, agg_bytes);
  EXPECT_EQ(plain_bytes.str(), agg_bytes.str());
}

TEST(AggregateBuildTest, SidecarIsByteIdenticalAcrossThreadCounts) {
  const auto entries = RandomEntries(8000, 902);
  std::string serial_bytes;
  for (const size_t threads : {1u, 4u}) {
    PageFile file;
    FlatIndex::BuildOptions options;
    options.num_threads = threads;
    options.aggregate_counts = true;
    std::vector<RTreeEntry> elements = entries;
    FlatIndex index = FlatIndex::Build(&file, elements, options);
    ASSERT_TRUE(index.has_aggregates());
    std::ostringstream out;
    SaveSeedAggregates(*index.aggregates(), out);
    if (threads == 1) {
      serial_bytes = out.str();
      EXPECT_FALSE(serial_bytes.empty());
    } else {
      EXPECT_EQ(out.str(), serial_bytes);
    }
  }
}

// A single empty or non-finite element box disables aggregation for the
// whole build: such elements are invisible to the intersection gates, so
// stored counts would otherwise overcount what queries can return.
TEST(AggregateBuildTest, DegenerateElementBoxesDisableAggregates) {
  auto entries = RandomEntries(500, 903);
  entries[250].box = Aabb();  // empty: lo > hi
  PageFile file;
  FlatIndex::BuildOptions options;
  options.aggregate_counts = true;
  FlatIndex index = FlatIndex::Build(&file, entries, options);
  EXPECT_FALSE(index.has_aggregates());
}

// ---------------------------------------------------------------------------
// Sidecar persistence: deterministic round-trip, hostile-input rejection.
// ---------------------------------------------------------------------------

TEST(AggregateSidecarTest, RoundTripIsByteIdentical) {
  auto entries = RandomEntries(4000, 904);
  PageFile file;
  FlatIndex::BuildOptions options;
  options.aggregate_counts = true;
  FlatIndex index = FlatIndex::Build(&file, entries, options);
  ASSERT_TRUE(index.has_aggregates());

  std::ostringstream first;
  SaveSeedAggregates(*index.aggregates(), first);
  std::istringstream in(first.str());
  const SeedAggregates loaded = LoadSeedAggregates(in);
  EXPECT_EQ(loaded.total_elements(), index.aggregates()->total_elements());
  EXPECT_EQ(loaded.page_count(), index.aggregates()->page_count());
  std::ostringstream second;
  SaveSeedAggregates(loaded, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(AggregateSidecarTest, HostileInputsAreRejected) {
  auto entries = RandomEntries(1000, 905);
  PageFile file;
  FlatIndex::BuildOptions options;
  options.aggregate_counts = true;
  FlatIndex index = FlatIndex::Build(&file, entries, options);
  std::ostringstream out;
  SaveSeedAggregates(*index.aggregates(), out);
  const std::string good = out.str();

  {
    std::istringstream bad_magic("NOTANAGG" + good.substr(8));
    EXPECT_THROW(LoadSeedAggregates(bad_magic), std::runtime_error);
  }
  {
    // Truncation anywhere past the magic must throw, never return garbage.
    for (const size_t cut : {9ul, 16ul, 24ul, good.size() - 1}) {
      std::istringstream truncated(good.substr(0, cut));
      EXPECT_THROW(LoadSeedAggregates(truncated), std::runtime_error)
          << "cut at " << cut;
    }
  }
  {
    // A group count far beyond the remaining bytes must be rejected before
    // any allocation sized from it.
    std::string huge = good;
    const uint64_t absurd = ~0ull;
    std::memcpy(&huge[16], &absurd, sizeof(absurd));
    std::istringstream in(huge);
    EXPECT_THROW(LoadSeedAggregates(in), std::runtime_error);
  }
}

// ---------------------------------------------------------------------------
// Pruned vs exact bit-identity at the FlatIndex level.
// ---------------------------------------------------------------------------

class AggregatePruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    entries_ = RandomEntries(8000, 906);
    FlatIndex::BuildOptions with;
    with.aggregate_counts = true;
    plain_ = FlatIndex::Build(&plain_file_, entries_);
    std::vector<RTreeEntry> elements = entries_;
    pruned_ = FlatIndex::Build(&pruned_file_, elements, with);
    ASSERT_TRUE(pruned_.has_aggregates());
  }

  std::vector<Aabb> MixedQueries() {
    // Random mid-size boxes plus large boxes that fully cover many
    // subtrees — the regime the pruning exists for — plus the universe.
    std::vector<Aabb> queries = RandomQueries(12, 907);
    queries.push_back(Aabb(Vec3(10, 10, 10), Vec3(90, 90, 90)));
    queries.push_back(Aabb(Vec3(-1, -1, -1), Vec3(101, 101, 101)));
    // Entry boxes reach ~103 (lo in [0,100], side up to 3), so only this one
    // actually covers every partition MBR.
    queries.push_back(Aabb(Vec3(-5, -5, -5), Vec3(110, 110, 110)));
    queries.push_back(Aabb());  // empty: matches nothing
    return queries;
  }

  std::vector<RTreeEntry> entries_;
  PageFile plain_file_, pruned_file_;
  FlatIndex plain_, pruned_;
};

TEST_F(AggregatePruningTest, RangeCountMatchesExactPathAndOracle) {
  for (const Aabb& q : MixedQueries()) {
    IoStats plain_io, pruned_io;
    BufferPool plain_pool(&plain_file_, &plain_io);
    BufferPool pruned_pool(&pruned_file_, &pruned_io);
    const size_t want = plain_.RangeCount(&plain_pool, q);
    const size_t got = pruned_.RangeCount(&pruned_pool, q);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got, BruteForce(entries_, q).size());
  }
}

TEST_F(AggregatePruningTest, LargeCoveredBoxCountsWithFarFewerReads) {
  // Covers every partition: the whole answer rolls up from stored counts
  // high in the seed tree, so the pruned path touches O(height) pages while
  // the exact path reads every object page. 3x is deliberately loose — the
  // real ratio on this workload is the full page count.
  const Aabb big(Vec3(-5, -5, -5), Vec3(110, 110, 110));
  IoStats plain_io, pruned_io;
  BufferPool plain_pool(&plain_file_, &plain_io);
  BufferPool pruned_pool(&pruned_file_, &pruned_io);
  ASSERT_EQ(pruned_.RangeCount(&pruned_pool, big),
            plain_.RangeCount(&plain_pool, big));
  EXPECT_LT(pruned_io.TotalReads() * 3, plain_io.TotalReads());

  // A box straddling partitions still prunes its interior: strictly fewer
  // reads, never more, and boundary partitions are gated exactly.
  const Aabb mid(Vec3(5, 5, 5), Vec3(95, 95, 95));
  IoStats plain_mid_io, pruned_mid_io;
  BufferPool plain_mid_pool(&plain_file_, &plain_mid_io);
  BufferPool pruned_mid_pool(&pruned_file_, &pruned_mid_io);
  ASSERT_EQ(pruned_.RangeCount(&pruned_mid_pool, mid),
            plain_.RangeCount(&plain_mid_pool, mid));
  EXPECT_LT(pruned_mid_io.TotalReads(), plain_mid_io.TotalReads());
}

TEST_F(AggregatePruningTest, SeedScanResultsAndObjectReadsAreIdentical) {
  for (const Aabb& q : MixedQueries()) {
    IoStats plain_io, pruned_io;
    BufferPool plain_pool(&plain_file_, &plain_io);
    BufferPool pruned_pool(&pruned_file_, &pruned_io);
    std::vector<uint64_t> want, got;
    plain_.RangeQueryViaSeedScan(&plain_pool, q, &want);
    pruned_.RangeQueryViaSeedScan(&pruned_pool, q, &got);
    // Bit-identical including traversal order, and the covered-leaf
    // batch-copy still reads every candidate object page (same I/O).
    EXPECT_EQ(got, want);
    EXPECT_EQ(pruned_io.ReadsIn(PageCategory::kObject),
              plain_io.ReadsIn(PageCategory::kObject));
  }
}

TEST_F(AggregatePruningTest, CrawlRangeQueryIsUntouchedByAggregates) {
  for (const Aabb& q : MixedQueries()) {
    IoStats plain_io, pruned_io;
    BufferPool plain_pool(&plain_file_, &plain_io);
    BufferPool pruned_pool(&pruned_file_, &pruned_io);
    std::vector<uint64_t> want, got;
    plain_.RangeQuery(&plain_pool, q, &want);
    pruned_.RangeQuery(&pruned_pool, q, &got);
    EXPECT_EQ(got, want);
    for (int c = 0; c < kNumPageCategories; ++c) {
      EXPECT_EQ(pruned_io.ReadsIn(static_cast<PageCategory>(c)),
                plain_io.ReadsIn(static_cast<PageCategory>(c)));
    }
  }
}

// ---------------------------------------------------------------------------
// Partial counts under a tripped QueryControl.
// ---------------------------------------------------------------------------

TEST(AggregatePartialCountTest, BudgetStopKeepsAccumulatedTally) {
  const auto entries = RandomEntries(8000, 908);
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  const Aabb universe(Vec3(-1, -1, -1), Vec3(101, 101, 101));

  QueryEngine engine(&index, QueryEngine::Options{.threads = 1});
  const std::vector<QueryResult> full =
      engine.Run({Query::RangeCount(universe)});
  ASSERT_EQ(full[0].status, QueryStatus::kOk);
  ASSERT_EQ(full[0].count, entries.size());
  const uint64_t full_reads = full[0].io.TotalReads();

  QueryControl capped;
  capped.max_page_reads = full_reads / 2;
  Query query = Query::RangeCount(universe);
  query.control = &capped;
  const std::vector<QueryResult> partial = engine.Run({query});
  EXPECT_EQ(partial[0].status, QueryStatus::kBudgetExceeded);
  // The partial tally survives: a strict, non-zero lower bound on the
  // exact count (the old behavior reported 0).
  EXPECT_GT(partial[0].count, 0u);
  EXPECT_LT(partial[0].count, full[0].count);
  EXPECT_TRUE(partial[0].ids.empty());
}

// ---------------------------------------------------------------------------
// The count plan: small boxes crawl, large ones descend.
// ---------------------------------------------------------------------------

// A cube of `volume` centered at `center`.
Aabb CubeOf(const Vec3& center, double volume) {
  const double half = std::cbrt(volume) / 2;
  return Aabb::FromCenterHalfExtents(center, Vec3(half, half, half));
}

// An aggregated count crawls when its box's volume is below four seed
// leaves' share of the data bounds (the root page's box), and descends
// otherwise. The rule's inputs are fixed when the aggregates are attached,
// so a built store and the same store saved and reloaded must both take
// the crawl on small boxes: their seed-internal reads are then the plain
// crawl's (the directory lookup), and the count reads no more than the
// plain store's. A small count under a read budget stops mid-crawl with a
// partial tally, and counts on both sides of the rule equal brute force.
TEST(AggregateCountPlanTest, SmallCountsCrawlOnBuiltAndReloadedStores) {
  namespace fs = std::filesystem;
  const auto entries = RandomEntries(20000, 918);
  ShardedFlatStore::Options options;
  options.num_shards = 1;
  options.page_size = 512;
  ShardedFlatStore plain = ShardedFlatStore::Build(entries, options);
  options.aggregate_counts = true;
  const ShardedFlatStore built = ShardedFlatStore::Build(entries, options);
  ASSERT_NE(built.shard_index(0).descriptor().directory_root,
            kInvalidPageId);

  // The threshold from the shard file, which holds this one index.
  const PageStore& file = built.shard_file(0);
  const NodeView root(file.Data(built.shard_index(0).descriptor().seed_root));
  const double threshold = 4.0 * root.Bounds().Volume() /
                           static_cast<double>(
                               file.PageCountIn(PageCategory::kSeedLeaf));

  Rng rng(919);
  const Aabb centers(Vec3(10, 10, 10), Vec3(90, 90, 90));
  std::vector<Aabb> small, large;
  for (int i = 0; i < 8; ++i) {
    small.push_back(CubeOf(rng.PointIn(centers), 0.5 * threshold));
    large.push_back(CubeOf(rng.PointIn(centers), 2.0 * threshold));
  }
  const Aabb budgeted = CubeOf(Vec3(50, 50, 50), 0.25 * threshold);
  const uint64_t exact = BruteForce(entries, budgeted).size();
  ASSERT_GT(exact, 10u);

  const fs::path dir = fs::temp_directory_path() / "flat_aggregate_plan_test";
  fs::remove_all(dir);
  built.Save(dir.string());
  const ShardedFlatStore loaded =
      ShardedFlatStore::Load(dir.string(), /*num_threads=*/1);
  ASSERT_TRUE(loaded.shard_index(0).has_aggregates());

  for (const ShardedFlatStore* store : {&built, &loaded}) {
    SCOPED_TRACE(store == &built ? "built" : "reloaded");
    uint64_t large_internal = 0;
    uint64_t plain_large_internal = 0;
    for (const bool is_small : {true, false}) {
      for (const Aabb& box : is_small ? small : large) {
        IoStats io, plain_io;
        EXPECT_EQ(store->RangeCount(box, &io),
                  BruteForce(entries, box).size());
        EXPECT_EQ(plain.RangeCount(box, &plain_io),
                  BruteForce(entries, box).size());
        if (is_small) {
          EXPECT_EQ(io.ReadsIn(PageCategory::kSeedInternal),
                    plain_io.ReadsIn(PageCategory::kSeedInternal));
          EXPECT_LE(io.TotalReads(), plain_io.TotalReads());
        } else {
          large_internal += io.ReadsIn(PageCategory::kSeedInternal);
          plain_large_internal +=
              plain_io.ReadsIn(PageCategory::kSeedInternal);
        }
      }
    }
    // Large boxes walk the seed tree's internal pages instead.
    EXPECT_GT(large_internal, plain_large_internal);

    IoStats full_io;
    ASSERT_EQ(store->RangeCount(budgeted, &full_io), exact);
    QueryControl capped;
    capped.max_page_reads = full_io.TotalReads() / 2;
    Query query = Query::RangeCount(budgeted);
    query.control = &capped;
    const std::vector<QueryResult> partial = store->RunBatch({query});
    ASSERT_EQ(partial.size(), 1u);
    EXPECT_EQ(partial[0].status, QueryStatus::kBudgetExceeded);
    EXPECT_GT(partial[0].count, 0u);
    EXPECT_LT(partial[0].count, exact);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Sharded store: covered-shard shortcut, overlay churn, persistence.
// ---------------------------------------------------------------------------

TEST(AggregateShardedTest, CoveredShardShortcutSkipsAllReads) {
  const auto entries = RandomEntries(10000, 909);
  ShardedFlatStore::Options options;
  options.num_shards = 5;
  options.aggregate_counts = true;
  ShardedFlatStore store = ShardedFlatStore::Build(entries, options);

  // The universe covers every shard: the count comes straight off the
  // catalog — zero page reads — and still equals the oracle.
  const Aabb universe(Vec3(-5, -5, -5), Vec3(110, 110, 110));
  IoStats io;
  EXPECT_EQ(store.RangeCount(universe, &io), entries.size());
  EXPECT_EQ(io.TotalReads(), 0u);

  // A box covering no shard entirely still answers exactly.
  for (const Aabb& q : RandomQueries(8, 910)) {
    EXPECT_EQ(store.RangeCount(q), BruteForce(entries, q).size());
  }
}

TEST(AggregateShardedTest, OverlayChurnDisablesShortcutButStaysExact) {
  const auto entries = RandomEntries(6000, 911);
  for (const size_t shards : {1u, 5u}) {
    for (const size_t threads : {1u, 4u}) {
      testing::ScheduleConfig config;
      config.initial = entries;
      config.options.num_shards = shards;
      config.options.num_threads = threads;
      config.options.aggregate_counts = true;
      config.seed = 912 + shards * 10 + threads;
      EXPECT_TRUE(testing::ReplaySchedule(
          config, testing::MakeSchedule(200, config.seed, 8000)));
    }
  }
}

TEST(AggregateShardedTest, CountsMatchUnprunedStoreOverOverlayLifecycle) {
  const auto entries = RandomEntries(6000, 913);
  ShardedFlatStore::Options pruned_options;
  pruned_options.num_shards = 4;
  pruned_options.aggregate_counts = true;
  ShardedFlatStore pruned = ShardedFlatStore::Build(entries, pruned_options);
  ShardedFlatStore::Options plain_options;
  plain_options.num_shards = 4;
  ShardedFlatStore plain = ShardedFlatStore::Build(entries, plain_options);

  const Aabb universe(Vec3(-5, -5, -5), Vec3(110, 110, 110));
  auto check = [&](const char* phase) {
    SCOPED_TRACE(phase);
    EXPECT_EQ(pruned.RangeCount(universe), plain.RangeCount(universe));
    for (const Aabb& q : RandomQueries(6, 914)) {
      EXPECT_EQ(pruned.RangeCount(q), plain.RangeCount(q));
      EXPECT_EQ(pruned.RangeQuery(q), plain.RangeQuery(q));
    }
  };
  check("fresh build");

  for (auto* store : {&pruned, &plain}) {
    store->Insert(RTreeEntry{
        Aabb(Vec3(50, 50, 50), Vec3(51, 51, 51)), 999999});
    store->Erase(entries[100].id);
    store->Erase(entries[2000].id);
  }
  check("overlay window open");

  pruned.Compact();
  plain.Compact();
  check("after compaction");
  // The compacted rebuild re-enables the shortcut (aggregates rebuilt).
  IoStats io;
  EXPECT_EQ(pruned.RangeCount(universe, &io),
            plain.RangeCount(universe));
  EXPECT_EQ(io.TotalReads(), 0u);
}

TEST(AggregateShardedTest, SaveLoadRoundTripsSidecars) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "flat_aggregate_sharded_test";
  fs::remove_all(dir);

  const auto entries = RandomEntries(6000, 915);
  ShardedFlatStore::Options options;
  options.num_shards = 3;
  options.aggregate_counts = true;
  ShardedFlatStore store = ShardedFlatStore::Build(entries, options);
  store.Save(dir.string());
  ASSERT_TRUE(fs::exists(dir / "shard-0000.pgf.agg"));

  {  // scoped: the files it maps are rewritten below
    ShardedFlatStore loaded =
        ShardedFlatStore::Load(dir.string(), /*num_threads=*/1);
    for (size_t s = 0; s < loaded.shard_count(); ++s) {
      EXPECT_TRUE(loaded.shard_index(s).has_aggregates()) << "shard " << s;
    }
    const Aabb universe(Vec3(-5, -5, -5), Vec3(110, 110, 110));
    IoStats io;
    EXPECT_EQ(loaded.RangeCount(universe, &io), entries.size());
    EXPECT_EQ(io.TotalReads(), 0u);  // shortcut alive after reload
    for (const Aabb& q : RandomQueries(6, 916)) {
      EXPECT_EQ(loaded.RangeCount(q), BruteForce(entries, q).size());
      EXPECT_EQ(Sorted(loaded.RangeQuery(q)), BruteForce(entries, q));
    }
  }

  // A corrupt sidecar must be rejected at Load, not believed at query time.
  {
    std::ofstream corrupt(dir / "shard-0000.pgf.agg",
                          std::ios::binary | std::ios::trunc);
    corrupt << "FLATAGG1 but then garbage";
  }
  EXPECT_THROW(ShardedFlatStore::Load(dir.string()), std::runtime_error);

  // Saving a store without aggregates into the same directory removes the
  // stale sidecars: page bytes and counts must never come from different
  // generations.
  ShardedFlatStore::Options plain_options;
  plain_options.num_shards = 3;
  ShardedFlatStore plain = ShardedFlatStore::Build(entries, plain_options);
  plain.Save(dir.string());
  EXPECT_FALSE(fs::exists(dir / "shard-0000.pgf.agg"));
  ShardedFlatStore reloaded = ShardedFlatStore::Load(dir.string());
  for (size_t s = 0; s < reloaded.shard_count(); ++s) {
    EXPECT_FALSE(reloaded.shard_index(s).has_aggregates());
  }
  fs::remove_all(dir);
}

// A reloaded store must rebuild its sidecars when it compacts, exactly as
// the store that saved them would: Load → Insert → Compact → Save keeps one
// sidecar per shard, and the universe count still reads no page.
TEST(AggregateShardedTest, CompactAfterLoadKeepsSidecars) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "flat_aggregate_compact_after_load_test";
  fs::remove_all(dir);

  const auto entries = RandomEntries(6000, 917);
  ShardedFlatStore::Options options;
  options.num_shards = 3;
  options.aggregate_counts = true;
  ShardedFlatStore::Build(entries, options).Save(dir.string());

  ShardedFlatStore loaded = ShardedFlatStore::Load(dir.string());
  loaded.Insert(
      RTreeEntry{Aabb(Vec3(50, 50, 50), Vec3(51, 51, 51)), 999999});
  loaded.Compact();
  for (size_t s = 0; s < loaded.shard_count(); ++s) {
    EXPECT_TRUE(loaded.shard_index(s).has_aggregates()) << "shard " << s;
  }
  const Aabb universe(Vec3(-5, -5, -5), Vec3(110, 110, 110));
  IoStats io;
  EXPECT_EQ(loaded.RangeCount(universe, &io), entries.size() + 1);
  EXPECT_EQ(io.TotalReads(), 0u);

  loaded.Save(dir.string());
  for (const ShardCatalogEntry& shard : loaded.catalog().shards) {
    const fs::path sidecar = dir / (shard.page_file_name + ".agg");
    EXPECT_TRUE(fs::exists(sidecar)) << sidecar;
  }
  ShardedFlatStore reloaded = ShardedFlatStore::Load(dir.string());
  IoStats reloaded_io;
  EXPECT_EQ(reloaded.RangeCount(universe, &reloaded_io), entries.size() + 1);
  EXPECT_EQ(reloaded_io.TotalReads(), 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace flat

// Failure-injection and degenerate-input coverage across the whole stack:
// pathological geometries, adversarial data distributions, and misuse of the
// public API that must fail loudly rather than corrupt results.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "core/flat_index.h"
#include "rtree/bulkload.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::BruteForce;
using testing::Sorted;

// ---------------------------------------------------------------------------
// Degenerate geometry.
// ---------------------------------------------------------------------------

std::vector<RTreeEntry> CollinearPoints(size_t n) {
  // All elements on the x-axis: every y/z sort key ties.
  std::vector<RTreeEntry> entries;
  for (uint64_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) * 0.25;
    entries.push_back(RTreeEntry{Aabb::FromPoint(Vec3(x, 0, 0)), i});
  }
  return entries;
}

TEST(DegenerateGeometryTest, CollinearDataAllIndexes) {
  const auto entries = CollinearPoints(2000);
  const Aabb query(Vec3(100, -1, -1), Vec3(200, 1, 1));
  const auto oracle = BruteForce(entries, query);
  ASSERT_FALSE(oracle.empty());

  for (BulkloadStrategy strategy :
       {BulkloadStrategy::kStr, BulkloadStrategy::kHilbert,
        BulkloadStrategy::kPrTree, BulkloadStrategy::kTgs}) {
    PageFile file;
    RTree tree = Bulkload(&file, entries, strategy);
    IoStats stats;
    BufferPool pool(&file, &stats);
    std::vector<uint64_t> got;
    tree.RangeQuery(&pool, query, &got);
    EXPECT_EQ(Sorted(got), oracle) << BulkloadStrategyName(strategy);
  }
  PageFile file;
  FlatIndex flat = FlatIndex::Build(&file, entries);
  IoStats stats;
  BufferPool pool(&file, &stats);
  std::vector<uint64_t> got;
  flat.RangeQuery(&pool, query, &got);
  EXPECT_EQ(Sorted(got), oracle) << "FLAT";
}

TEST(DegenerateGeometryTest, PlanarDataFlat) {
  // All elements in the z = 5 plane: zero-extent tiles along z.
  Rng rng(401);
  std::vector<RTreeEntry> entries;
  for (uint64_t i = 0; i < 3000; ++i) {
    const Vec3 c(rng.Uniform(0, 100), rng.Uniform(0, 100), 5.0);
    entries.push_back(RTreeEntry{
        Aabb::FromCenterHalfExtents(c, Vec3(0.5, 0.5, 0.0)), i});
  }
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  IoStats stats;
  BufferPool pool(&file, &stats);
  for (const Aabb& q : testing::RandomQueries(30, 402)) {
    std::vector<uint64_t> got;
    index.RangeQuery(&pool, q, &got);
    EXPECT_EQ(Sorted(got), BruteForce(entries, q));
  }
}

TEST(DegenerateGeometryTest, HugeCoordinateMagnitudes) {
  // Coordinates around 1e12 with unit-scale extents: float metadata
  // compression must stay conservative (outward rounding), never dropping
  // results.
  Rng rng(403);
  std::vector<RTreeEntry> entries;
  const Vec3 offset(1e12, -1e12, 5e11);
  for (uint64_t i = 0; i < 2000; ++i) {
    const Vec3 c = offset + Vec3(rng.Uniform(0, 100), rng.Uniform(0, 100),
                                 rng.Uniform(0, 100));
    entries.push_back(
        RTreeEntry{Aabb::FromCenterHalfExtents(c, Vec3(1, 1, 1)), i});
  }
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  IoStats stats;
  BufferPool pool(&file, &stats);
  const Aabb query = Aabb::FromCenterHalfExtents(
      offset + Vec3(50, 50, 50), Vec3(20, 20, 20));
  std::vector<uint64_t> got;
  index.RangeQuery(&pool, query, &got);
  EXPECT_EQ(Sorted(got), BruteForce(entries, query));
}

TEST(DegenerateGeometryTest, MixedScaleElements) {
  // A few giant elements among thousands of tiny ones (the thick-dendrite
  // pathology, exaggerated).
  Rng rng(404);
  std::vector<RTreeEntry> entries;
  uint64_t id = 0;
  for (; id < 3000; ++id) {
    entries.push_back(RTreeEntry{
        Aabb::FromCenterHalfExtents(
            rng.PointIn(Aabb(Vec3(0, 0, 0), Vec3(100, 100, 100))),
            Vec3(0.1, 0.1, 0.1)),
        id});
  }
  for (; id < 3010; ++id) {
    entries.push_back(RTreeEntry{
        Aabb::FromCenterHalfExtents(
            rng.PointIn(Aabb(Vec3(20, 20, 20), Vec3(80, 80, 80))),
            Vec3(30, 30, 30)),
        id});
  }
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  IoStats stats;
  BufferPool pool(&file, &stats);
  for (const Aabb& q : testing::RandomQueries(40, 405)) {
    std::vector<uint64_t> got;
    index.RangeQuery(&pool, q, &got);
    EXPECT_EQ(Sorted(got), BruteForce(entries, q));
  }
}

// ---------------------------------------------------------------------------
// API misuse / hard limits.
// ---------------------------------------------------------------------------

TEST(HardLimitTest, OversizedMetadataRecordThrows) {
  // With a tiny page, a partition with many neighbors cannot serialize; the
  // build must throw rather than write a corrupt leaf. Dense identical
  // boxes maximize the neighbor fan-out.
  std::vector<RTreeEntry> entries;
  Rng rng(406);
  for (uint64_t i = 0; i < 4000; ++i) {
    // Large overlapping boxes => every partition neighbors every other.
    const Vec3 c = rng.PointIn(Aabb(Vec3(0, 0, 0), Vec3(10, 10, 10)));
    entries.push_back(
        RTreeEntry{Aabb::FromCenterHalfExtents(c, Vec3(5, 5, 5)), i});
  }
  PageFile file(512);
  EXPECT_THROW(FlatIndex::Build(&file, entries), std::runtime_error);
}

// An empty box reads no page: not the tile directory's root, on a short
// index or a tall one, and not on the aggregated count's plans either.
TEST(HardLimitTest, EmptyQueriesAreFreeEverywhere) {
  for (const auto& [count, page_size] :
       {std::pair<size_t, uint32_t>{1000, 4096}, {20000, 512}}) {
    SCOPED_TRACE(std::to_string(count) + " elements, " +
                 std::to_string(page_size) + " B");
    const auto entries = testing::RandomEntries(count, 407);
    PageFile flat_file(page_size), rtree_file(page_size);
    FlatIndex::BuildOptions options;
    options.aggregate_counts = true;
    const FlatIndex aggregated = FlatIndex::Build(&flat_file, entries, options);
    ASSERT_TRUE(aggregated.has_aggregates());
    const FlatIndex flat =
        FlatIndex::Attach(&flat_file, aggregated.descriptor());
    RTree rtree = BulkloadStr(&rtree_file, entries);

    IoStats flat_stats, rtree_stats;
    BufferPool flat_pool(&flat_file, &flat_stats);
    BufferPool rtree_pool(&rtree_file, &rtree_stats);
    std::vector<uint64_t> got;
    EXPECT_FALSE(flat.Seed(&flat_pool, Aabb()).has_value());
    flat.RangeQuery(&flat_pool, Aabb(), &got);
    rtree.RangeQuery(&rtree_pool, Aabb(), &got);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(flat.RangeCount(&flat_pool, Aabb()), 0u);
    EXPECT_EQ(aggregated.RangeCount(&flat_pool, Aabb()), 0u);
    EXPECT_EQ(flat_stats.TotalReads(), 0u);
    EXPECT_EQ(rtree_stats.TotalReads(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Adversarial distributions for the dynamic R*-tree.
// ---------------------------------------------------------------------------

TEST(RStarAdversarialTest, SortedInsertionOrder) {
  // Monotone insertion order is the classic R-tree worst case; correctness
  // must hold regardless.
  std::vector<RTreeEntry> entries;
  for (uint64_t i = 0; i < 2000; ++i) {
    const double t = static_cast<double>(i) * 0.05;
    entries.push_back(RTreeEntry{
        Aabb::FromCenterHalfExtents(Vec3(t, t, t), Vec3(0.3, 0.3, 0.3)), i});
  }
  PageFile file(512);
  RStarTree tree(&file);
  for (const auto& e : entries) tree.Insert(e);
  IoStats stats;
  BufferPool pool(&file, &stats);
  for (const Aabb& q : testing::RandomQueries(25, 408)) {
    std::vector<uint64_t> got;
    tree.tree().RangeQuery(&pool, q, &got);
    EXPECT_EQ(Sorted(got), BruteForce(entries, q));
  }
}

TEST(RStarAdversarialTest, AlternatingExtremes) {
  // Ping-pong between two far corners to stress ChooseSubtree and splits.
  std::vector<RTreeEntry> entries;
  Rng rng(409);
  for (uint64_t i = 0; i < 1500; ++i) {
    const Vec3 base = (i % 2 == 0) ? Vec3(0, 0, 0) : Vec3(1000, 1000, 1000);
    const Vec3 c = base + Vec3(rng.Uniform(0, 10), rng.Uniform(0, 10),
                               rng.Uniform(0, 10));
    entries.push_back(
        RTreeEntry{Aabb::FromCenterHalfExtents(c, Vec3(1, 1, 1)), i});
  }
  PageFile file(512);
  RStarTree tree(&file);
  for (const auto& e : entries) tree.Insert(e);
  auto stats = tree.tree().ComputeStats();
  EXPECT_EQ(stats.leaf_entries, entries.size());
}

}  // namespace
}  // namespace flat

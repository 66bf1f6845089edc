#include "core/flat_index.h"

#include <gtest/gtest.h>

#include "rtree/node.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::BruteForce;
using testing::RandomEntries;
using testing::RandomQueries;
using testing::Sorted;

TEST(FlatIndexTest, EmptyDataset) {
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, {});
  EXPECT_TRUE(index.empty());
  IoStats stats;
  BufferPool pool(&file, &stats);
  std::vector<uint64_t> got;
  index.RangeQuery(&pool, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), &got);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(stats.TotalReads(), 0u);
}

TEST(FlatIndexTest, SingleElement) {
  PageFile file;
  FlatIndex index = FlatIndex::Build(
      &file, {RTreeEntry{Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)), 5}});
  IoStats stats;
  BufferPool pool(&file, &stats);
  std::vector<uint64_t> got;
  index.RangeQuery(&pool, Aabb(Vec3(0, 0, 0), Vec3(1.5, 1.5, 1.5)), &got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 5u);
  got.clear();
  index.RangeQuery(&pool, Aabb(Vec3(9, 9, 9), Vec3(10, 10, 10)), &got);
  EXPECT_TRUE(got.empty());
}

TEST(FlatIndexTest, MatchesBruteForceOnRandomWorkload) {
  const auto entries = RandomEntries(5000, 91);
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  IoStats stats;
  BufferPool pool(&file, &stats);
  for (const Aabb& q : RandomQueries(80, 92)) {
    std::vector<uint64_t> got;
    index.RangeQuery(&pool, q, &got);
    EXPECT_EQ(Sorted(got), BruteForce(entries, q));
  }
}

TEST(FlatIndexTest, NoDuplicateResults) {
  const auto entries = RandomEntries(3000, 93);
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  IoStats stats;
  BufferPool pool(&file, &stats);
  for (const Aabb& q : RandomQueries(30, 94)) {
    std::vector<uint64_t> got;
    index.RangeQuery(&pool, q, &got);
    auto sorted = Sorted(got);
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << "duplicate element in result";
  }
}

TEST(FlatIndexTest, HugeQueryReturnsEverything) {
  const auto entries = RandomEntries(2000, 95);
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  IoStats stats;
  BufferPool pool(&file, &stats);
  std::vector<uint64_t> got;
  index.RangeQuery(&pool, Aabb(Vec3(-1e9, -1e9, -1e9), Vec3(1e9, 1e9, 1e9)),
                   &got);
  EXPECT_EQ(got.size(), entries.size());
}

TEST(FlatIndexTest, EmptyRegionQueryFindsNothing) {
  // Elements only in [0,100]^3; query far away. The seed phase may probe
  // several leaves but must return no result.
  const auto entries = RandomEntries(2000, 96);
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  IoStats stats;
  BufferPool pool(&file, &stats);
  EXPECT_FALSE(
      index.Seed(&pool, Aabb(Vec3(200, 200, 200), Vec3(201, 201, 201)))
          .has_value());
}

TEST(FlatIndexTest, BuildStatsAreConsistent) {
  const auto entries = RandomEntries(5000, 97);
  PageFile file;
  FlatIndex::BuildStats stats;
  FlatIndex index = FlatIndex::Build(&file, entries, &stats);
  EXPECT_GT(stats.partitions, entries.size() / 73);
  EXPECT_EQ(stats.object_pages, stats.partitions);
  EXPECT_GT(stats.seed_leaf_pages, 0u);
  EXPECT_EQ(stats.object_pages, file.PageCountIn(PageCategory::kObject));
  EXPECT_EQ(stats.seed_leaf_pages,
            file.PageCountIn(PageCategory::kSeedLeaf));
  EXPECT_EQ(stats.seed_internal_pages,
            file.PageCountIn(PageCategory::kSeedInternal));
  EXPECT_GT(stats.neighbor_pointers, 0u);
  EXPECT_EQ(stats.neighbor_pointers % 2, 0u) << "pointers come in pairs";
  EXPECT_GE(stats.seed_height, 1);
  EXPECT_EQ(index.partition_profiles().size(), stats.partitions);
}

TEST(FlatIndexTest, QueryIoBreakdownUsesSeedCategories) {
  const auto entries = RandomEntries(5000, 98);
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  IoStats stats;
  BufferPool pool(&file, &stats);
  std::vector<uint64_t> got;
  index.RangeQuery(&pool, Aabb(Vec3(20, 20, 20), Vec3(50, 50, 50)), &got);
  ASSERT_FALSE(got.empty());
  EXPECT_GT(stats.ReadsIn(PageCategory::kObject), 0u);
  EXPECT_GT(stats.ReadsIn(PageCategory::kSeedLeaf), 0u);
  EXPECT_EQ(stats.ReadsIn(PageCategory::kRTreeInternal), 0u);
  EXPECT_EQ(stats.ReadsIn(PageCategory::kRTreeLeaf), 0u);
}

TEST(FlatIndexTest, SeedCostIsOnTheOrderOfTreeHeight) {
  const auto entries = RandomEntries(20000, 99);
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  IoStats stats;
  BufferPool pool(&file, &stats);
  // A query in a populated region: the seed phase should read a handful of
  // pages (root-to-leaf path + 1 object page probe or so), never a scan.
  auto seed = index.Seed(&pool, Aabb(Vec3(40, 40, 40), Vec3(60, 60, 60)));
  ASSERT_TRUE(seed.has_value());
  EXPECT_LE(stats.TotalReads(),
            static_cast<uint64_t>(4 * index.seed_height() + 4));
}

TEST(FlatIndexTest, PageMbrGuardLosesResultsInFigure8Scenario) {
  // Deterministic reconstruction of the paper's Figure 8/9 counter-example.
  // 27 tight clusters of exactly one page (73 elements) each, on a 3x3x3
  // grid, so STR partitioning puts one cluster per partition. The middle
  // cluster of the (y=0, z=0) row is displaced to y=10: a thin corridor
  // query along that row then intersects the page MBRs of the two end
  // clusters but NOT the middle one — yet the middle *partition* (whose tile
  // spans the corridor) is the only neighbor link between the ends. The
  // partition-MBR guard must return both end clusters; the page-MBR guard
  // must lose one.
  const uint32_t cap = NodeCapacity(kDefaultPageSize);  // 73
  Rng rng(100);
  std::vector<RTreeEntry> entries;
  uint64_t id = 0;
  for (int ix = 0; ix < 3; ++ix) {
    for (int iy = 0; iy < 3; ++iy) {
      for (int iz = 0; iz < 3; ++iz) {
        Vec3 center(50.0 * ix, 50.0 * iy, 50.0 * iz);
        if (ix == 1 && iy == 0 && iz == 0) center.y = 10.0;  // displaced
        for (uint32_t i = 0; i < cap; ++i) {
          const Vec3 p = center + rng.UnitVector() * rng.Uniform(0.0, 1.0);
          entries.push_back(RTreeEntry{
              Aabb::FromCenterHalfExtents(p, Vec3(0.05, 0.05, 0.05)), id++});
        }
      }
    }
  }
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  ASSERT_EQ(index.build_stats().partitions, 27u);

  IoStats stats;
  BufferPool pool(&file, &stats);
  const Aabb corridor(Vec3(-5, -3, -3), Vec3(105, 3, 3));

  std::vector<uint64_t> correct, broken;
  index.RangeQuery(&pool, corridor, &correct);
  // The page-MBR crawl starts from a record whose page meets the corridor:
  // an end cluster. (The directory's start, the record whose tile holds the
  // corridor's center, is the bridging middle partition, from which even
  // the broken guard reaches both ends.)
  const std::vector<RecordRef> starts = index.FindAllCandidateRecords(corridor);
  ASSERT_EQ(starts.size(), 2u);
  index.Crawl(&pool, corridor, starts.front(), &broken,
              FlatIndex::CrawlGuard::kPageMbr);

  EXPECT_EQ(Sorted(correct), BruteForce(entries, corridor));
  EXPECT_EQ(correct.size(), 2u * cap) << "both end clusters in range";
  EXPECT_LT(broken.size(), correct.size())
      << "page-MBR guard must fail to cross the displaced partition";
}

}  // namespace
}  // namespace flat

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "core/flat_index.h"
#include "rtree/bulkload.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace flat {
namespace {

// Oracle: ids of the k entries with smallest box-to-point distance. Returns
// the distances too so ties can be compared by distance rather than id.
std::vector<std::pair<double, uint64_t>> BruteForceKnn(
    const std::vector<RTreeEntry>& entries, const Vec3& center, size_t k) {
  std::vector<std::pair<double, uint64_t>> all;
  all.reserve(entries.size());
  for (const RTreeEntry& e : entries) {
    all.emplace_back(e.box.DistanceSquaredTo(center), e.id);
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min(k, all.size()));
  return all;
}

// Compares a measured kNN result against the oracle by distance multiset
// (ids may differ under exact distance ties).
void ExpectKnnMatches(const std::vector<RTreeEntry>& entries,
                      const Vec3& center,
                      const std::vector<uint64_t>& got_ids, size_t k) {
  auto oracle = BruteForceKnn(entries, center, k);
  ASSERT_EQ(got_ids.size(), oracle.size());
  std::vector<double> got_distances;
  for (uint64_t id : got_ids) {
    // Entries are identified by id == index in all RandomEntries datasets.
    got_distances.push_back(entries[id].box.DistanceSquaredTo(center));
  }
  std::sort(got_distances.begin(), got_distances.end());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_DOUBLE_EQ(got_distances[i], oracle[i].first) << "rank " << i;
  }
}

class KnnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    entries_ = testing::RandomEntries(3000, 501);
    rtree_ = BulkloadStr(&rtree_file_, entries_);
    flat_ = FlatIndex::Build(&flat_file_, entries_);
  }

  std::vector<RTreeEntry> entries_;
  PageFile rtree_file_, flat_file_;
  RTree rtree_;
  FlatIndex flat_;
};

TEST_F(KnnTest, RTreeMatchesOracle) {
  IoStats stats;
  BufferPool pool(&rtree_file_, &stats);
  Rng rng(502);
  Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  for (size_t k : {1u, 5u, 17u, 100u}) {
    for (int i = 0; i < 10; ++i) {
      const Vec3 center = rng.PointIn(universe);
      auto got = rtree_.KnnQuery(&pool, center, k);
      std::vector<uint64_t> ids;
      for (const auto& e : got) ids.push_back(e.id);
      ExpectKnnMatches(entries_, center, ids, k);
    }
  }
}

TEST_F(KnnTest, RTreeResultsAreSortedNearestFirst) {
  IoStats stats;
  BufferPool pool(&rtree_file_, &stats);
  const Vec3 center(50, 50, 50);
  auto got = rtree_.KnnQuery(&pool, center, 50);
  ASSERT_EQ(got.size(), 50u);
  double prev = -1.0;
  for (const auto& e : got) {
    const double d2 = e.box.DistanceSquaredTo(center);
    EXPECT_GE(d2, prev);
    prev = d2;
  }
}

TEST_F(KnnTest, FlatMatchesOracle) {
  IoStats stats;
  BufferPool pool(&flat_file_, &stats);
  Rng rng(503);
  Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  for (size_t k : {1u, 8u, 50u}) {
    for (int i = 0; i < 10; ++i) {
      const Vec3 center = rng.PointIn(universe);
      auto ids = flat_.KnnQuery(&pool, center, k);
      ExpectKnnMatches(entries_, center, ids, k);
    }
  }
}

TEST_F(KnnTest, KLargerThanDatasetReturnsEverything) {
  const auto small = testing::RandomEntries(20, 504);
  PageFile rf, ff;
  RTree rtree = BulkloadStr(&rf, small);
  FlatIndex flat = FlatIndex::Build(&ff, small);
  IoStats stats;
  BufferPool rpool(&rf, &stats), fpool(&ff, &stats);
  EXPECT_EQ(rtree.KnnQuery(&rpool, Vec3(0, 0, 0), 100).size(), 20u);
  EXPECT_EQ(flat.KnnQuery(&fpool, Vec3(0, 0, 0), 100).size(), 20u);
}

TEST_F(KnnTest, KZeroAndEmptyIndex) {
  IoStats stats;
  BufferPool pool(&rtree_file_, &stats);
  EXPECT_TRUE(rtree_.KnnQuery(&pool, Vec3(1, 2, 3), 0).empty());
  RTree empty;
  EXPECT_TRUE(empty.KnnQuery(&pool, Vec3(1, 2, 3), 5).empty());
  PageFile ef;
  FlatIndex empty_flat = FlatIndex::Build(&ef, {});
  BufferPool epool(&ef, &stats);
  EXPECT_TRUE(empty_flat.KnnQuery(&epool, Vec3(), 5).empty());
}

TEST_F(KnnTest, QueryPointFarOutsideUniverse) {
  IoStats stats;
  BufferPool rpool(&rtree_file_, &stats), fpool(&flat_file_, &stats);
  const Vec3 far(1e6, 1e6, 1e6);
  auto rtree_got = rtree_.KnnQuery(&rpool, far, 3);
  ASSERT_EQ(rtree_got.size(), 3u);
  std::vector<uint64_t> rtree_ids;
  for (const auto& e : rtree_got) rtree_ids.push_back(e.id);
  ExpectKnnMatches(entries_, far, rtree_ids, 3);
  auto flat_ids = flat_.KnnQuery(&fpool, far, 3);
  ExpectKnnMatches(entries_, far, flat_ids, 3);
}

// A box with a NaN coordinate is at NaN distance from every point: no ball
// holds it (IntersectsSphere says no), so it is never among the nearest,
// and a NaN distance must not reach the ranking, whose sort it would break.
TEST(KnnNanTest, FlatSkipsNanBoxes) {
  const auto entries = testing::RandomEntriesWithEmptyAndNan(5000, 505);
  PageFile file(512);
  const FlatIndex flat = FlatIndex::Build(&file, entries);
  IoStats stats;
  BufferPool pool(&file, &stats);
  Rng rng(506);
  const Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  for (size_t k : {1u, 8u, 50u}) {
    for (int i = 0; i < 10; ++i) {
      const Vec3 center = rng.PointIn(universe);
      std::vector<std::pair<double, uint64_t>> ranked;
      for (const RTreeEntry& e : entries) {
        const double d2 = e.box.DistanceSquaredTo(center);
        if (d2 <= std::numeric_limits<double>::max()) {
          ranked.emplace_back(d2, e.id);
        }
      }
      std::sort(ranked.begin(), ranked.end());
      std::vector<uint64_t> want;
      for (size_t r = 0; r < k; ++r) want.push_back(ranked[r].second);
      EXPECT_EQ(flat.KnnQuery(&pool, center, k), want)
          << "center " << center << ", k " << k;
    }
  }
}

TEST_F(KnnTest, BestFirstReadsFewPagesForSmallK) {
  IoStats stats;
  BufferPool pool(&rtree_file_, &stats);
  pool.Clear();
  IoStats before = stats;
  rtree_.KnnQuery(&pool, Vec3(50, 50, 50), 1);
  const uint64_t reads = stats.DeltaSince(before).TotalReads();
  // With overlapping element MBRs several leaves can tie at distance 0, so
  // "one path" is not exact — but best-first must stay far below a scan.
  const auto tree_stats = rtree_.ComputeStats();
  EXPECT_LT(reads, (tree_stats.leaf_pages + tree_stats.internal_pages) / 2)
      << "best-first 1-NN must not degenerate into a scan";
}

}  // namespace
}  // namespace flat

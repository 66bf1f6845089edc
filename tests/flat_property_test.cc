#include <gtest/gtest.h>

#include <tuple>

#include "core/flat_index.h"
#include "data/neuron_generator.h"
#include "data/query_generator.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::BruteForce;
using testing::RandomEntries;
using testing::Sorted;

// ---------------------------------------------------------------------------
// Seed independence: Algorithm 2's result must not depend on which start
// record the seed phase picks ("the choice of the start page ... affects
// neither the accuracy nor efficiency of the search").
// ---------------------------------------------------------------------------

TEST(FlatSeedIndependenceTest, EveryCandidateStartYieldsSameResult) {
  const auto entries = RandomEntries(4000, 111);
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  IoStats stats;
  BufferPool pool(&file, &stats);

  for (const Aabb& q : testing::RandomQueries(10, 112)) {
    const auto oracle = BruteForce(entries, q);
    // Every record whose page MBR intersects the query is a legal crawl
    // start. The start always expands, and a point its page shares with
    // the query lies in some tile, which the start links to (page ∩ tile).
    // That tile meets the query, and the tiles meeting the query cover it,
    // so they form one tile ∩ tile-connected component; every hit lies in
    // one of them, which links to the hit's record. The result must be
    // identical for all starts (tests/tile_adjacency_test.cc checks this
    // on degenerate data and for spheres too).
    for (const RecordRef& start : index.FindAllCandidateRecords(q)) {
      std::vector<uint64_t> got;
      index.Crawl(&pool, q, start, &got);
      EXPECT_EQ(Sorted(got), oracle)
          << "crawl from a different seed produced a different result";
    }
  }
}

// ---------------------------------------------------------------------------
// Parameterized sweeps: density x element size x query volume. Each
// combination checks FLAT + brute force equivalence end to end.
// ---------------------------------------------------------------------------

using SweepParam = std::tuple<size_t, double, double>;

class FlatSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FlatSweepTest, FlatMatchesBruteForce) {
  const auto [count, max_side, query_frac] = GetParam();
  const auto entries = RandomEntries(count, 113 + count, max_side);
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  IoStats stats;
  BufferPool pool(&file, &stats);

  Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  RangeWorkloadParams params;
  params.count = 15;
  params.volume_fraction = query_frac;
  params.seed = 114;
  for (const Aabb& q : GenerateRangeWorkload(universe, params)) {
    std::vector<uint64_t> got;
    index.RangeQuery(&pool, q, &got);
    EXPECT_EQ(Sorted(got), BruteForce(entries, q));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DensityShapeVolume, FlatSweepTest,
    ::testing::Combine(
        ::testing::Values<size_t>(200, 2000, 10000),    // density
        ::testing::Values(0.5, 3.0, 15.0),              // element size
        ::testing::Values(1e-6, 1e-4, 1e-2)));          // query volume frac

// ---------------------------------------------------------------------------
// Realistic data: the synthetic microcircuit.
// ---------------------------------------------------------------------------

TEST(FlatNeuronTest, CorrectOnMicrocircuit) {
  NeuronParams params;
  params.total_elements = 20000;
  params.seed = 115;
  Dataset dataset = GenerateNeurons(params);

  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, dataset.elements);
  IoStats stats;
  BufferPool pool(&file, &stats);

  RangeWorkloadParams wp;
  wp.count = 25;
  wp.volume_fraction = 1e-5;
  wp.seed = 116;
  for (const Aabb& q : GenerateRangeWorkload(dataset.bounds, wp)) {
    std::vector<uint64_t> got;
    index.RangeQuery(&pool, q, &got);
    EXPECT_EQ(Sorted(got), dataset.BruteForceRange(q));
  }
}

// ---------------------------------------------------------------------------
// Page-size sweep: FLAT must stay correct for any page size down to tiny
// pages (which stress record packing and multi-level seed trees).
// ---------------------------------------------------------------------------

class FlatPageSizeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FlatPageSizeTest, CorrectAtAnyPageSize) {
  const uint32_t page_size = GetParam();
  const auto entries = RandomEntries(2500, 117, /*max_side=*/1.0);
  PageFile file(page_size);
  FlatIndex index = FlatIndex::Build(&file, entries);
  IoStats stats;
  BufferPool pool(&file, &stats);
  for (const Aabb& q : testing::RandomQueries(25, 118)) {
    std::vector<uint64_t> got;
    index.RangeQuery(&pool, q, &got);
    EXPECT_EQ(Sorted(got), BruteForce(entries, q));
  }
}

INSTANTIATE_TEST_SUITE_P(PageSizes, FlatPageSizeTest,
                         ::testing::Values(1024u, 2048u, 4096u, 8192u,
                                           16384u));

// ---------------------------------------------------------------------------
// Crawl visits each page at most once: total object reads in a cold query
// can never exceed the number of object pages.
// ---------------------------------------------------------------------------

TEST(FlatCrawlTest, EachObjectPageReadAtMostOnce) {
  const auto entries = RandomEntries(8000, 119);
  PageFile file;
  FlatIndex::BuildStats build_stats;
  FlatIndex index = FlatIndex::Build(&file, entries, &build_stats);
  IoStats stats;
  BufferPool pool(&file, &stats);
  std::vector<uint64_t> got;
  index.RangeQuery(&pool, Aabb(Vec3(-1e9, -1e9, -1e9), Vec3(1e9, 1e9, 1e9)),
                   &got);
  EXPECT_LE(stats.ReadsIn(PageCategory::kObject), build_stats.object_pages);
  EXPECT_LE(stats.ReadsIn(PageCategory::kSeedLeaf),
            build_stats.seed_leaf_pages);
}

}  // namespace
}  // namespace flat

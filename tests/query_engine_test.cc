// The QueryEngine contract: parallel batch execution returns per-query
// results bit-identical to the serial FlatIndex calls, and merged IoStats
// totals that exactly equal serial execution's, at every thread count and in
// both CrawlGuard modes.
#include "engine/query_engine.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/flat_index.h"
#include "geometry/rng.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::BruteForce;
using testing::RandomEntries;
using testing::RandomQueries;
using testing::Sorted;

std::vector<uint64_t> CategoryCounts(const IoStats& stats) {
  std::vector<uint64_t> counts(kNumPageCategories);
  for (int c = 0; c < kNumPageCategories; ++c) {
    counts[c] = stats.ReadsIn(static_cast<PageCategory>(c));
  }
  return counts;
}

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    entries_ = RandomEntries(20000, /*seed=*/99);
    index_ = FlatIndex::Build(&file_, entries_);
  }

  // Serial reference with a fresh (cold) BufferPool per query.
  QueryResult RunSerial(const Query& q) const {
    QueryResult r;
    BufferPool pool(&file_, &r.io);
    DispatchQuery({&index_, q}, &pool, &r);
    return r;
  }

  void ExpectMatchesSerial(const std::vector<Query>& batch, size_t threads) {
    std::vector<QueryResult> serial;
    serial.reserve(batch.size());
    IoStats serial_io;
    for (const Query& q : batch) {
      serial.push_back(RunSerial(q));
      serial_io += serial.back().io;
    }

    QueryEngine::Options options;
    options.threads = threads;
    QueryEngine engine(&index_, options);
    BatchStats stats;
    std::vector<QueryResult> parallel = engine.Run(batch, &stats);

    ASSERT_EQ(parallel.size(), batch.size());
    EXPECT_EQ(stats.threads, threads);
    uint64_t elements = 0;
    IoStats merged;
    for (size_t i = 0; i < batch.size(); ++i) {
      // Bit-identical ids, in the same traversal order — the parallel
      // engine runs the very same serial code path per query.
      EXPECT_EQ(parallel[i].ids, serial[i].ids) << "query " << i;
      elements += parallel[i].ids.size();
      merged += parallel[i].io;
      EXPECT_EQ(CategoryCounts(parallel[i].io), CategoryCounts(serial[i].io))
          << "query " << i;
    }
    EXPECT_EQ(stats.result_elements, elements);
    // The batch aggregate is exactly the sum of the per-query breakdowns.
    EXPECT_EQ(CategoryCounts(stats.io), CategoryCounts(merged));
    EXPECT_EQ(CategoryCounts(stats.io), CategoryCounts(serial_io));
  }

  PageFile file_;
  std::vector<RTreeEntry> entries_;
  FlatIndex index_;
};

TEST_F(QueryEngineTest, RangeBatchMatchesSerialAcrossThreadCounts) {
  std::vector<Query> batch;
  for (const Aabb& box : RandomQueries(64, /*seed=*/5)) {
    batch.push_back(Query::Range(box));
  }
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    ExpectMatchesSerial(batch, threads);
  }
}

TEST_F(QueryEngineTest, BothCrawlGuardModes) {
  for (FlatIndex::CrawlGuard guard :
       {FlatIndex::CrawlGuard::kPartitionMbr,
        FlatIndex::CrawlGuard::kPageMbr}) {
    std::vector<Query> batch;
    for (const Aabb& box : RandomQueries(48, /*seed=*/11)) {
      batch.push_back(Query::Range(box, guard));
    }
    for (size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      ExpectMatchesSerial(batch, threads);
    }
  }
}

TEST_F(QueryEngineTest, RangeResultsAreCorrectNotJustConsistent) {
  std::vector<Aabb> boxes = RandomQueries(32, /*seed=*/17);
  std::vector<Query> batch;
  for (const Aabb& box : boxes) batch.push_back(Query::Range(box));

  QueryEngine engine(&index_, {.threads = 4});
  std::vector<QueryResult> results = engine.Run(batch);
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(Sorted(results[i].ids), BruteForce(entries_, boxes[i]))
        << "query " << i;
  }
}

TEST_F(QueryEngineTest, KnnAndSphereBatches) {
  Rng rng(23);
  const Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  std::vector<Query> batch;
  for (int i = 0; i < 30; ++i) {
    const Vec3 center = rng.PointIn(universe);
    if (i % 2 == 0) {
      batch.push_back(Query::Knn(center, 1 + static_cast<size_t>(i)));
    } else {
      batch.push_back(Query::Sphere(center, rng.Uniform(0.5, 10.0)));
    }
  }
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    ExpectMatchesSerial(batch, threads);
  }
}

TEST_F(QueryEngineTest, RandomizedStress) {
  // Fixed-seed stress mix: many skewed queries (some huge, some empty) so
  // the workers' dynamic claiming actually balances.
  Rng rng(4242);
  const Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  std::vector<Query> batch;
  for (int i = 0; i < 400; ++i) {
    const Vec3 center = rng.PointIn(universe);
    const double roll = rng.Uniform(0.0, 1.0);
    if (roll < 0.5) {
      const double side = rng.Uniform(0.1, 40.0);
      batch.push_back(Query::Range(Aabb::FromCenterHalfExtents(
          center, Vec3(side / 2, side / 2, side / 2))));
    } else if (roll < 0.7) {
      batch.push_back(Query::Sphere(center, rng.Uniform(0.1, 15.0)));
    } else if (roll < 0.9) {
      batch.push_back(
          Query::Knn(center, static_cast<size_t>(rng.UniformInt(1, 50))));
    } else {
      // Far outside the universe: empty result.
      batch.push_back(Query::Range(Aabb::FromCenterHalfExtents(
          center + Vec3(1000, 1000, 1000), Vec3(1, 1, 1))));
    }
  }
  for (size_t threads : {2u, 8u}) {
    SCOPED_TRACE(threads);
    ExpectMatchesSerial(batch, threads);
  }
}

TEST_F(QueryEngineTest, EngineIsReusableAcrossBatches) {
  QueryEngine engine(&index_, {.threads = 4});
  for (uint64_t round = 0; round < 3; ++round) {
    std::vector<Query> batch;
    for (const Aabb& box : RandomQueries(16, /*seed=*/100 + round)) {
      batch.push_back(Query::Range(box));
    }
    std::vector<QueryResult> results = engine.Run(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(results[i].ids, RunSerial(batch[i]).ids);
    }
  }
}

// One engine alternates batches of one sub-query, which ParallelFor runs on
// the calling thread with worker 0's scratch and pool, and batches of 64 on
// the pool. The sub-queries span two indexes, so workers also switch stores
// and rebuild their pools. Every result must equal a serial cold-pool run in
// ids and per-category IoStats, whichever path and worker ran it.
TEST_F(QueryEngineTest, InlineAndPooledBatchesShareWorkerStateExactly) {
  PageFile other_file;
  const FlatIndex other =
      FlatIndex::Build(&other_file, RandomEntries(8000, /*seed=*/7));
  const FlatIndex* const indexes[] = {&index_, &other};

  Rng rng(31);
  const Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  const auto make_query = [&](size_t i) {
    const Vec3 center = rng.PointIn(universe);
    switch (i % 3) {
      case 0:
        return Query::Range(Aabb::FromCenterHalfExtents(
            center, Vec3(1, 1, 1) * rng.Uniform(0.5, 12.0)));
      case 1:
        return Query::Sphere(center, rng.Uniform(0.5, 10.0));
      default:
        return Query::Knn(center, static_cast<size_t>(rng.UniformInt(1, 40)));
    }
  };

  QueryEngine engine(QueryEngine::Options{.threads = 4});
  for (size_t round = 0; round < 8; ++round) {
    std::vector<IndexedQuery> batch;
    if (round % 2 == 0) {
      batch.push_back({indexes[(round / 2) % 2], make_query(round / 2)});
    } else {
      for (size_t i = 0; i < 64; ++i) {
        batch.push_back({indexes[i % 2], make_query(i)});
      }
    }
    BatchStats stats;
    const std::vector<QueryResult> got = engine.RunMulti(batch, &stats);
    ASSERT_EQ(got.size(), batch.size());
    EXPECT_EQ(stats.threads, 4u);
    for (size_t i = 0; i < batch.size(); ++i) {
      QueryResult want;
      BufferPool pool(batch[i].index->file(), &want.io);
      DispatchQuery(batch[i], &pool, &want);
      EXPECT_EQ(got[i].ids, want.ids) << "round " << round << " query " << i;
      EXPECT_EQ(CategoryCounts(got[i].io), CategoryCounts(want.io))
          << "round " << round << " query " << i;
    }
  }
}

TEST(QueryEngineEdgeTest, EmptyBatch) {
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, testing::RandomEntries(100, 1));
  QueryEngine engine(&index, {.threads = 4});
  BatchStats stats;
  EXPECT_TRUE(engine.Run({}, &stats).empty());
  EXPECT_EQ(stats.result_elements, 0u);
  EXPECT_EQ(stats.io.TotalReads(), 0u);
}

TEST(QueryEngineEdgeTest, NeverBuiltIndex) {
  FlatIndex index;  // no PageFile attached
  QueryEngine engine(&index, {.threads = 2});
  std::vector<Query> batch = {
      Query::Range(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)))};
  std::vector<QueryResult> results = engine.Run(batch);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ids.empty());
}

TEST(QueryEngineEdgeTest, MoreThreadsThanQueries) {
  PageFile file;
  std::vector<RTreeEntry> entries = testing::RandomEntries(2000, 3);
  FlatIndex index = FlatIndex::Build(&file, entries);
  QueryEngine engine(&index, {.threads = 16});
  std::vector<Query> batch = {
      Query::Range(Aabb(Vec3(0, 0, 0), Vec3(50, 50, 50))),
      Query::Range(Aabb(Vec3(50, 50, 50), Vec3(100, 100, 100)))};
  std::vector<QueryResult> results = engine.Run(batch);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(testing::Sorted(results[0].ids),
            testing::BruteForce(entries, batch[0].box));
  EXPECT_EQ(testing::Sorted(results[1].ids),
            testing::BruteForce(entries, batch[1].box));
}

}  // namespace
}  // namespace flat

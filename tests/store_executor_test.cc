// The sharded store's one query executor (scatter -> dispatch -> gather).
// Every entry point — the single-query calls, RunBatch, Snapshot methods and
// a default-constructed store — runs through it, so they must agree bit for
// bit on ids, counts, status and IoStats; and the engine's inline runner
// (what a Snapshot dispatches on) must match its threaded RunMulti.
#include <atomic>
#include <filesystem>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "delta/delta_log.h"
#include "delta/overlay_view.h"
#include "engine/query_engine.h"
#include "shard/sharded_flat_store.h"
#include "storage/fault_injection.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::OracleMirror;
using testing::RandomEntries;
using testing::RandomQueries;

// Every store-supported query type over each box: range, count, seed scan
// and the box's inscribed-ish sphere.
std::vector<Query> MixedBatch(const std::vector<Aabb>& boxes) {
  std::vector<Query> batch;
  for (const Aabb& box : boxes) {
    batch.push_back(Query::Range(box));
    batch.push_back(Query::RangeCount(box));
    batch.push_back(Query::RangeSeedScan(box));
    batch.push_back(Query::Sphere(box.Center(), box.Extents().Norm() / 2));
  }
  return batch;
}

// Runs `query` through the matching id/count entry point of `target` (the
// store or a Snapshot — both expose the same four methods).
template <typename Target>
QueryResult RunThrough(const Target& target, const Query& query) {
  QueryResult result;
  switch (query.type) {
    case Query::Type::kRange:
      result.ids = target.RangeQuery(query.box, &result.io);
      break;
    case Query::Type::kRangeCount:
      result.count = target.RangeCount(query.box, &result.io);
      return result;
    case Query::Type::kSeedScan:
      result.ids = target.RangeQueryViaSeedScan(query.box, &result.io);
      break;
    case Query::Type::kSphere:
      result.ids = target.SphereQuery(query.center, query.radius, &result.io);
      break;
    case Query::Type::kKnn:
      ADD_FAILURE() << "kKnn has no store entry point";
      break;
  }
  result.count = result.ids.size();
  return result;
}

void ExpectSameResult(const QueryResult& a, const QueryResult& b,
                      size_t index) {
  EXPECT_EQ(a.ids, b.ids) << "query " << index;
  EXPECT_EQ(a.count, b.count) << "query " << index;
  EXPECT_EQ(a.status, b.status) << "query " << index;
  EXPECT_TRUE(a.io == b.io) << "query " << index;
}

// (engine threads, overlay churn before querying).
class StoreExecutorTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(StoreExecutorTest, EveryEntryPointAgreesWithRunBatchAndOracle) {
  const auto [threads, churn] = GetParam();
  const std::vector<RTreeEntry> entries = RandomEntries(6000, /*seed=*/71);
  ShardedFlatStore::Options options;
  options.num_shards = 4;
  options.num_threads = threads;
  options.aggregate_counts = true;  // exercises the covered-shard precount
  ShardedFlatStore store = ShardedFlatStore::Build(entries, options);
  OracleMirror mirror(entries);

  if (churn) {
    Rng rng(72);
    const Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
    const Aabb outside(Vec3(150, 150, 150), Vec3(160, 160, 160));
    for (uint64_t i = 0; i < 300; ++i) {
      // Fresh ids; every third lands outside every shard (spill bucket).
      const Vec3 center = rng.PointIn(i % 3 == 0 ? outside : universe);
      const RTreeEntry e{
          Aabb::FromCenterHalfExtents(center, Vec3(0.5, 0.5, 0.5)),
          10000 + i};
      store.Insert(e);
      mirror.Insert(e);
    }
    for (uint64_t id = 0; id < 600; id += 3) {  // erase 200 base ids
      store.Erase(id);
      mirror.Erase(id);
    }
    for (uint64_t id = 1; id < 600; id += 6) {  // upsert 100 base ids
      const RTreeEntry e{
          Aabb::FromCenterHalfExtents(rng.PointIn(universe),
                                      Vec3(1, 1, 1)),
          id};
      store.Insert(e);
      mirror.Insert(e);
    }
  }

  std::vector<Aabb> boxes = RandomQueries(12, /*seed=*/73);
  boxes.push_back(Aabb(Vec3(-50, -50, -50), Vec3(250, 250, 250)));
  const std::vector<Query> batch = MixedBatch(boxes);

  BatchStats stats;
  const std::vector<QueryResult> batched = store.RunBatch(batch, &stats);
  const ShardedFlatStore::Snapshot snapshot = store.PinSnapshot();
  ASSERT_EQ(batched.size(), batch.size());

  BatchStats expected_stats;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Query& q = batch[i];
    ExpectSameResult(batched[i], RunThrough(store, q), i);
    ExpectSameResult(batched[i], RunThrough(snapshot, q), i);
    expected_stats.Record(batched[i]);

    EXPECT_EQ(batched[i].status, QueryStatus::kOk);
    switch (q.type) {
      case Query::Type::kRangeCount:
        EXPECT_EQ(batched[i].count, mirror.RangeCount(q.box)) << i;
        break;
      case Query::Type::kSphere:
        EXPECT_EQ(batched[i].ids, mirror.SphereQuery(q.center, q.radius))
            << i;
        break;
      default:
        EXPECT_EQ(batched[i].ids, mirror.RangeQuery(q.box)) << i;
        break;
    }
  }
  EXPECT_TRUE(stats.io == expected_stats.io);
  EXPECT_EQ(stats.result_elements, expected_stats.result_elements);
  EXPECT_EQ(stats.queries_ok, batch.size());
  EXPECT_EQ(stats.threads, threads);
  if (churn) {
    EXPECT_GT(stats.io.OverlayProbes(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndChurn, StoreExecutorTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{4}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<size_t, bool>>& info) {
      return "T" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_churn" : "_static");
    });

// The inline runner is RunMulti on the calling thread: identical results
// and IoStats for every sub-query shape the scatter produces (shard +
// overlay bucket, spill tail without an index, plain index, unbuilt and
// null index), at every engine thread count.
TEST(RunInlineTest, MatchesRunMultiForEverySubQueryShape) {
  const std::vector<RTreeEntry> left = RandomEntries(3000, /*seed=*/81);
  std::vector<RTreeEntry> right = RandomEntries(3000, /*seed=*/82);
  for (RTreeEntry& e : right) e.id += 5000;
  PageFile file_a, file_b;
  const FlatIndex a = FlatIndex::Build(&file_a, left);
  const FlatIndex b = FlatIndex::Build(&file_b, right);
  const FlatIndex unbuilt;

  DeltaLog log;
  Rng rng(83);
  for (uint64_t i = 0; i < 200; ++i) {
    DeltaOp op;
    if (i % 4 == 0) {
      op.kind = DeltaOp::Kind::kDelete;
      op.entry.id = i * 7;
    } else {
      op.entry = RTreeEntry{
          Aabb::FromCenterHalfExtents(
              rng.PointIn(Aabb(Vec3(-20, -20, -20), Vec3(120, 120, 120))),
              Vec3(0.5, 0.5, 0.5)),
          20000 + i};
    }
    log.Append(op);
  }
  const Aabb half_a(Vec3(0, 0, 0), Vec3(50, 100, 100));
  const Aabb half_b(Vec3(50, 0, 0), Vec3(100, 100, 100));
  const std::shared_ptr<const OverlayView> overlay =
      OverlayView::Build(log, 0, log.size(), {half_a, half_b});
  ASSERT_NE(overlay, nullptr);

  std::vector<IndexedQuery> batch;
  for (const Query& q : MixedBatch(RandomQueries(8, /*seed=*/84))) {
    batch.push_back(IndexedQuery{&a, q, overlay.get(), 0});
    batch.push_back(IndexedQuery{&b, q, overlay.get(), 1});
    batch.push_back(
        IndexedQuery{nullptr, q, overlay.get(), overlay->spill_bucket()});
    batch.push_back(IndexedQuery{&a, q});
    batch.push_back(IndexedQuery{&unbuilt, q});
    batch.push_back(IndexedQuery{nullptr, q});
  }
  batch.push_back(IndexedQuery{&b, Query::Knn(Vec3(50, 50, 50), 7)});

  const std::vector<QueryResult> inline_results =
      QueryEngine::RunInline(batch);
  ASSERT_EQ(inline_results.size(), batch.size());
  for (size_t threads : {1, 4}) {
    QueryEngine::Options options;
    options.threads = threads;
    QueryEngine engine(options);
    const std::vector<QueryResult> multi = engine.RunMulti(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      ExpectSameResult(inline_results[i], multi[i], i);
    }
  }
  EXPECT_EQ(inline_results.back().count, 7u);
}

// A default-constructed store has no engine, so its queries run inline —
// and still honor controls: a cancelled query stops at the overlay scan's
// cancellation point while an uncontrolled sibling answers exactly.
TEST(RunInlineTest, OverlayOnlyStoreHonorsControls) {
  ShardedFlatStore store;
  const std::vector<RTreeEntry> entries = RandomEntries(400, /*seed=*/91);
  for (const RTreeEntry& e : entries) store.Insert(e);

  std::atomic<bool> cancel{true};
  QueryControl control;
  control.cancel = &cancel;
  const Aabb everything(Vec3(-10, -10, -10), Vec3(110, 110, 110));
  std::vector<Query> batch = {Query::Range(everything),
                              Query::Range(everything),
                              Query::RangeCount(everything)};
  batch[1].control = &control;
  batch[2].control = &control;

  BatchStats stats;
  const std::vector<QueryResult> results = store.RunBatch(batch, &stats);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, QueryStatus::kOk);
  EXPECT_EQ(results[0].ids, testing::BruteForce(entries, everything));
  EXPECT_EQ(results[1].status, QueryStatus::kCancelled);
  EXPECT_TRUE(results[1].ids.empty());
  EXPECT_EQ(results[2].status, QueryStatus::kCancelled);
  EXPECT_EQ(stats.threads, 1u);
  EXPECT_EQ(stats.queries_ok, 1u);
  EXPECT_EQ(stats.queries_failed, 2u);
}

// Under injected shard faults a Snapshot query is exactly the store-level
// query: every shard sub-query runs to its own stop point (no serial
// short-cut after the first failure), so ids and IoStats match whichever
// runner dispatched them.
TEST(RunInlineTest, SnapshotMatchesStoreUnderShardFaults) {
  ShardedFlatStore::Options options;
  options.num_shards = 3;
  ShardedFlatStore built =
      ShardedFlatStore::Build(RandomEntries(9000, /*seed=*/95), options);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flat_store_executor_faults";
  std::filesystem::remove_all(dir);
  built.Save(dir.string());

  FaultSchedule schedule;
  for (PageId page = 0; page < 48; page += 3) {
    schedule.FailRead(page, /*times=*/1000000);
  }
  DiskPageFile::Options disk_options;
  disk_options.async_prefetch = false;
  disk_options.max_read_retries = 1;
  disk_options.retry_backoff_micros = 0;
  disk_options.fault_schedule = &schedule;
  {
    ShardedFlatStore faulty = ShardedFlatStore::Load(
        dir.string(), /*num_threads=*/2, ShardedFlatStore::LoadBackend::kDisk,
        &disk_options);
    const ShardedFlatStore::Snapshot snapshot = faulty.PinSnapshot();
    const Aabb universe(Vec3(-10, -10, -10), Vec3(110, 110, 110));
    const std::vector<QueryResult> batched =
        faulty.RunBatch({Query::Range(universe)});
    EXPECT_EQ(batched[0].status, QueryStatus::kIoError);
    EXPECT_GT(batched[0].io.IoErrors(), 0u);
    // The id entry points drop the status; ids and IoStats must match.
    for (const QueryResult& r : {RunThrough(faulty, Query::Range(universe)),
                                 RunThrough(snapshot, Query::Range(universe))}) {
      EXPECT_EQ(r.ids, batched[0].ids);
      EXPECT_TRUE(r.io == batched[0].io);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace flat

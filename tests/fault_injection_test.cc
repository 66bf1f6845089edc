// The fail-soft execution contract (deadlines, cancellation, I/O budgets,
// injected faults): every query ends in a typed QueryStatus — bit-identical
// results for kOk, a valid partial result otherwise — and never a crash or
// an escaped exception. Fault schedules are deterministic, so each test's
// retry/error accounting is exact, not statistical.
#include "storage/fault_injection.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/flat_index.h"
#include "core/metadata.h"
#include "core/query_control.h"
#include "engine/query_engine.h"
#include "shard/sharded_flat_store.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/persistence.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::RandomEntries;
using testing::RandomQueries;

std::vector<uint64_t> CategoryCounts(const IoStats& stats) {
  std::vector<uint64_t> counts(kNumPageCategories);
  for (int c = 0; c < kNumPageCategories; ++c) {
    counts[c] = stats.ReadsIn(static_cast<PageCategory>(c));
  }
  return counts;
}

TEST(FaultScheduleTest, AttemptsAreConsumedDeterministically) {
  FaultSchedule schedule;
  schedule.Add({.page = 7, .attempt = 2, .kind = FaultKind::kEintr});
  schedule.FailRead(/*page=*/9, /*times=*/2);
  EXPECT_EQ(schedule.scheduled(), 3u);

  // Page 7: clean, EINTR, clean.
  EXPECT_EQ(schedule.Next(7).kind, FaultKind::kNone);
  EXPECT_EQ(schedule.Next(7).kind, FaultKind::kEintr);
  EXPECT_EQ(schedule.Next(7).kind, FaultKind::kNone);
  // Page 9: two errors, then clean. Unscheduled pages are always clean.
  EXPECT_EQ(schedule.Next(9).kind, FaultKind::kError);
  EXPECT_EQ(schedule.Next(9).kind, FaultKind::kError);
  EXPECT_EQ(schedule.Next(9).kind, FaultKind::kNone);
  EXPECT_EQ(schedule.Next(1234).kind, FaultKind::kNone);

  EXPECT_EQ(schedule.fired(FaultKind::kEintr), 1u);
  EXPECT_EQ(schedule.fired(FaultKind::kError), 2u);
  EXPECT_EQ(schedule.faults_fired(), 3u);

  // Reset rewinds the attempt counters: the same faults fire again.
  schedule.Reset();
  EXPECT_EQ(schedule.faults_fired(), 0u);
  EXPECT_EQ(schedule.Next(7).kind, FaultKind::kNone);
  EXPECT_EQ(schedule.Next(7).kind, FaultKind::kEintr);
}

TEST(QueryGroupTest, FirstFailureWinsAndCancels) {
  QueryGroup group;
  EXPECT_FALSE(group.cancelled());
  EXPECT_EQ(group.status(), QueryStatus::kOk);

  group.SignalFailure(QueryStatus::kIoError);
  EXPECT_TRUE(group.cancelled());
  EXPECT_EQ(group.status(), QueryStatus::kIoError);

  // A later (e.g. sibling's kCancelled) signal must not mask the cause.
  group.SignalFailure(QueryStatus::kCancelled);
  EXPECT_EQ(group.status(), QueryStatus::kIoError);

  // ThrowIfStopped observes the group as a cancellation.
  QueryControl control;
  control.group = &group;
  try {
    ThrowIfStopped(control, nullptr);
    FAIL() << "expected QueryAbort";
  } catch (const QueryAbort& abort) {
    EXPECT_EQ(abort.status(), QueryStatus::kCancelled);
  }
}

// Shared fixture: one FLAT index over a PageFile, queried through a
// FaultInjectingPageStore wrapper and/or with QueryControls attached.
class FailSoftTest : public ::testing::Test {
 protected:
  void SetUp() override {
    entries_ = RandomEntries(20000, /*seed=*/31);
    index_ = FlatIndex::Build(&file_, entries_);
  }

  // Serial reference with a fresh cold BufferPool, no control, no faults.
  QueryResult RunReference(const Query& q) const {
    QueryResult r;
    BufferPool pool(&file_, &r.io);
    DispatchQuery({&index_, q}, &pool, &r);
    return r;
  }

  PageFile file_;
  std::vector<RTreeEntry> entries_;
  FlatIndex index_;
  // Covers every entry RandomEntries can produce ([0,100]^3 centers with
  // small half-extents): the universe query crawls the entire index.
  const Aabb universe_ = Aabb(Vec3(-10, -10, -10), Vec3(110, 110, 110));
};

// An empty (or null) schedule makes the wrapper fully transparent: ids and
// per-category IoStats bit-identical to querying the inner store directly.
TEST_F(FailSoftTest, EmptyScheduleWrapperIsTransparent) {
  FaultSchedule empty;
  FaultInjectingPageStore wrapped(&file_, &empty);
  FlatIndex through = FlatIndex::Attach(&wrapped, index_.descriptor());

  for (const Aabb& box : RandomQueries(12, /*seed=*/41)) {
    const QueryResult expected = RunReference(Query::Range(box));
    QueryResult got;
    BufferPool pool(&wrapped, &got.io);
    DispatchQuery({&through, Query::Range(box)}, &pool, &got);
    EXPECT_EQ(got.status, QueryStatus::kOk);
    EXPECT_EQ(got.ids, expected.ids);
    EXPECT_EQ(CategoryCounts(got.io), CategoryCounts(expected.io));
  }
  EXPECT_EQ(wrapped.read_retries(), 0u);
  EXPECT_EQ(wrapped.read_errors(), 0u);
}

// Transient faults within the retry budget recover to an exact kOk result,
// and the batch's merged IoRetries equals the schedule's fired count — the
// buffer pools attribute each retry to the query whose miss burned it.
TEST_F(FailSoftTest, TransientFaultsRecoverWithExactRetryAccounting) {
  FaultSchedule schedule;
  schedule.Add({.page = 0, .attempt = 1, .kind = FaultKind::kEintr});
  schedule.Add({.page = 1, .attempt = 1, .kind = FaultKind::kEintr});
  schedule.FailRead(/*page=*/2, /*times=*/2);  // within the budget of 4
  FaultInjectingPageStore wrapped(&file_, &schedule);
  FlatIndex through = FlatIndex::Attach(&wrapped, index_.descriptor());

  std::vector<Query> batch;
  batch.push_back(Query::Range(universe_));  // touches every page
  for (const Aabb& box : RandomQueries(7, /*seed=*/43)) {
    batch.push_back(Query::Range(box));
  }

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    schedule.Reset();
    QueryEngine::Options options;
    options.threads = threads;
    QueryEngine engine(&through, options);
    BatchStats stats;
    const std::vector<QueryResult> results = engine.Run(batch, &stats);

    uint64_t merged_retries = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].status, QueryStatus::kOk) << "query " << i;
      EXPECT_EQ(results[i].ids, RunReference(batch[i]).ids) << "query " << i;
      merged_retries += results[i].io.IoRetries();
    }
    EXPECT_EQ(stats.queries_ok, batch.size());
    EXPECT_EQ(stats.queries_failed, 0u);
    // 2 EINTR + 2 recovered errors, fired exactly once each per pass
    // (attempt counters are per page, not per query).
    EXPECT_EQ(merged_retries, 4u);
    EXPECT_EQ(stats.io.IoRetries(), 4u);
    EXPECT_EQ(stats.io.IoErrors(), 0u);
  }
}

// A fault outliving the retry budget becomes a kIoError result — a typed
// outcome with the exception text attached, never an escaped exception.
TEST_F(FailSoftTest, PermanentFaultYieldsTypedIoErrorResult) {
  FaultSchedule schedule;
  // The seed root is read by every range query; fail it forever.
  schedule.FailRead(index_.descriptor().seed_root, /*times=*/1000000);
  FaultInjectingPageStore::Options wrapper_options;
  wrapper_options.max_read_retries = 2;
  FaultInjectingPageStore wrapped(&file_, &schedule, wrapper_options);
  FlatIndex through = FlatIndex::Attach(&wrapped, index_.descriptor());

  QueryEngine engine(&through, QueryEngine::Options{.threads = 1});
  BatchStats stats;
  const std::vector<QueryResult> results =
      engine.Run({Query::Range(universe_)}, &stats);

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, QueryStatus::kIoError);
  EXPECT_FALSE(results[0].ok());
  EXPECT_FALSE(results[0].error.empty());
  EXPECT_EQ(results[0].count, results[0].ids.size());
  EXPECT_EQ(results[0].io.IoErrors(), 1u);
  EXPECT_EQ(stats.queries_failed, 1u);
  EXPECT_EQ(wrapped.read_errors(), 1u);
  EXPECT_EQ(wrapped.read_retries(), 2u);  // the budget, then the throw
}

// An already-expired deadline stops the query at its first cancellation
// point: kDeadlineExceeded, empty result.
TEST_F(FailSoftTest, ExpiredDeadlineStopsImmediately) {
  QueryControl control;
  control.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  Query query = Query::Range(universe_);
  query.control = &control;

  QueryEngine engine(&index_, QueryEngine::Options{.threads = 1});
  const std::vector<QueryResult> results = engine.Run({query});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, QueryStatus::kDeadlineExceeded);
  EXPECT_TRUE(results[0].ids.empty());
  EXPECT_EQ(results[0].count, 0u);
  // The deadline fires before the crawl frontier is processed: at most the
  // root read has been charged.
  EXPECT_LE(results[0].io.TotalReads(), 1u);
}

// A generous deadline plus a huge budget changes nothing: bit-identical to
// running without a control, at 1 and 4 threads.
TEST_F(FailSoftTest, GenerousControlIsBitIdentical) {
  QueryControl control = QueryControl::WithTimeout(std::chrono::hours(1));
  control.max_page_reads = 1u << 30;

  std::vector<Query> batch;
  for (const Aabb& box : RandomQueries(10, /*seed=*/47)) {
    batch.push_back(Query::Range(box));
    batch.back().control = &control;
  }

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    QueryEngine engine(&index_, QueryEngine::Options{.threads = threads});
    const std::vector<QueryResult> results = engine.Run(batch);
    for (size_t i = 0; i < results.size(); ++i) {
      Query bare = batch[i];
      bare.control = nullptr;
      const QueryResult expected = RunReference(bare);
      EXPECT_EQ(results[i].status, QueryStatus::kOk) << "query " << i;
      EXPECT_EQ(results[i].ids, expected.ids) << "query " << i;
      EXPECT_EQ(CategoryCounts(results[i].io), CategoryCounts(expected.io))
          << "query " << i;
    }
  }
}

// A pre-set external cancel token yields kCancelled before any real work.
TEST_F(FailSoftTest, PreCancelledTokenYieldsCancelled) {
  std::atomic<bool> cancel{true};
  QueryControl control;
  control.cancel = &cancel;
  Query query = Query::RangeCount(universe_);
  query.control = &control;

  QueryEngine engine(&index_, QueryEngine::Options{.threads = 1});
  const std::vector<QueryResult> results = engine.Run({query});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, QueryStatus::kCancelled);
  // Partial kRangeCount keeps the tally accumulated so far; a pre-set
  // token trips the first cancellation point before anything is counted.
  EXPECT_EQ(results[0].count, 0u);
}

// Cancellation arriving mid-batch from another thread: every query ends in
// kOk (bit-identical) or kCancelled (valid partial), nothing crashes, and
// the engine returns promptly.
TEST_F(FailSoftTest, MidBatchCancellationIsCleanAtEveryThreadCount) {
  std::atomic<bool> cancel{false};
  QueryControl control;
  control.cancel = &cancel;

  std::vector<Query> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(Query::Range(universe_));  // heavy: full crawl each
    batch.back().control = &control;
  }

  QueryEngine engine(&index_, QueryEngine::Options{.threads = 4});
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cancel.store(true, std::memory_order_release);
  });
  const std::vector<QueryResult> results = engine.Run(batch);
  canceller.join();

  const QueryResult expected = RunReference(Query::Range(universe_));
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].status == QueryStatus::kOk) {
      EXPECT_EQ(results[i].ids, expected.ids) << "query " << i;
    } else {
      EXPECT_EQ(results[i].status, QueryStatus::kCancelled) << "query " << i;
      EXPECT_EQ(results[i].count, results[i].ids.size()) << "query " << i;
      EXPECT_LE(results[i].ids.size(), expected.ids.size()) << "query " << i;
    }
  }
}

// An I/O budget bounds the page reads: a tiny budget stops the crawl with
// kBudgetExceeded close to the limit; a huge one changes nothing.
TEST_F(FailSoftTest, IoBudgetBoundsPageReads) {
  const QueryResult expected = RunReference(Query::Range(universe_));
  const uint64_t full_reads = expected.io.TotalReads();
  ASSERT_GT(full_reads, 16u) << "universe query must be I/O heavy";

  QueryControl small;
  small.max_page_reads = 8;
  Query query = Query::Range(universe_);
  query.control = &small;

  QueryEngine engine(&index_, QueryEngine::Options{.threads = 1});
  const std::vector<QueryResult> capped = engine.Run({query});
  ASSERT_EQ(capped.size(), 1u);
  EXPECT_EQ(capped[0].status, QueryStatus::kBudgetExceeded);
  // The budget is checked once per frontier pop / record probe, each of
  // which reads a bounded handful of pages: small overshoot allowed.
  EXPECT_LE(capped[0].io.TotalReads(), 8u + 4u);
  EXPECT_LT(capped[0].io.TotalReads(), full_reads);

  QueryControl huge;
  huge.max_page_reads = full_reads * 10;
  query.control = &huge;
  const std::vector<QueryResult> uncapped = engine.Run({query});
  EXPECT_EQ(uncapped[0].status, QueryStatus::kOk);
  EXPECT_EQ(uncapped[0].ids, expected.ids);
}

// The controls compose with every query type (range, count, seed-scan,
// sphere): an already-expired deadline is a typed stop at the very first
// cancellation point, so even the kept partial tallies are still zero.
TEST_F(FailSoftTest, ControlsApplyToEveryQueryType) {
  QueryControl expired;
  expired.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  const Vec3 center = universe_.Center();

  std::vector<Query> batch = {
      Query::Range(universe_),
      Query::RangeCount(universe_),
      Query::RangeSeedScan(universe_),
      Query::Sphere(center, universe_.Extents().x),
  };
  for (Query& q : batch) q.control = &expired;

  QueryEngine engine(&index_, QueryEngine::Options{.threads = 2});
  const std::vector<QueryResult> results = engine.Run(batch);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, QueryStatus::kDeadlineExceeded)
        << "query " << i;
    EXPECT_EQ(results[i].count, 0u) << "query " << i;
  }
}

// Randomized-but-seeded fault schedules, oracle-checked at 1 and 4 threads:
// every query must end kOk with bit-identical ids or carry a typed failure
// status — and the process must survive every schedule.
TEST_F(FailSoftTest, SeededFaultSchedulesAreOracleChecked) {
  std::vector<Query> batch;
  for (const Aabb& box : RandomQueries(16, /*seed=*/53)) {
    batch.push_back(Query::Range(box));
  }
  std::vector<QueryResult> reference;
  for (const Query& q : batch) reference.push_back(RunReference(q));

  std::mt19937_64 rng(12345);
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    FaultSchedule schedule;
    const size_t faults = 4 + rng() % 12;
    for (size_t f = 0; f < faults; ++f) {
      FaultSpec spec;
      spec.page = static_cast<PageId>(rng() % file_.page_count());
      spec.attempt = 1 + rng() % 3;
      switch (rng() % 4) {
        case 0: spec.kind = FaultKind::kEintr; break;
        case 1: spec.kind = FaultKind::kShortRead; break;
        case 2: spec.kind = FaultKind::kLatency; spec.latency_micros = 10;
                break;
        default: spec.kind = FaultKind::kError; break;
      }
      schedule.Add(spec);
    }
    FaultInjectingPageStore::Options wrapper_options;
    wrapper_options.max_read_retries = 1;  // permanent faults stay reachable
    FaultInjectingPageStore wrapped(&file_, &schedule, wrapper_options);
    FlatIndex through = FlatIndex::Attach(&wrapped, index_.descriptor());

    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      schedule.Reset();
      QueryEngine::Options options;
      options.threads = threads;
      QueryEngine engine(&through, options);
      const std::vector<QueryResult> results = engine.Run(batch);
      ASSERT_EQ(results.size(), batch.size());
      for (size_t i = 0; i < results.size(); ++i) {
        if (results[i].status == QueryStatus::kOk) {
          EXPECT_EQ(results[i].ids, reference[i].ids) << "query " << i;
        } else {
          EXPECT_EQ(results[i].status, QueryStatus::kIoError) << "query " << i;
          EXPECT_FALSE(results[i].error.empty()) << "query " << i;
        }
      }
    }
  }
}

// Admission control sheds the batch tail as kRejected with zero I/O while
// the admitted head stays bit-identical.
TEST_F(FailSoftTest, AdmissionControlShedsBatchTail) {
  std::vector<Query> batch;
  for (const Aabb& box : RandomQueries(10, /*seed=*/59)) {
    batch.push_back(Query::Range(box));
  }

  QueryEngine::Options options;
  options.threads = 2;
  options.max_queued_queries = 4;
  QueryEngine engine(&index_, options);
  BatchStats stats;
  const std::vector<QueryResult> results = engine.Run(batch, &stats);

  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(results[i].status, QueryStatus::kOk) << "query " << i;
    EXPECT_EQ(results[i].ids, RunReference(batch[i]).ids) << "query " << i;
  }
  for (size_t i = 4; i < batch.size(); ++i) {
    EXPECT_EQ(results[i].status, QueryStatus::kRejected) << "query " << i;
    EXPECT_TRUE(results[i].ids.empty()) << "query " << i;
    EXPECT_EQ(results[i].io.TotalReads(), 0u) << "query " << i;
  }
  EXPECT_EQ(stats.queries_ok, 4u);
  EXPECT_EQ(stats.queries_shed, 6u);
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_EQ(stats.io.QueriesShed(), 6u);
}

// Group cancellation across a scattered store: one query's expired deadline
// fails every one of its sub-queries, while an uncontrolled query in the
// same batch is answered bit-identically.
TEST(ShardedFailSoftTest, BatchMixesControlledAndUncontrolledQueries) {
  auto entries = RandomEntries(20000, /*seed=*/61);
  const Aabb universe(Vec3(-10, -10, -10), Vec3(110, 110, 110));

  ShardedFlatStore::Options options;
  options.num_shards = 4;
  options.num_threads = 2;
  ShardedFlatStore store = ShardedFlatStore::Build(std::move(entries), options);

  QueryControl expired;
  expired.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);

  std::vector<Query> batch;
  batch.push_back(Query::Range(universe));  // uncontrolled
  batch.push_back(Query::Range(universe));
  batch.back().control = &expired;

  BatchStats stats;
  const std::vector<QueryResult> results = store.RunBatch(batch, &stats);
  ASSERT_EQ(results.size(), 2u);

  const std::vector<uint64_t> expected = store.RangeQuery(universe);
  EXPECT_EQ(results[0].status, QueryStatus::kOk);
  EXPECT_EQ(results[0].ids, expected);
  EXPECT_EQ(results[1].status, QueryStatus::kDeadlineExceeded);
  EXPECT_TRUE(results[1].ids.empty());
  EXPECT_EQ(stats.queries_ok, 1u);
  EXPECT_EQ(stats.queries_failed, 1u);
}

// A stop during an overlayed sub-query's base pass must still mask the ids
// the overlay erased: every partial is a subset of the snapshot's exact
// answer, and a partial count never exceeds the exact count.
TEST(ShardedFailSoftTest, OverlayedPartialsNeverKeepErasedIds) {
  auto entries = RandomEntries(6000, /*seed=*/79);
  const Aabb universe(Vec3(-10, -10, -10), Vec3(110, 110, 110));

  ShardedFlatStore::Options options;
  options.num_shards = 1;
  options.num_threads = 2;
  ShardedFlatStore store = ShardedFlatStore::Build(std::move(entries), options);
  for (uint64_t id = 0; id < 6000; id += 2) store.Erase(id);

  const std::vector<Query> exact_batch = {
      Query::Range(universe), Query::RangeCount(universe),
      Query::RangeSeedScan(universe), Query::Sphere(Vec3(50, 50, 50), 100.0)};
  std::vector<QueryResult> exact = store.RunBatch(exact_batch);
  for (QueryResult& r : exact) {
    ASSERT_EQ(r.status, QueryStatus::kOk);
    std::sort(r.ids.begin(), r.ids.end());
  }
  ASSERT_EQ(exact[1].count, 3000u);

  uint64_t partials = 0;
  for (uint64_t budget = 4; budget <= 64; budget += 4) {
    QueryControl control;
    control.max_page_reads = budget;
    std::vector<Query> batch = exact_batch;
    for (Query& q : batch) q.control = &control;
    std::vector<QueryResult> results = store.RunBatch(batch);
    ASSERT_EQ(results.size(), exact.size());
    for (size_t i = 0; i < results.size(); ++i) {
      SCOPED_TRACE("budget " + std::to_string(budget) + ", query " +
                   std::to_string(i));
      QueryResult& r = results[i];
      if (r.status != QueryStatus::kOk) ++partials;
      EXPECT_LE(r.count, exact[i].count);
      std::sort(r.ids.begin(), r.ids.end());
      EXPECT_TRUE(std::includes(exact[i].ids.begin(), exact[i].ids.end(),
                                r.ids.begin(), r.ids.end()));
    }
  }
  EXPECT_GT(partials, 0u);
}

// A loaded sharded store wired with a fault schedule: unrecoverable shard
// reads surface as kIoError batch results (scatter-gather propagates the
// failing shard's status), never as an exception or a torn merge — and the
// same store reloaded without faults answers bit-identically to memory.
TEST(ShardedFailSoftTest, LoadedStoreSurvivesInjectedShardFaults) {
  auto entries = RandomEntries(12000, /*seed=*/67);
  const Aabb universe(Vec3(-10, -10, -10), Vec3(110, 110, 110));

  ShardedFlatStore::Options options;
  options.num_shards = 3;
  options.num_threads = 2;
  ShardedFlatStore built = ShardedFlatStore::Build(std::move(entries), options);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flat_fault_injection_store";
  std::filesystem::remove_all(dir);
  built.Save(dir.string());

  const std::vector<uint64_t> expected = built.RangeQuery(universe);

  {
    // Clean reload through DiskPageFile with explicit (default) options.
    DiskPageFile::Options disk_options;
    ShardedFlatStore reloaded = ShardedFlatStore::Load(
        dir.string(), /*num_threads=*/2, &disk_options);
    EXPECT_EQ(reloaded.RangeQuery(universe), expected);
  }

  {
    // The first pages of every shard fail beyond any retry budget. A
    // universe query crawls the entire store, so it must hit a failing page
    // in some shard and the merged result must be kIoError.
    FaultSchedule schedule;
    for (PageId page = 0; page < 64; ++page) {
      schedule.FailRead(page, /*times=*/1000000);
    }
    DiskPageFile::Options disk_options;
    disk_options.max_read_retries = 1;
    disk_options.retry_backoff_micros = 0;
    disk_options.fault_schedule = &schedule;
    ShardedFlatStore faulty = ShardedFlatStore::Load(
        dir.string(), /*num_threads=*/2, &disk_options);

    BatchStats stats;
    const std::vector<QueryResult> results =
        faulty.RunBatch({Query::Range(universe)}, &stats);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, QueryStatus::kIoError);
    EXPECT_FALSE(results[0].error.empty());
    EXPECT_EQ(stats.queries_failed, 1u);
    EXPECT_GT(stats.io.IoErrors(), 0u);
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// A corrupt page pointer in a loaded shard file — a seed-leaf record's
// object page, or the page bits of one of its neighbor refs, aimed past the
// end of the file — must come back as the query's kIoError naming the page,
// with a partial result that is a subset of the clean answer. Neither the
// category table nor the page mapping may be indexed with it.
TEST(ShardedFailSoftTest, CorruptPagePointerYieldsIoError) {
  ShardedFlatStore::Options options;
  options.num_shards = 1;
  const ShardedFlatStore built =
      ShardedFlatStore::Build(RandomEntries(6000, /*seed=*/68), options);
  const Aabb universe(Vec3(-10, -10, -10), Vec3(110, 110, 110));
  const std::vector<uint64_t> clean = built.RangeQuery(universe);

  // The first record of the first seed leaf, and where it sits in the saved
  // shard file: magic, page size and count, one category byte per page,
  // then the pages (docs/file_format.md §1.1).
  const PageStore& file = built.shard_file(0);
  PageId leaf = 0;
  while (file.category(leaf) != PageCategory::kSeedLeaf) ++leaf;
  uint16_t record_offset;
  std::memcpy(&record_offset, file.Data(leaf) + kSeedLeafHeaderSize,
              sizeof(record_offset));
  const MetadataRecordView record(file.Data(leaf) + record_offset);
  ASSERT_GT(record.neighbor_count(), 0u);
  const uint64_t record_in_file = kPageFileMagicSize + 8 + file.page_count() +
                                  uint64_t{leaf} * file.page_size() +
                                  record_offset;

  struct Patch {
    const char* what;
    uint64_t offset;
    uint32_t value;
    PageId page;  // the page the patched pointer now names
  };
  const PageId far_object = 0x7FFFFFF0;
  const PageId far_leaf = kMaxSeedLeafPages - 1;
  const Patch patches[] = {
      {"object page", record_in_file + 2 * sizeof(PackedAabb), far_object,
       far_object},
      {"neighbor ref", record_in_file + kRecordFixedSize,
       PackNeighborRef({far_leaf, record.NeighborAt(0).slot}), far_leaf},
  };

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flat_fault_corrupt_pointer";
  for (const Patch& patch : patches) {
    SCOPED_TRACE(patch.what);
    std::filesystem::remove_all(dir);
    built.Save(dir.string());
    {
      std::fstream shard(dir / built.catalog().shards[0].page_file_name,
                         std::ios::in | std::ios::out | std::ios::binary);
      shard.seekp(static_cast<std::streamoff>(patch.offset));
      shard.write(reinterpret_cast<const char*>(&patch.value),
                  sizeof(patch.value));
      ASSERT_TRUE(shard.good());
    }

    const ShardedFlatStore loaded =
        ShardedFlatStore::Load(dir.string(), /*num_threads=*/2);
    BatchStats stats;
    const std::vector<QueryResult> results =
        loaded.RunBatch({Query::Range(universe)}, &stats);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, QueryStatus::kIoError);
    EXPECT_NE(results[0].error.find("page " + std::to_string(patch.page)),
              std::string::npos)
        << results[0].error;
    const std::vector<uint64_t> partial = testing::Sorted(results[0].ids);
    EXPECT_TRUE(std::includes(clean.begin(), clean.end(), partial.begin(),
                              partial.end()));
    EXPECT_EQ(stats.queries_failed, 1u);
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace flat

// Oracle-differential tests for the delta overlay (dynamic FLAT): randomized
// insert/delete/query/compact schedules against a brute-force mirror,
// bit-identical across data generators, shard counts and thread counts; the
// overlay's upsert/delete semantics; overlay-only stores; and the overlay
// probe accounting contract (deterministic, separate from page reads).
#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "data/mesh_generator.h"
#include "data/neuron_generator.h"
#include "data/uniform_generator.h"
#include "shard/sharded_flat_store.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::ApplySchedule;
using testing::MakeSchedule;
using testing::OracleMirror;
using testing::ReplaySchedule;
using testing::ScheduleConfig;
using testing::ScheduleStep;

// Small enough to keep Debug/TSan runtimes reasonable across the 12-config
// matrix while still spanning multiple pages per shard.
constexpr size_t kInitialElements = 5000;
constexpr uint64_t kIdSpace = 6000;

Dataset MakeDataset(const std::string& kind) {
  if (kind == "neuron") {
    NeuronParams params;
    params.total_elements = kInitialElements;
    return GenerateNeurons(params);
  }
  if (kind == "mesh") {
    MeshParams params;
    params.target_triangles = kInitialElements;
    return GenerateMesh(params);
  }
  UniformBoxParams params;
  params.count = kInitialElements;
  return GenerateUniformBoxes(params);
}

// (generator, shard count, thread count) — the repo's standard identity
// matrix: 3 generators x K in {1,5} x threads in {1,4}.
using OverlayConfig = std::tuple<std::string, size_t, size_t>;

class DeltaOverlayScheduleTest
    : public ::testing::TestWithParam<OverlayConfig> {};

// The tentpole fuzz: one store per config evolves through many seeded
// schedule rounds (inserts, erases, all query types, compactions), each
// round cross-checked against the lockstep oracle mirror. Together with the
// INSTANTIATE matrix below this executes >= 85 * 12 > 1000 distinct seeded
// schedules in CI. On divergence the harness reports the seed and replays
// the full history single-threaded (see ReplaySchedule) to classify the
// failure.
TEST_P(DeltaOverlayScheduleTest, FuzzMatchesOracle) {
  const auto& [kind, shards, threads] = GetParam();
  Dataset dataset = MakeDataset(kind);

  ShardedFlatStore::Options options;
  options.num_shards = shards;
  options.num_threads = threads;

  ScheduleConfig config;
  config.initial = dataset.elements;
  config.options = options;

  ShardedFlatStore store = ShardedFlatStore::Build(dataset.elements, options);
  OracleMirror mirror(config.initial);

  constexpr size_t kRounds = 85;
  constexpr size_t kStepsPerRound = 40;
  std::vector<ScheduleStep> history;
  for (size_t round = 0; round < kRounds; ++round) {
    const uint64_t seed = 1000 * (shards * 10 + threads) + round;
    const std::vector<ScheduleStep> schedule =
        MakeSchedule(kStepsPerRound, seed, kIdSpace, dataset.bounds);
    history.insert(history.end(), schedule.begin(), schedule.end());
    const ::testing::AssertionResult result = ApplySchedule(
        &store, &mirror, schedule, seed,
        kind + " shards=" + std::to_string(shards) +
            " threads=" + std::to_string(threads) +
            " round=" + std::to_string(round));
    if (!result) {
      // Reclassify before failing: rebuild from scratch and replay the whole
      // history on one thread.
      config.seed = seed;
      ASSERT_TRUE(result) << "full-history single-threaded replay: "
                          << [&] {
                               ScheduleConfig serial = config;
                               serial.options.num_threads = 1;
                               const ::testing::AssertionResult replay =
                                   ReplaySchedule(serial, history);
                               return replay
                                          ? std::string("PASSES (concurrency-"
                                                        "dependent)")
                                          : std::string(replay.message());
                             }();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, DeltaOverlayScheduleTest,
    ::testing::Combine(::testing::Values("neuron", "mesh", "uniform"),
                       ::testing::Values(size_t{1}, size_t{5}),
                       ::testing::Values(size_t{1}, size_t{4})),
    [](const ::testing::TestParamInfo<OverlayConfig>& info) {
      return std::get<0>(info.param) + "_K" +
             std::to_string(std::get<1>(info.param)) + "_T" +
             std::to_string(std::get<2>(info.param));
    });

// The same schedule must produce bit-identical query results whatever the
// thread count and whatever the shard count — the dynamic extension of the
// store's standing identity contract.
TEST(DeltaOverlayIdentityTest, ScheduleResultsIdenticalAcrossConfigs) {
  Dataset dataset = MakeDataset("uniform");
  const std::vector<ScheduleStep> schedule =
      MakeSchedule(300, /*seed=*/77, kIdSpace, dataset.bounds);
  for (const size_t shards : {size_t{1}, size_t{5}}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      ScheduleConfig config;
      config.initial = dataset.elements;
      config.options.num_shards = shards;
      config.options.num_threads = threads;
      config.seed = 77;
      EXPECT_TRUE(ReplaySchedule(config, schedule))
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

// Store-level entry points and a pinned Snapshot at the same epoch must
// return identical ids AND identical IoStats (page reads per category plus
// overlay probes) — the engine's threaded runner and the snapshot's inline
// runner execute the same scatter/dispatch/gather, and this pins it.
TEST(DeltaOverlayIdentityTest, EngineAndSnapshotPathsAgree) {
  Dataset dataset = MakeDataset("neuron");
  ShardedFlatStore::Options options;
  options.num_shards = 5;
  options.num_threads = 4;
  ShardedFlatStore store = ShardedFlatStore::Build(dataset.elements, options);

  // Mutate: some fresh ids, some upserts, some deletes.
  Rng rng(123);
  for (int i = 0; i < 400; ++i) {
    const Vec3 center = rng.PointIn(dataset.bounds);
    store.Insert(RTreeEntry{
        Aabb::FromCenterHalfExtents(center, dataset.bounds.Extents() * 0.005),
        static_cast<uint64_t>(rng.UniformInt(0, 2 * kIdSpace))});
  }
  for (int i = 0; i < 150; ++i) {
    store.Erase(static_cast<uint64_t>(rng.UniformInt(0, 2 * kIdSpace)));
  }

  const ShardedFlatStore::Snapshot snapshot = store.PinSnapshot();
  ASSERT_EQ(snapshot.epoch(), store.epoch());
  EXPECT_GT(snapshot.overlay_live_count(), 0u);

  // Dataset-sized query boxes (the canned [0,100]^3 helpers don't fit
  // arbitrary generator bounds), plus a box covering everything.
  std::vector<Aabb> queries;
  for (int i = 0; i < 25; ++i) {
    const double frac = rng.Uniform(0.02, 0.4);
    queries.push_back(Aabb::FromCenterHalfExtents(
        rng.PointIn(dataset.bounds), dataset.bounds.Extents() * (frac / 2)));
  }
  queries.push_back(Aabb(Vec3(-1e18, -1e18, -1e18), Vec3(1e18, 1e18, 1e18)));

  for (const Aabb& query : queries) {
    IoStats store_io, snapshot_io;
    const std::vector<uint64_t> via_store = store.RangeQuery(query, &store_io);
    const std::vector<uint64_t> via_snapshot =
        snapshot.RangeQuery(query, &snapshot_io);
    EXPECT_EQ(via_store, via_snapshot);
    for (int c = 0; c < kNumPageCategories; ++c) {
      EXPECT_EQ(store_io.ReadsIn(static_cast<PageCategory>(c)),
                snapshot_io.ReadsIn(static_cast<PageCategory>(c)));
    }
    EXPECT_EQ(store_io.OverlayProbes(), snapshot_io.OverlayProbes());

    IoStats count_io;
    EXPECT_EQ(store.RangeCount(query, &count_io), via_store.size());
    EXPECT_EQ(store.SphereQuery(query.Center(), query.Extents().Norm() / 2),
              snapshot.SphereQuery(query.Center(), query.Extents().Norm() / 2));
  }

  // The all-covering query scans every overlay bucket, so its probe count is
  // exactly the snapshot's live overlay population.
  IoStats everything_io;
  snapshot.RangeQuery(queries.back(), &everything_io);
  EXPECT_EQ(everything_io.OverlayProbes(), snapshot.overlay_live_count());
}

// A store that was never bulkloaded still answers queries — purely from the
// overlay's spill bucket, serially, with zero page reads — and compacts into
// a real bulkloaded store.
TEST(DeltaOverlayTest, OverlayOnlyStore) {
  ShardedFlatStore store;
  EXPECT_EQ(store.shard_count(), 0u);
  EXPECT_EQ(store.generation(), 0u);

  const std::vector<RTreeEntry> entries = testing::RandomEntries(500, 9);
  for (const RTreeEntry& e : entries) store.Insert(e);
  EXPECT_EQ(store.epoch(), 500u);

  for (const Aabb& query : testing::RandomQueries(10, 10)) {
    IoStats io;
    EXPECT_EQ(store.RangeQuery(query, &io), testing::BruteForce(entries, query));
    EXPECT_EQ(io.TotalReads(), 0u);  // nothing lives on pages yet
    EXPECT_EQ(io.OverlayProbes(), 500u);
    EXPECT_EQ(store.RangeCount(query), testing::BruteForce(entries, query).size());
  }

  const ShardedFlatStore::CompactionStats cstats = store.Compact();
  EXPECT_EQ(cstats.folded_ops, 500u);
  EXPECT_EQ(cstats.inserted, 500u);
  EXPECT_EQ(cstats.merged_elements, 500u);
  EXPECT_EQ(cstats.generation, 1u);
  EXPECT_GT(store.shard_count(), 0u);
  EXPECT_EQ(store.overlay_op_count(), 0u);
  for (const Aabb& query : testing::RandomQueries(10, 11)) {
    IoStats io;
    EXPECT_EQ(store.RangeQuery(query, &io), testing::BruteForce(entries, query));
    EXPECT_EQ(io.OverlayProbes(), 0u);  // overlay fully absorbed
  }
}

// Insert is an upsert: re-inserting an existing (bulkloaded) id moves it.
TEST(DeltaOverlayTest, InsertOverridesBaseElement) {
  std::vector<RTreeEntry> entries = testing::RandomEntries(1000, 5);
  ShardedFlatStore store =
      ShardedFlatStore::Build(entries, ShardedFlatStore::Options{});

  const Aabb old_box = entries[42].box;
  const Aabb new_box(Vec3(200, 200, 200), Vec3(201, 201, 201));  // far away
  store.Insert(RTreeEntry{new_box, 42});

  const std::vector<uint64_t> at_old = store.RangeQuery(old_box);
  EXPECT_EQ(std::count(at_old.begin(), at_old.end(), 42u), 0)
      << "id 42 must have moved away from its bulkloaded box";
  EXPECT_EQ(store.RangeQuery(new_box), std::vector<uint64_t>{42u});
}

// Delete hides a bulkloaded element; re-inserting it afterwards makes it
// visible at the new position only. Deleting a missing id is a no-op.
TEST(DeltaOverlayTest, DeleteThenReinsert) {
  std::vector<RTreeEntry> entries = testing::RandomEntries(1000, 6);
  ShardedFlatStore store =
      ShardedFlatStore::Build(entries, ShardedFlatStore::Options{});

  const Aabb old_box = entries[7].box;
  store.Erase(7);
  std::vector<uint64_t> got = store.RangeQuery(old_box);
  EXPECT_EQ(std::count(got.begin(), got.end(), 7u), 0);

  const uint64_t count_before = store.RangeCount(old_box);
  store.Erase(999999);  // absent id: a no-op
  EXPECT_EQ(store.RangeCount(old_box), count_before);

  const Aabb new_box(Vec3(-50, -50, -50), Vec3(-49, -49, -49));
  store.Insert(RTreeEntry{new_box, 7});
  got = store.RangeQuery(old_box);
  EXPECT_EQ(std::count(got.begin(), got.end(), 7u), 0);
  EXPECT_EQ(store.RangeQuery(new_box), std::vector<uint64_t>{7u});
}

// Overlay probes are charged per live entry gate-tested in the scanned
// buckets — deterministic, independent of thread count, and RangeCount
// probes exactly match RangeQuery's (same documented contract as page
// reads).
TEST(DeltaOverlayTest, OverlayProbeAccounting) {
  std::vector<RTreeEntry> entries = testing::RandomEntries(2000, 8);
  ShardedFlatStore::Options serial;
  serial.num_shards = 5;
  ShardedFlatStore::Options threaded = serial;
  threaded.num_threads = 4;
  ShardedFlatStore store_serial = ShardedFlatStore::Build(entries, serial);
  ShardedFlatStore store_threaded = ShardedFlatStore::Build(entries, threaded);

  const std::vector<RTreeEntry> extra =
      testing::RandomEntries(300, 17);  // ids collide with base: upserts
  for (const RTreeEntry& e : extra) {
    store_serial.Insert(e);
    store_threaded.Insert(e);
  }

  // A query covering everything scans every bucket: probes == live count.
  const Aabb everything(Vec3(-1e6, -1e6, -1e6), Vec3(1e6, 1e6, 1e6));
  IoStats io_serial, io_threaded, io_count;
  const std::vector<uint64_t> ids_serial =
      store_serial.RangeQuery(everything, &io_serial);
  const std::vector<uint64_t> ids_threaded =
      store_threaded.RangeQuery(everything, &io_threaded);
  EXPECT_EQ(ids_serial, ids_threaded);
  EXPECT_EQ(io_serial.OverlayProbes(), 300u);
  EXPECT_EQ(io_threaded.OverlayProbes(), 300u);

  EXPECT_EQ(store_serial.RangeCount(everything, &io_count), ids_serial.size());
  EXPECT_EQ(io_count.OverlayProbes(), io_serial.OverlayProbes());
  for (int c = 0; c < kNumPageCategories; ++c) {
    EXPECT_EQ(io_count.ReadsIn(static_cast<PageCategory>(c)),
              io_serial.ReadsIn(static_cast<PageCategory>(c)));
  }
}

// RunBatch pins one snapshot per batch and merges overlay results per
// query, identical to issuing the singles at the same epoch.
TEST(DeltaOverlayTest, RunBatchMatchesSingles) {
  std::vector<RTreeEntry> entries = testing::RandomEntries(3000, 13);
  ShardedFlatStore::Options options;
  options.num_shards = 5;
  options.num_threads = 4;
  ShardedFlatStore store = ShardedFlatStore::Build(entries, options);
  for (const RTreeEntry& e : testing::RandomEntries(200, 99)) store.Insert(e);
  for (uint64_t id = 0; id < 100; ++id) store.Erase(id * 7);

  const std::vector<Aabb> queries = testing::RandomQueries(12, 55);
  std::vector<Query> batch;
  for (const Aabb& q : queries) {
    batch.push_back(Query::Range(q));
    batch.push_back(Query::RangeCount(q));
    batch.push_back(Query::RangeSeedScan(q));
  }
  const std::vector<QueryResult> results = store.RunBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    IoStats io;
    const std::vector<uint64_t> want = store.RangeQuery(queries[i], &io);
    EXPECT_EQ(results[3 * i].ids, want);
    EXPECT_EQ(results[3 * i + 1].count, want.size());
    EXPECT_TRUE(results[3 * i + 1].ids.empty());
    EXPECT_EQ(results[3 * i + 2].ids, want);
    EXPECT_EQ(results[3 * i].io.OverlayProbes(), io.OverlayProbes());
  }
}

}  // namespace
}  // namespace flat

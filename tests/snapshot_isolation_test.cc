// Snapshot isolation and compaction invariants of the dynamic store:
// pinned-epoch queries racing writers and compaction (no torn reads, no
// phantom deletes), the compaction byte-identity invariant (the compacted
// store's shard PageFiles are byte-identical to a fresh bulkload of the
// merged data), and overlay WAL persistence. The concurrency cases here run
// under ThreadSanitizer in CI.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "shard/sharded_flat_store.h"
#include "storage/persistence.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::OracleMirror;
using testing::RandomEntries;
using testing::RandomQueries;

// One pre-generated overlay op for the concurrency oracles: the writer
// thread applies them in order, so the store's epoch e corresponds exactly
// to the prefix ops[0, e).
struct Op {
  bool is_erase = false;
  RTreeEntry entry;  // insert payload; entry.id doubles as the erase target
};

std::vector<Op> MakeOps(size_t count, uint64_t seed, uint64_t id_space) {
  Rng rng(seed);
  const Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  std::vector<Op> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Op op;
    op.is_erase = rng.Bernoulli(0.35);
    const uint64_t id = static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(id_space) - 1));
    if (op.is_erase) {
      op.entry.id = id;
    } else {
      const Vec3 center = rng.PointIn(universe);
      const double side = rng.Uniform(0.05, 2.0);
      op.entry = RTreeEntry{
          Aabb::FromCenterHalfExtents(center, Vec3(side, side, side) * 0.5),
          id};
    }
    ops.push_back(op);
  }
  return ops;
}

// A pinned snapshot sees exactly the state at its epoch: writes and a
// compaction landing afterwards are invisible (no phantom deletes — an id
// erased later is still in the pinned view; no phantom inserts either).
TEST(SnapshotIsolationTest, PinnedSnapshotIgnoresLaterWrites) {
  const std::vector<RTreeEntry> entries = RandomEntries(4000, /*seed=*/21);
  ShardedFlatStore store =
      ShardedFlatStore::Build(entries, {.num_shards = 5, .num_threads = 4});

  // Mutate a little first so the pinned snapshot has its own overlay window.
  store.Insert(RTreeEntry{Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)), 5000});
  store.Erase(11);

  const ShardedFlatStore::Snapshot pinned = store.PinSnapshot();
  const std::vector<Aabb> queries = RandomQueries(15, /*seed=*/22);
  std::vector<std::vector<uint64_t>> before;
  for (const Aabb& q : queries) before.push_back(pinned.RangeQuery(q));

  // Later writes: erase many ids the snapshot can see, insert fresh ones,
  // then fold everything with a compaction.
  for (uint64_t id = 0; id < 1000; ++id) store.Erase(id * 3);
  for (const RTreeEntry& e : RandomEntries(500, /*seed=*/23)) {
    store.Insert(RTreeEntry{e.box, e.id + 10000});
  }
  const uint64_t generation_before = pinned.generation();
  store.Compact();
  ASSERT_GT(store.generation(), generation_before);

  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(pinned.RangeQuery(queries[i]), before[i])
        << "pinned snapshot changed after writes + compaction (query " << i
        << ")";
  }
  EXPECT_EQ(pinned.generation(), generation_before)
      << "snapshot must keep reading the base it pinned";

  // The erased ids really are gone from the store's current view while the
  // pinned snapshot still returns them (no phantom deletes in the pin).
  const Aabb everything(Vec3(-1e18, -1e18, -1e18), Vec3(1e18, 1e18, 1e18));
  const std::vector<uint64_t> now = store.RangeQuery(everything);
  const std::vector<uint64_t> then = pinned.RangeQuery(everything);
  EXPECT_TRUE(std::binary_search(then.begin(), then.end(), 33u));
  EXPECT_FALSE(std::binary_search(now.begin(), now.end(), 33u));
  EXPECT_FALSE(std::binary_search(then.begin(), then.end(), 10001u));
  EXPECT_TRUE(std::binary_search(now.begin(), now.end(), 10001u));
}

// THE hard invariant: after Compact, the store's shard PageFiles are
// byte-identical to a fresh bulkload of the merged data — even when the
// compacting store runs multi-threaded and the fresh build is serial.
TEST(SnapshotIsolationTest, CompactionIsByteIdenticalToFreshBulkload) {
  const std::vector<RTreeEntry> entries = RandomEntries(6000, /*seed=*/31);
  ShardedFlatStore::Options options{.num_shards = 5, .num_threads = 4};
  ShardedFlatStore store = ShardedFlatStore::Build(entries, options);
  OracleMirror mirror(entries);

  Rng rng(32);
  const Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  for (int i = 0; i < 800; ++i) {
    const RTreeEntry e{
        Aabb::FromCenterHalfExtents(rng.PointIn(universe),
                                    Vec3(0.5, 0.5, 0.5)),
        static_cast<uint64_t>(rng.UniformInt(0, 7000))};
    store.Insert(e);
    mirror.Insert(e);
  }
  for (int i = 0; i < 400; ++i) {
    const uint64_t id = static_cast<uint64_t>(rng.UniformInt(0, 7000));
    store.Erase(id);
    mirror.Erase(id);
  }

  const ShardedFlatStore::CompactionStats cstats = store.Compact();
  EXPECT_EQ(cstats.folded_ops, 1200u);
  EXPECT_EQ(cstats.merged_elements, mirror.size());
  EXPECT_EQ(store.overlay_op_count(), 0u);

  // Fresh bulkload of the oracle's live set — deliberately serial, so the
  // comparison also re-proves build byte-identity across thread counts.
  ShardedFlatStore::Options serial = options;
  serial.num_threads = 1;
  ShardedFlatStore fresh = ShardedFlatStore::Build(mirror.LiveElements(), serial);

  ASSERT_EQ(store.shard_count(), fresh.shard_count());
  EXPECT_EQ(store.catalog().total_elements, fresh.catalog().total_elements);
  for (size_t s = 0; s < store.shard_count(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(store.catalog().shards[s].bounds, fresh.catalog().shards[s].bounds);
    EXPECT_EQ(store.catalog().shards[s].element_count,
              fresh.catalog().shards[s].element_count);
    // Byte comparison through the persistence serializer: covers page data,
    // categories and counts in one stream.
    std::ostringstream compacted_bytes, fresh_bytes;
    SavePageFile(store.shard_file(s), compacted_bytes);
    SavePageFile(fresh.shard_file(s), fresh_bytes);
    EXPECT_TRUE(compacted_bytes.str() == fresh_bytes.str())
        << "shard PageFile bytes diverge after compaction";
  }

  // And the merged view still answers like the oracle.
  for (const Aabb& q : RandomQueries(10, /*seed=*/33)) {
    EXPECT_EQ(store.RangeQuery(q), mirror.RangeQuery(q));
  }
}

// Empty boxes and NaN coordinates, in the base and in the overlay, must not
// break that invariant: Compact collects the merged elements in another
// order than the fresh build gets them.
TEST(SnapshotIsolationTest, CompactionWithEmptyAndNanBoxesMatchesFreshBuild) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<RTreeEntry> entries =
      testing::RandomEntriesWithEmptyAndNan(6000, /*seed=*/34);
  ShardedFlatStore::Options options{.num_shards = 4, .num_threads = 4};
  ShardedFlatStore store = ShardedFlatStore::Build(entries, options);
  OracleMirror mirror(entries);

  Rng rng(35);
  const Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  for (int i = 0; i < 600; ++i) {
    RTreeEntry e{Aabb::FromCenterHalfExtents(rng.PointIn(universe),
                                             Vec3(0.5, 0.5, 0.5)),
                 static_cast<uint64_t>(rng.UniformInt(0, 7000))};
    if (i % 10 == 0) e.box = Aabb();
    if (i % 10 == 5) e.box = Aabb(Vec3(nan, 1, 1), Vec3(2, 2, 2));
    store.Insert(e);
    mirror.Insert(e);
  }
  for (int i = 0; i < 300; ++i) {
    const uint64_t id = static_cast<uint64_t>(rng.UniformInt(0, 7000));
    store.Erase(id);
    mirror.Erase(id);
  }
  store.Compact();

  ShardedFlatStore::Options serial = options;
  serial.num_threads = 1;
  ShardedFlatStore fresh =
      ShardedFlatStore::Build(mirror.LiveElements(), serial);
  ASSERT_EQ(store.shard_count(), fresh.shard_count());
  for (size_t s = 0; s < store.shard_count(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(store.catalog().shards[s].element_count,
              fresh.catalog().shards[s].element_count);
    std::ostringstream compacted_bytes, fresh_bytes;
    SavePageFile(store.shard_file(s), compacted_bytes);
    SavePageFile(fresh.shard_file(s), fresh_bytes);
    EXPECT_TRUE(compacted_bytes.str() == fresh_bytes.str())
        << "shard PageFile bytes diverge after compaction";
  }
  for (const Aabb& q : RandomQueries(10, /*seed=*/36)) {
    EXPECT_EQ(store.RangeQuery(q), mirror.RangeQuery(q));
  }
}

// A second compaction with an empty overlay window must be a no-op on the
// bytes (idempotent fold).
TEST(SnapshotIsolationTest, EmptyWindowCompactionKeepsBytes) {
  ShardedFlatStore store = ShardedFlatStore::Build(
      RandomEntries(3000, /*seed=*/41), {.num_shards = 3});
  store.Insert(RTreeEntry{Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), 9999});
  store.Compact();

  std::vector<std::string> before;
  for (size_t s = 0; s < store.shard_count(); ++s) {
    std::ostringstream bytes;
    SavePageFile(store.shard_file(s), bytes);
    before.push_back(bytes.str());
  }
  const ShardedFlatStore::CompactionStats cstats = store.Compact();
  EXPECT_EQ(cstats.folded_ops, 0u);
  ASSERT_EQ(store.shard_count(), before.size());
  for (size_t s = 0; s < store.shard_count(); ++s) {
    std::ostringstream bytes;
    SavePageFile(store.shard_file(s), bytes);
    EXPECT_TRUE(bytes.str() == before[s]) << "shard " << s;
  }
}

// Single writer + concurrent reader pinning snapshots + a compactor thread:
// every pinned snapshot must equal the exact oracle prefix at its epoch —
// not one op more, not one op fewer (torn reads), no resurrected or phantom
// ids. Runs under TSan in CI to also prove data-race freedom.
TEST(SnapshotIsolationTest, ConcurrentWriterCompactorExactOracle) {
  const std::vector<RTreeEntry> initial = RandomEntries(2000, /*seed=*/51);
  const std::vector<Op> ops = MakeOps(3000, /*seed=*/52, /*id_space=*/2500);
  ShardedFlatStore store =
      ShardedFlatStore::Build(initial, {.num_shards = 4, .num_threads = 1});

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (const Op& op : ops) {
      if (op.is_erase) {
        store.Erase(op.entry.id);
      } else {
        store.Insert(op.entry);
      }
    }
    done.store(true, std::memory_order_release);
  });
  std::thread compactor([&] {
    while (!done.load(std::memory_order_acquire)) {
      store.Compact();
      std::this_thread::yield();
    }
    store.Compact();  // fold whatever remains
  });

  const std::vector<Aabb> probes = RandomQueries(4, /*seed=*/53);
  size_t checked = 0;
  while (checked < 40) {
    const ShardedFlatStore::Snapshot snapshot = store.PinSnapshot();
    const uint64_t epoch = snapshot.epoch();
    ASSERT_LE(epoch, ops.size());
    OracleMirror oracle(initial);
    for (uint64_t i = 0; i < epoch; ++i) {
      if (ops[i].is_erase) {
        oracle.Erase(ops[i].entry.id);
      } else {
        oracle.Insert(ops[i].entry);
      }
    }
    for (const Aabb& q : probes) {
      ASSERT_EQ(snapshot.RangeQuery(q), oracle.RangeQuery(q))
          << "epoch " << epoch;
    }
    ++checked;
    if (done.load(std::memory_order_acquire) && epoch == ops.size()) break;
  }
  writer.join();
  compactor.join();

  // Quiesced: the store-level view equals the full-prefix oracle.
  OracleMirror final_oracle(initial);
  for (const Op& op : ops) {
    if (op.is_erase) {
      final_oracle.Erase(op.entry.id);
    } else {
      final_oracle.Insert(op.entry);
    }
  }
  const Aabb everything(Vec3(-1e18, -1e18, -1e18), Vec3(1e18, 1e18, 1e18));
  EXPECT_EQ(store.RangeQuery(everything), final_oracle.RangeQuery(everything));
}

// Multiple writers interleave nondeterministically, so there is no single
// oracle prefix — but any pinned snapshot must still be STABLE: identical
// results every time it is queried, epochs monotone, and every visible id
// from the writers' id universe. Runs under TSan in CI.
TEST(SnapshotIsolationTest, MultiWriterSnapshotStability) {
  const std::vector<RTreeEntry> initial = RandomEntries(1500, /*seed=*/61);
  ShardedFlatStore store =
      ShardedFlatStore::Build(initial, {.num_shards = 3, .num_threads = 1});

  constexpr uint64_t kIdSpace = 4000;
  std::atomic<int> writers_left{2};
  auto writer = [&](uint64_t seed) {
    for (const Op& op : MakeOps(1500, seed, kIdSpace)) {
      if (op.is_erase) {
        store.Erase(op.entry.id);
      } else {
        store.Insert(op.entry);
      }
    }
    writers_left.fetch_sub(1, std::memory_order_acq_rel);
  };
  std::thread w1(writer, 62), w2(writer, 63);
  std::thread compactor([&] {
    while (writers_left.load(std::memory_order_acquire) > 0) {
      store.Compact();
      std::this_thread::yield();
    }
  });

  const Aabb everything(Vec3(-1e18, -1e18, -1e18), Vec3(1e18, 1e18, 1e18));
  uint64_t last_epoch = 0;
  for (int round = 0; round < 40; ++round) {
    const ShardedFlatStore::Snapshot snapshot = store.PinSnapshot();
    EXPECT_GE(snapshot.epoch(), last_epoch) << "epochs must be monotone";
    last_epoch = snapshot.epoch();
    const std::vector<uint64_t> first = snapshot.RangeQuery(everything);
    const std::vector<uint64_t> second = snapshot.RangeQuery(everything);
    ASSERT_EQ(first, second) << "snapshot re-query changed (torn read)";
    ASSERT_TRUE(std::is_sorted(first.begin(), first.end()));
    for (const uint64_t id : first) {
      ASSERT_LT(id, kIdSpace) << "id outside every writer's universe";
    }
  }
  w1.join();
  w2.join();
  compactor.join();
}

// Save persists the overlay window as a WAL; Load replays it, so a reopened
// store answers exactly like the saved one — on both storage backends — and
// keeps the generation.
TEST(SnapshotIsolationTest, SaveLoadReplaysOverlayWal) {
  const std::vector<RTreeEntry> entries = RandomEntries(3000, /*seed=*/71);
  ShardedFlatStore store =
      ShardedFlatStore::Build(entries, {.num_shards = 4, .num_threads = 2});
  store.Compact();  // generation 2, so the sidecar is exercised too
  for (const RTreeEntry& e : RandomEntries(250, /*seed=*/72)) {
    store.Insert(RTreeEntry{e.box, e.id + 5000});
  }
  for (uint64_t id = 0; id < 120; ++id) store.Erase(id * 5);
  ASSERT_GT(store.overlay_op_count(), 0u);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flat_snapshot_wal_test";
  std::filesystem::remove_all(dir);
  store.Save(dir.string());

  for (const auto backend : {ShardedFlatStore::LoadBackend::kMemory,
                             ShardedFlatStore::LoadBackend::kDisk}) {
    SCOPED_TRACE(backend == ShardedFlatStore::LoadBackend::kDisk ? "disk"
                                                                 : "memory");
    ShardedFlatStore loaded =
        ShardedFlatStore::Load(dir.string(), /*num_threads=*/2, backend);
    EXPECT_EQ(loaded.generation(), store.generation());
    EXPECT_EQ(loaded.overlay_op_count(), store.overlay_op_count());
    for (const Aabb& q : RandomQueries(20, /*seed=*/73)) {
      IoStats loaded_io, original_io;
      EXPECT_EQ(loaded.RangeQuery(q, &loaded_io),
                store.RangeQuery(q, &original_io));
      EXPECT_EQ(loaded_io.OverlayProbes(), original_io.OverlayProbes());
    }
  }

  // Compacting the reopened store folds the replayed WAL and may be saved
  // back over the same directory (newer generation wins).
  ShardedFlatStore reopened = ShardedFlatStore::Load(dir.string());
  reopened.Compact();
  EXPECT_EQ(reopened.overlay_op_count(), 0u);
  reopened.Save(dir.string());
  ShardedFlatStore recompacted = ShardedFlatStore::Load(dir.string());
  EXPECT_EQ(recompacted.generation(), reopened.generation());
  for (const Aabb& q : RandomQueries(10, /*seed=*/74)) {
    EXPECT_EQ(recompacted.RangeQuery(q), store.RangeQuery(q));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace flat

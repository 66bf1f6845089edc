// The ShardedFlatStore contract: scatter-gather queries over K shards are
// bit-identical (in the canonical sorted order) to one unsharded FlatIndex
// over the same elements, merged IoStats equal the exact per-category sum of
// per-shard cold-cache serial execution at every thread count, the catalog
// round-trips through Save/Load, and the shard split itself is
// byte-deterministic across thread counts.
#include "shard/sharded_flat_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/flat_index.h"
#include "core/partitioner.h"
#include "data/mesh_generator.h"
#include "data/neuron_generator.h"
#include "data/uniform_generator.h"
#include "geometry/rng.h"
#include "shard/shard_catalog.h"
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

// The three generators the repo's identity tests standardize on, at a size
// that keeps Debug/TSan runtimes reasonable.
Dataset MakeDataset(const std::string& kind) {
  if (kind == "neuron") {
    NeuronParams params;
    params.total_elements = 20000;
    return GenerateNeurons(params);
  }
  if (kind == "mesh") {
    MeshParams params;
    params.target_triangles = 20000;
    return GenerateMesh(params);
  }
  UniformBoxParams params;
  params.count = 20000;
  return GenerateUniformBoxes(params);
}

// Queries spanning a spread of selectivities within `bounds`, plus one box
// covering every shard (the whole universe) and one far outside it.
std::vector<Aabb> DatasetQueries(const Dataset& dataset, uint64_t seed) {
  Rng rng(seed);
  std::vector<Aabb> queries;
  for (int i = 0; i < 20; ++i) {
    const Vec3 center = rng.PointIn(dataset.bounds);
    const double frac = rng.Uniform(0.02, 0.3);
    queries.push_back(Aabb::FromCenterHalfExtents(
        center, dataset.bounds.Extents() * (frac / 2)));
  }
  queries.push_back(dataset.bounds);  // spans all shards
  queries.push_back(Aabb::FromCenterHalfExtents(
      dataset.bounds.hi() + dataset.bounds.Extents(), Vec3(1, 1, 1)));
  return queries;
}

// Serial cold-cache reference on the unsharded index.
std::vector<uint64_t> UnshardedRange(const FlatIndex& index,
                                     const PageFile& file, const Aabb& query,
                                     IoStats* io) {
  BufferPool pool(&file, io);
  std::vector<uint64_t> ids;
  index.RangeQuery(&pool, query, &ids);
  return ids;
}

class ShardedStoreIdentityTest
    : public ::testing::TestWithParam<std::string> {};

// The tentpole invariant: for every data set, shard count (including K=1)
// and thread count, range / count / seed-scan results are bit-identical to
// the unsharded index (canonical sorted order), and the store's merged
// IoStats equal — per category — the sum over overlapping shards of serial
// cold-cache execution.
TEST_P(ShardedStoreIdentityTest, MatchesUnshardedIndex) {
  const Dataset dataset = MakeDataset(GetParam());

  PageFile file;
  FlatIndex unsharded = FlatIndex::Build(&file, dataset.elements);
  const std::vector<Aabb> queries = DatasetQueries(dataset, /*seed=*/77);

  for (size_t num_shards : {size_t{1}, size_t{5}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("shards=" + std::to_string(num_shards) +
                   " threads=" + std::to_string(threads));
      ShardedFlatStore store = ShardedFlatStore::Build(
          dataset.elements,
          {.num_shards = num_shards, .num_threads = threads});
      if (num_shards == 1) EXPECT_EQ(store.shard_count(), 1u);

      for (size_t qi = 0; qi < queries.size(); ++qi) {
        SCOPED_TRACE("query " + std::to_string(qi));
        const Aabb& query = queries[qi];
        IoStats unsharded_io;
        const std::vector<uint64_t> expected =
            Sorted(UnshardedRange(unsharded, file, query, &unsharded_io));

        // Range: bit-identical id sequence in canonical order.
        IoStats range_io;
        const std::vector<uint64_t> ids = store.RangeQuery(query, &range_io);
        EXPECT_EQ(ids, expected);

        // Count: same pages, no ids.
        IoStats count_io;
        EXPECT_EQ(store.RangeCount(query, &count_io), expected.size());
        EXPECT_EQ(CategoryCounts(count_io), CategoryCounts(range_io));

        // Seed-scan plan: same canonical result set.
        EXPECT_EQ(store.RangeQueryViaSeedScan(query), expected);

        // Merged I/O equals the per-category sum of serial cold-cache
        // execution on each overlapping shard.
        IoStats reference_io;
        for (size_t s = 0; s < store.shard_count(); ++s) {
          if (!store.catalog().shards[s].bounds.Intersects(query)) continue;
          BufferPool pool(&store.shard_file(s), &reference_io);
          std::vector<uint64_t> shard_ids;
          store.shard_index(s).RangeQuery(&pool, query, &shard_ids);
        }
        EXPECT_EQ(CategoryCounts(range_io), CategoryCounts(reference_io));

        // With one shard the sharded store *is* the unsharded index (the
        // K=1 split is an identity permutation of STR order), so even the
        // raw page-read totals match the unsharded build exactly — for
        // queries the catalog routes to the shard. Queries outside the data
        // bounds never leave the catalog (0 reads), while the unsharded
        // index still pays its seed-tree probe: the routing win.
        if (store.shard_count() == 1) {
          if (store.catalog().shards[0].bounds.Intersects(query)) {
            EXPECT_EQ(CategoryCounts(range_io), CategoryCounts(unsharded_io));
          } else {
            EXPECT_EQ(range_io.TotalReads(), 0u);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, ShardedStoreIdentityTest,
                         ::testing::Values("neuron", "mesh", "uniform"));

TEST(ShardedStoreTest, BatchMatchesSingleQueryPath) {
  const std::vector<RTreeEntry> entries = RandomEntries(15000, /*seed=*/21);
  ShardedFlatStore store =
      ShardedFlatStore::Build(entries, {.num_shards = 4, .num_threads = 4});

  std::vector<Query> batch;
  std::vector<Aabb> boxes = RandomQueries(40, /*seed=*/22);
  for (size_t i = 0; i < boxes.size(); ++i) {
    if (i % 3 == 0) {
      batch.push_back(Query::RangeCount(boxes[i]));
    } else if (i % 3 == 1) {
      batch.push_back(Query::Range(boxes[i]));
    } else {
      batch.push_back(Query::Sphere(boxes[i].Center(),
                                    boxes[i].Extents().Norm() / 2));
    }
  }

  BatchStats stats;
  const std::vector<QueryResult> results = store.RunBatch(batch, &stats);
  ASSERT_EQ(results.size(), batch.size());

  IoStats merged;
  uint64_t elements = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    QueryResult single;
    switch (batch[i].type) {
      case Query::Type::kRange:
        single.ids = store.RangeQuery(batch[i].box, &single.io);
        single.count = single.ids.size();
        break;
      case Query::Type::kRangeCount:
        single.count = store.RangeCount(batch[i].box, &single.io);
        break;
      case Query::Type::kSphere:
        single.ids =
            store.SphereQuery(batch[i].center, batch[i].radius, &single.io);
        single.count = single.ids.size();
        break;
      default:
        FAIL();
    }
    EXPECT_EQ(results[i].ids, single.ids);
    EXPECT_EQ(results[i].count, single.count);
    EXPECT_EQ(CategoryCounts(results[i].io), CategoryCounts(single.io));
    merged += results[i].io;
    elements += results[i].count;
  }
  EXPECT_EQ(stats.result_elements, elements);
  EXPECT_EQ(CategoryCounts(stats.io), CategoryCounts(merged));
}

TEST(ShardedStoreTest, ResultsAreCorrectNotJustConsistent) {
  const std::vector<RTreeEntry> entries = RandomEntries(10000, /*seed=*/31);
  ShardedFlatStore store =
      ShardedFlatStore::Build(entries, {.num_shards = 6, .num_threads = 2});
  for (const Aabb& query : RandomQueries(30, /*seed=*/32)) {
    EXPECT_EQ(store.RangeQuery(query), BruteForce(entries, query));
  }
}

// The shard split and the per-shard builds are deterministic: any thread
// count yields byte-identical shard PageFiles and an identical catalog.
TEST(ShardedStoreTest, ShardPageFilesAreByteIdenticalAcrossThreadCounts) {
  const std::vector<RTreeEntry> entries = RandomEntries(12000, /*seed=*/41);
  ShardedFlatStore serial =
      ShardedFlatStore::Build(entries, {.num_shards = 5, .num_threads = 1});
  ShardedFlatStore parallel =
      ShardedFlatStore::Build(entries, {.num_shards = 5, .num_threads = 4});

  ASSERT_EQ(serial.shard_count(), parallel.shard_count());
  for (size_t s = 0; s < serial.shard_count(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const PageStore& a = serial.shard_file(s);
    const PageStore& b = parallel.shard_file(s);
    ASSERT_EQ(a.page_count(), b.page_count());
    for (PageId id = 0; id < a.page_count(); ++id) {
      ASSERT_EQ(a.category(id), b.category(id));
      ASSERT_EQ(std::memcmp(a.Data(id), b.Data(id), a.page_size()), 0)
          << "page " << id;
    }
    EXPECT_EQ(serial.catalog().shards[s].bounds,
              parallel.catalog().shards[s].bounds);
    EXPECT_EQ(serial.catalog().shards[s].element_count,
              parallel.catalog().shards[s].element_count);
  }
}

TEST(ShardedStoreTest, SaveLoadRoundTripIsBitIdentical) {
  const std::vector<RTreeEntry> entries = RandomEntries(12000, /*seed=*/51);
  ShardedFlatStore store =
      ShardedFlatStore::Build(entries, {.num_shards = 4, .num_threads = 2});

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flat_sharded_store_test";
  std::filesystem::remove_all(dir);
  store.Save(dir.string());

  ShardedFlatStore loaded =
      ShardedFlatStore::Load(dir.string(), /*num_threads=*/2);
  ASSERT_EQ(loaded.shard_count(), store.shard_count());
  EXPECT_EQ(loaded.catalog().total_elements, store.catalog().total_elements);
  EXPECT_EQ(loaded.catalog().universe, store.catalog().universe);

  for (const Aabb& query : RandomQueries(30, /*seed=*/52)) {
    IoStats original_io, loaded_io;
    EXPECT_EQ(loaded.RangeQuery(query, &loaded_io),
              store.RangeQuery(query, &original_io));
    // Identical structure => identical I/O.
    EXPECT_EQ(CategoryCounts(loaded_io), CategoryCounts(original_io));
  }
  std::filesystem::remove_all(dir);
}

// Every query's ids and per-category reads, for bit-identity checks.
std::vector<std::vector<uint64_t>> Answers(const ShardedFlatStore& store,
                                           const std::vector<Aabb>& queries) {
  std::vector<std::vector<uint64_t>> answers;
  for (const Aabb& query : queries) {
    IoStats io;
    answers.push_back(store.RangeQuery(query, &io));
    answers.push_back(CategoryCounts(io));
  }
  return answers;
}

void ExpectSamePages(const PageStore& a, const PageStore& b) {
  ASSERT_EQ(a.page_size(), b.page_size());
  ASSERT_EQ(a.page_count(), b.page_count());
  for (PageId id = 0; id < a.page_count(); ++id) {
    ASSERT_EQ(a.category(id), b.category(id)) << "page " << id;
    ASSERT_EQ(std::memcmp(a.Data(id), b.Data(id), a.page_size()), 0)
        << "page " << id;
  }
}

// Save replaces each page file instead of truncating it. A loaded store
// maps its directory's page files, so it keeps answering after that
// directory is saved over, by itself or by another store.
TEST(ShardedStoreTest, SavingOverALoadedStoresDirectoryKeepsItServing) {
  const std::vector<Aabb> queries = RandomQueries(20, /*seed=*/53);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flat_sharded_store_resave";
  for (const size_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    std::filesystem::remove_all(dir);
    const ShardedFlatStore::Options options{.num_shards = 4,
                                            .num_threads = threads};
    ShardedFlatStore::Build(RandomEntries(12000, /*seed=*/54), options)
        .Save(dir.string());
    const ShardedFlatStore loaded =
        ShardedFlatStore::Load(dir.string(), threads);
    const std::vector<std::vector<uint64_t>> before = Answers(loaded, queries);

    // The loaded store saved into the directory it is served from.
    loaded.Save(dir.string());
    EXPECT_EQ(Answers(loaded, queries), before);
    EXPECT_EQ(Answers(ShardedFlatStore::Load(dir.string(), threads), queries),
              before);

    // Another store saved over the loaded store's directory.
    const ShardedFlatStore other =
        ShardedFlatStore::Build(RandomEntries(9000, /*seed=*/55), options);
    other.Save(dir.string());
    EXPECT_EQ(Answers(loaded, queries), before);
    EXPECT_EQ(Answers(ShardedFlatStore::Load(dir.string(), threads), queries),
              Answers(other, queries));
  }
  std::filesystem::remove_all(dir);
}

// Save writes the shard files in parallel; the directory's bytes do not
// depend on the thread count.
TEST(ShardedStoreTest, SavedDirectoriesAreByteIdenticalAcrossThreadCounts) {
  const std::vector<RTreeEntry> entries = RandomEntries(12000, /*seed=*/56);
  std::vector<std::map<std::string, std::string>> saved;
  for (const size_t threads : {1u, 4u}) {
    ShardedFlatStore store = ShardedFlatStore::Build(
        entries, {.num_shards = 5,
                  .num_threads = threads,
                  .aggregate_counts = true});
    store.Insert(RTreeEntry{Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)), 1'000'000});
    store.Erase(entries.front().id);
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("flat_sharded_store_save_" + std::to_string(threads));
    std::filesystem::remove_all(dir);
    store.Save(dir.string());
    std::map<std::string, std::string>& files = saved.emplace_back();
    for (const auto& file : std::filesystem::directory_iterator(dir)) {
      std::ifstream in(file.path(), std::ios::binary);
      files[file.path().filename().string()].assign(
          std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    std::filesystem::remove_all(dir);
  }
  // Per shard a page file and its sidecar, plus the catalog, the WAL and the
  // generation sidecar.
  EXPECT_GE(saved[0].size(), 2 * 4 + 3u);
  ASSERT_EQ(saved[0].size(), saved[1].size());
  for (const auto& [name, bytes] : saved[0]) {
    ASSERT_TRUE(saved[1].contains(name)) << name;
    EXPECT_TRUE(saved[1].at(name) == bytes) << name << " differs";
  }
}

// A page file Save cannot replace fails the Save, naming the file, whether
// the shard files are written on the caller or on a pool.
TEST(ShardedStoreTest, SaveThatCannotReplaceAPageFileNamesIt) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flat_sharded_store_blocked";
  const std::filesystem::path blocked = dir / "shard-0002.pgf";
  for (const size_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const ShardedFlatStore store = ShardedFlatStore::Build(
        RandomEntries(8000, /*seed=*/57),
        {.num_shards = 4, .num_threads = threads});
    ASSERT_GE(store.shard_count(), 3u);
    std::filesystem::remove_all(dir);
    // A non-empty directory can be neither unlinked nor opened as a file.
    std::filesystem::create_directories(blocked / "occupant");
    try {
      store.Save(dir.string());
      ADD_FAILURE() << "Save over an unreplaceable page file must throw";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(blocked.string()),
                std::string::npos)
          << "actual message: " << error.what();
    }
  }
  std::filesystem::remove_all(dir);
}

// Shards build in place on disjoint slices of the split's array. Each
// shard's pages equal a FlatIndex built from a copy of that shard's
// elements, and a shuffled input gives the same shard files.
TEST(ShardedStoreTest, ShardsEqualIndexesBuiltFromCopiedOutElements) {
  const std::vector<RTreeEntry> entries = RandomEntries(12000, /*seed=*/58);
  const ShardedFlatStore::Options options{.num_shards = 4, .num_threads = 2};
  const ShardedFlatStore store = ShardedFlatStore::Build(entries, options);
  std::vector<RTreeEntry> shuffled = entries;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(59));
  const ShardedFlatStore from_shuffled =
      ShardedFlatStore::Build(shuffled, options);

  // The store's split: shard-sized STR partitions of the whole set.
  std::vector<RTreeEntry> split = entries;
  const std::vector<PartitionInfo> shards = StrPartition(
      split,
      static_cast<uint32_t>((entries.size() + options.num_shards - 1) /
                            options.num_shards),
      BoundsOf(entries));
  ASSERT_EQ(shards.size(), store.shard_count());
  ASSERT_EQ(shards.size(), from_shuffled.shard_count());
  for (size_t s = 0; s < shards.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const std::vector<RTreeEntry> copy(
        split.begin() + shards[s].first,
        split.begin() + shards[s].first + shards[s].count);
    PageFile file(options.page_size);
    FlatIndex::Build(&file, copy);
    ExpectSamePages(file, store.shard_file(s));
    ExpectSamePages(store.shard_file(s), from_shuffled.shard_file(s));
  }
}

TEST(ShardedStoreTest, EmptyStore) {
  ShardedFlatStore store = ShardedFlatStore::Build({}, {.num_shards = 4});
  EXPECT_EQ(store.shard_count(), 0u);
  IoStats io;
  EXPECT_TRUE(store.RangeQuery(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), &io)
                  .empty());
  EXPECT_EQ(store.RangeCount(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1))), 0u);
  EXPECT_EQ(io.TotalReads(), 0u);

  // An empty store round-trips, too.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flat_sharded_store_empty";
  std::filesystem::remove_all(dir);
  store.Save(dir.string());
  ShardedFlatStore loaded = ShardedFlatStore::Load(dir.string());
  EXPECT_EQ(loaded.shard_count(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ShardedStoreTest, DefaultConstructedStoreAnswersEmpty) {
  // Mirrors the unbuilt-FlatIndex contract: no shards, no engine, every
  // query legitimately empty — never a crash.
  ShardedFlatStore store;
  EXPECT_EQ(store.shard_count(), 0u);
  EXPECT_TRUE(store.RangeQuery(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1))).empty());
  EXPECT_EQ(store.RangeCount(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1))), 0u);
  BatchStats stats;
  const std::vector<QueryResult> results = store.RunBatch(
      {Query::Range(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)))}, &stats);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ids.empty());
  EXPECT_EQ(stats.result_elements, 0u);
}

TEST(ShardedStoreTest, KnnIsRejected) {
  ShardedFlatStore store =
      ShardedFlatStore::Build(RandomEntries(1000, 61), {.num_shards = 2});
  EXPECT_THROW(store.RunBatch({Query::Knn(Vec3(1, 2, 3), 5)}),
               std::invalid_argument);
}

TEST(ShardCatalogTest, RoundTrip) {
  ShardCatalog catalog;
  catalog.generation = 7;
  catalog.page_size = 4096;
  catalog.total_elements = 12;
  catalog.universe = Aabb(Vec3(0, 0, 0), Vec3(9, 9, 9));
  for (uint64_t i = 0; i < 3; ++i) {
    ShardCatalogEntry entry;
    entry.page_file_name = "shard-000" + std::to_string(i) + ".pgf";
    entry.descriptor = {static_cast<PageId>(10 + i), i == 1,
                        static_cast<int>(i),
                        i == 2 ? static_cast<PageId>(20) : kInvalidPageId};
    entry.bounds = Aabb(Vec3(i, 0, 0), Vec3(i + 1, 2, 3));
    entry.tile = Aabb(Vec3(i, 0, 0), Vec3(i + 1, 9, 9));
    entry.element_count = 4;
    catalog.shards.push_back(entry);
  }

  std::stringstream stream;
  SaveShardCatalog(catalog, stream);
  const ShardCatalog loaded = LoadShardCatalog(stream);

  EXPECT_EQ(loaded.generation, catalog.generation);
  EXPECT_EQ(loaded.page_size, catalog.page_size);
  EXPECT_EQ(loaded.total_elements, catalog.total_elements);
  EXPECT_EQ(loaded.universe, catalog.universe);
  ASSERT_EQ(loaded.shards.size(), catalog.shards.size());
  for (size_t i = 0; i < loaded.shards.size(); ++i) {
    EXPECT_EQ(loaded.shards[i].page_file_name,
              catalog.shards[i].page_file_name);
    EXPECT_EQ(loaded.shards[i].descriptor.seed_root,
              catalog.shards[i].descriptor.seed_root);
    EXPECT_EQ(loaded.shards[i].descriptor.root_is_leaf,
              catalog.shards[i].descriptor.root_is_leaf);
    EXPECT_EQ(loaded.shards[i].descriptor.seed_height,
              catalog.shards[i].descriptor.seed_height);
    EXPECT_EQ(loaded.shards[i].descriptor.directory_root,
              catalog.shards[i].descriptor.directory_root);
    EXPECT_EQ(loaded.shards[i].bounds, catalog.shards[i].bounds);
    EXPECT_EQ(loaded.shards[i].tile, catalog.shards[i].tile);
    EXPECT_EQ(loaded.shards[i].element_count,
              catalog.shards[i].element_count);
  }
}

TEST(ShardCatalogTest, RejectsGarbageTruncationAndEscapes) {
  std::stringstream garbage("certainly not a shard catalog");
  EXPECT_THROW(LoadShardCatalog(garbage), std::runtime_error);

  ShardCatalog catalog;
  catalog.page_size = 4096;
  catalog.total_elements = 1;
  ShardCatalogEntry entry;
  entry.page_file_name = "shard-0000.pgf";
  entry.element_count = 1;
  catalog.shards.push_back(entry);

  std::stringstream stream;
  SaveShardCatalog(catalog, stream);
  const std::string bytes = stream.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(LoadShardCatalog(truncated), std::runtime_error);

  // A catalog whose shard file name escapes the store directory is corrupt.
  catalog.shards[0].page_file_name = "../evil.pgf";
  std::stringstream escaping;
  SaveShardCatalog(catalog, escaping);
  EXPECT_THROW(LoadShardCatalog(escaping), std::runtime_error);

  // Element counts must sum to the declared total.
  catalog.shards[0].page_file_name = "shard-0000.pgf";
  catalog.total_elements = 99;
  std::stringstream inconsistent;
  SaveShardCatalog(catalog, inconsistent);
  EXPECT_THROW(LoadShardCatalog(inconsistent), std::runtime_error);
}

// A store must never clobber a directory that already holds a LATER
// generation of itself (e.g. a stale replica re-saving over a compacted
// primary), and a catalog that regressed behind the directory's generation
// sidecar must be rejected at load time.
TEST(ShardedStoreTest, StaleGenerationsAreRejected) {
  const std::vector<RTreeEntry> entries = RandomEntries(2000, /*seed=*/55);
  ShardedFlatStore stale =
      ShardedFlatStore::Build(entries, {.num_shards = 2});  // generation 1
  ShardedFlatStore fresh = ShardedFlatStore::Build(entries, {.num_shards = 2});
  fresh.Compact();  // generation 2
  ASSERT_GT(fresh.generation(), stale.generation());

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flat_sharded_store_stale";
  std::filesystem::remove_all(dir);
  fresh.Save(dir.string());

  // Save: the directory's sidecar records generation 2; writing generation 1
  // over it must fail loudly, naming the problem.
  try {
    stale.Save(dir.string());
    FAIL() << "saving a stale generation over a newer directory must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("stale generation"),
              std::string::npos)
        << "actual message: " << error.what();
  }

  // Load: restore a pre-compaction catalog into the post-compaction
  // directory (classic partial-restore mistake) — the sidecar must reject it.
  {
    std::ostringstream bytes;
    ShardCatalog old_catalog = fresh.catalog();
    old_catalog.generation = 1;
    SaveShardCatalog(old_catalog, bytes);
    std::ofstream out(dir / "catalog.flatshard", std::ios::binary);
    out << bytes.str();
  }
  try {
    ShardedFlatStore::Load(dir.string());
    FAIL() << "loading a catalog older than the directory's sidecar must "
              "throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("stale catalog"),
              std::string::npos)
        << "actual message: " << error.what();
  }
  std::filesystem::remove_all(dir);
}

// A store directory without its overlay WAL does not load: the saved
// overlay window would be lost, and the store would answer as if it were
// empty. (FLATSHC1 catalogs, the only ones saved without a WAL, are
// rejected at their magic.)
TEST(ShardedStoreTest, DirectoryWithoutWalIsRejected) {
  const std::vector<RTreeEntry> entries = RandomEntries(1500, /*seed=*/57);
  ShardedFlatStore store = ShardedFlatStore::Build(entries, {.num_shards = 2});
  store.Insert(RTreeEntry{Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)), 1'000'000});
  store.Erase(entries.front().id);
  ASSERT_EQ(store.overlay_op_count(), 2u);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flat_sharded_store_no_wal";
  std::filesystem::remove_all(dir);
  store.Save(dir.string());
  EXPECT_EQ(ShardedFlatStore::Load(dir.string()).overlay_op_count(), 2u);
  std::filesystem::remove(dir / "overlay.flatwal");
  try {
    ShardedFlatStore::Load(dir.string());
    ADD_FAILURE() << "a directory without its WAL must not load";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("overlay.flatwal"),
              std::string::npos)
        << "actual message: " << error.what();
  }
  std::filesystem::remove_all(dir);
}

// The engine-level multi-index primitive behind the store: one batch mixing
// sub-queries for two unrelated indexes, with per-query I/O charged to the
// right PageFile and results bit-identical to serial per-index execution.
TEST(MultiIndexEngineTest, MixedIndexBatch) {
  const std::vector<RTreeEntry> entries_a = RandomEntries(8000, /*seed=*/71);
  const std::vector<RTreeEntry> entries_b = RandomEntries(6000, /*seed=*/72);
  PageFile file_a, file_b;
  FlatIndex index_a = FlatIndex::Build(&file_a, entries_a);
  FlatIndex index_b = FlatIndex::Build(&file_b, entries_b);

  std::vector<IndexedQuery> batch;
  const std::vector<Aabb> boxes = RandomQueries(30, /*seed=*/73);
  for (size_t i = 0; i < boxes.size(); ++i) {
    batch.push_back(IndexedQuery{i % 2 == 0 ? &index_a : &index_b,
                                 Query::Range(boxes[i])});
  }

  QueryEngine engine({.threads = 4});
  const std::vector<QueryResult> results = engine.RunMulti(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::vector<RTreeEntry>& entries = i % 2 == 0 ? entries_a : entries_b;
    EXPECT_EQ(Sorted(results[i].ids), BruteForce(entries, boxes[i]))
        << "query " << i;
  }
}

TEST(MultiIndexEngineTest, NullAndUnbuiltIndexesYieldEmptyResults) {
  PageFile file;
  FlatIndex built = FlatIndex::Build(&file, RandomEntries(2000, 81));
  FlatIndex unbuilt;
  const Aabb everything(Vec3(0, 0, 0), Vec3(100, 100, 100));

  QueryEngine engine(QueryEngine::Options{.threads = 2});
  std::vector<IndexedQuery> batch = {
      IndexedQuery{nullptr, Query::Range(everything)},
      IndexedQuery{&unbuilt, Query::Range(everything)},
      IndexedQuery{&built, Query::Range(everything)},
  };
  BatchStats stats;
  const std::vector<QueryResult> results = engine.RunMulti(batch, &stats);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ids.empty());
  EXPECT_EQ(results[0].io.TotalReads(), 0u);
  EXPECT_TRUE(results[1].ids.empty());
  EXPECT_EQ(results[2].ids.size(), 2000u);
  EXPECT_EQ(stats.result_elements, 2000u);
}

TEST(MultiIndexEngineTest, SingleIndexRunOnIndexFreeEngineThrows) {
  QueryEngine engine(QueryEngine::Options{.threads = 2});
  // Loud failure, not silently-empty results: the single-index entry point
  // has no index to run against.
  EXPECT_THROW(engine.Run({Query::Range(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)))}),
               std::logic_error);
}

TEST(MultiIndexEngineTest, CountAndSeedScanQueryTypes) {
  const std::vector<RTreeEntry> entries = RandomEntries(8000, /*seed=*/91);
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  QueryEngine engine(&index, {.threads = 2});

  const std::vector<Aabb> boxes = RandomQueries(20, /*seed=*/92);
  std::vector<Query> batch;
  for (const Aabb& box : boxes) batch.push_back(Query::RangeCount(box));
  for (const Aabb& box : boxes) batch.push_back(Query::RangeSeedScan(box));

  const std::vector<QueryResult> results = engine.Run(batch);
  for (size_t i = 0; i < boxes.size(); ++i) {
    const std::vector<uint64_t> expected = BruteForce(entries, boxes[i]);
    // Count queries: right tally, no ids, same reads as the range crawl.
    EXPECT_EQ(results[i].count, expected.size()) << "query " << i;
    EXPECT_TRUE(results[i].ids.empty());
    IoStats range_io;
    {
      BufferPool pool(&file, &range_io);
      std::vector<uint64_t> ids;
      index.RangeQuery(&pool, boxes[i], &ids);
    }
    EXPECT_EQ(CategoryCounts(results[i].io), CategoryCounts(range_io));
    // Seed-scan queries: same result set through the other plan.
    EXPECT_EQ(Sorted(results[boxes.size() + i].ids), expected);
  }
}

}  // namespace
}  // namespace flat

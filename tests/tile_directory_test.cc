// The tile directory (core/tile_directory.h): point location over the STR
// tiles, FLAT's one seed phase. Pins that every non-empty build writes one,
// that a lookup lands in a stored tile holding the point, that crawls
// seeded from it stay exact on realistic and degenerate data at every page
// size, that Seed + Crawl reads exactly what RangeQuery reads, that a group
// outgrowing a page fails the build, and that a store keeps its directories
// through Save and Load but rejects a hostile catalog root and a descriptor
// without one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/flat_index.h"
#include "core/metadata.h"
#include "core/tile_directory.h"
#include "data/neuron_generator.h"
#include "shard/shard_catalog.h"
#include "shard/sharded_flat_store.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::BruteForce;
using testing::Sorted;

std::vector<RTreeEntry> Uniform(size_t count) {
  return testing::RandomEntries(count, 501);
}

std::vector<RTreeEntry> Neuron(size_t count) {
  NeuronParams params;
  params.total_elements = count;
  params.seed = 502;
  return GenerateNeurons(params).elements;
}

// Every center coincides: every tile holds the common center, so all
// records neighbor each other and most tiles have zero extent.
std::vector<RTreeEntry> Identical(size_t count) {
  std::vector<RTreeEntry> elements;
  for (uint64_t i = 0; i < count; ++i) {
    elements.push_back(RTreeEntry{Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)), i});
  }
  return elements;
}

// Boxes flat in the plane z = 50: every z-boundary lands on it, so the tiles
// of a run are identical zero-thickness slabs.
std::vector<RTreeEntry> Planar(size_t count) {
  std::vector<RTreeEntry> elements = testing::RandomEntries(count, 503);
  for (RTreeEntry& e : elements) {
    e.box = Aabb(Vec3(e.box.lo().x, e.box.lo().y, 50.0),
                 Vec3(e.box.hi().x, e.box.hi().y, 50.0));
  }
  return elements;
}

std::vector<RTreeEntry> EmptyAndNan(size_t count) {
  return testing::RandomEntriesWithEmptyAndNan(count, 504);
}

// Element counts per page size (512 B, 1 KiB, 4 KiB) that make the seed
// tree three or more levels tall (a 4 KiB leaf holds about 45 records of
// uniform boxes); all-identical boxes link every record to every other,
// which caps how many records fit on a seed leaf.
struct DataSet {
  const char* name;
  std::vector<RTreeEntry> (*make)(size_t count);
  size_t counts[3];
};

const DataSet kDataSets[] = {
    {"uniform", Uniform, {5000, 10000, 300000}},
    {"neuron", Neuron, {4000, 10000, 300000}},
    {"identical", Identical, {300, 1800, 21900}},
    {"planar", Planar, {5000, 10000, 200000}},
    {"empty_and_nan", EmptyAndNan, {5000, 10000, 300000}},
};
constexpr uint32_t kPageSizes[] = {512, 1024, 4096};

using Param = std::tuple<size_t, size_t>;  // data set, page size index

class TileDirectoryTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const DataSet& data = kDataSets[std::get<0>(GetParam())];
    const size_t size_index = std::get<1>(GetParam());
    elements_ = data.make(data.counts[size_index]);
    file_ = std::make_unique<PageFile>(kPageSizes[size_index]);
    index_ = FlatIndex::Build(file_.get(), elements_);
    ASSERT_GE(index_.seed_height(), 3);
    ASSERT_NE(index_.descriptor().directory_root, kInvalidPageId);
  }

  std::vector<RTreeEntry> elements_;
  std::unique_ptr<PageFile> file_;
  FlatIndex index_;
};

// Every stored record of the file, with its stored tile.
std::vector<std::pair<RecordRef, Aabb>> StoredTiles(const PageFile& file) {
  std::vector<std::pair<RecordRef, Aabb>> tiles;
  for (PageId id = 0; id < file.page_count(); ++id) {
    if (file.category(id) != PageCategory::kSeedLeaf) continue;
    const SeedLeafView leaf(file.Data(id), file.page_size(), id);
    for (uint16_t slot = 0; slot < leaf.count(); ++slot) {
      tiles.emplace_back(RecordRef{id, slot}, leaf.RecordAt(slot).tile());
    }
  }
  return tiles;
}

Aabb StoredTileOf(const PageFile& file, RecordRef ref) {
  return SeedLeafView(file.Data(ref.page), file.page_size(), ref.page)
      .RecordAt(ref.slot)
      .tile();
}

TEST_P(TileDirectoryTest, EveryPointOfEveryStoredTileLocatesAHoldingTile) {
  IoStats io;
  BufferPool pool(file_.get(), &io);
  Aabb stored_bounds;
  size_t lookups = 0;
  for (const auto& [ref, tile] : StoredTiles(*file_)) {
    if (tile.IsEmpty()) continue;
    stored_bounds.ExpandToInclude(tile);
    // Corners (on shared edges and faces), face centers and the center.
    std::vector<Vec3> points;
    for (int corner = 0; corner < 8; ++corner) {
      points.emplace_back(corner & 1 ? tile.hi().x : tile.lo().x,
                          corner & 2 ? tile.hi().y : tile.lo().y,
                          corner & 4 ? tile.hi().z : tile.lo().z);
    }
    const Vec3 center = tile.Center();
    for (int axis = 0; axis < 3; ++axis) {
      for (const double face : {tile.lo()[axis], tile.hi()[axis]}) {
        Vec3 p = center;
        p.At(axis) = face;
        points.push_back(p);
      }
    }
    points.push_back(center);
    for (const Vec3& p : points) {
      const std::optional<RecordRef> found =
          index_.Seed(&pool, Aabb::FromPoint(p));
      ASSERT_TRUE(found.has_value()) << "point " << p;
      ASSERT_TRUE(StoredTileOf(*file_, *found).Contains(p))
          << "point " << p << " of tile " << tile << " located tile "
          << StoredTileOf(*file_, *found);
      ++lookups;
    }
  }
  EXPECT_GT(lookups, 0u);
  // Outside the union of the stored tiles there is nothing to locate.
  const Vec3 beyond = stored_bounds.hi() + Vec3(1, 1, 1);
  EXPECT_FALSE(index_.Seed(&pool, Aabb::FromPoint(beyond)).has_value());
  EXPECT_FALSE(index_.Seed(&pool, Aabb()).has_value());
}

// Box queries of assorted sizes plus degenerate ones: a point on an element
// corner, a zero-thickness slab through an element face, a box whose faces
// lie on element faces, one beside the data and one around all of it.
std::vector<Aabb> BoxQueries(const std::vector<RTreeEntry>& elements,
                             uint64_t seed) {
  const Aabb bounds = BoundsOf(elements);
  const Vec3 extents = bounds.Extents();
  Rng rng(seed);
  std::vector<Aabb> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(Aabb::FromCenterHalfExtents(
        rng.PointIn(bounds), extents * rng.Uniform(0.01, 0.3)));
  }
  const auto pick = [&]() -> const Aabb& {
    return elements[rng.UniformInt(0, elements.size() - 1)].box;
  };
  for (int i = 0; i < 3; ++i) {
    queries.push_back(Aabb::FromPoint(pick().hi()));
    const double x = pick().lo().x;
    queries.push_back(Aabb(Vec3(x, bounds.lo().y, bounds.lo().z),
                           Vec3(x, bounds.hi().y, bounds.hi().z)));
    queries.push_back(Aabb(pick().lo(), pick().hi()));
  }
  queries.push_back(Aabb(bounds.hi() + extents, bounds.hi() + extents * 2.0));
  queries.push_back(bounds.Inflated(1.0));
  return queries;
}

std::vector<uint64_t> BruteForceSphere(const std::vector<RTreeEntry>& elements,
                                       const Vec3& center, double radius) {
  std::vector<uint64_t> out;
  for (const RTreeEntry& e : elements) {
    if (e.box.IntersectsSphere(center, radius)) out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The k nearest element MBRs, ties by id: what KnnQuery ranks its
// candidates by.
std::vector<uint64_t> BruteForceKnn(const std::vector<RTreeEntry>& elements,
                                    const Vec3& center, size_t k) {
  std::vector<std::pair<double, uint64_t>> all;
  for (const RTreeEntry& e : elements) {
    const double d2 = e.box.DistanceSquaredTo(center);
    if (d2 < std::numeric_limits<double>::infinity()) {
      all.emplace_back(d2, e.id);
    }
  }
  std::sort(all.begin(), all.end());
  std::vector<uint64_t> out;
  for (size_t i = 0; i < std::min(k, all.size()); ++i) {
    out.push_back(all[i].second);
  }
  return out;
}

std::vector<uint64_t> PerCategory(const IoStats& io) {
  std::vector<uint64_t> reads;
  for (int c = 0; c < kNumPageCategories; ++c) {
    reads.push_back(io.ReadsIn(static_cast<PageCategory>(c)));
  }
  return reads;
}

TEST_P(TileDirectoryTest, DirectorySeededCrawlsMatchBruteForce) {
  const std::vector<Aabb> queries = BoxQueries(elements_, 505);
  for (size_t q = 0; q < queries.size(); ++q) {
    const Aabb& box = queries[q];
    SCOPED_TRACE("query " + std::to_string(q));
    const std::vector<uint64_t> oracle = BruteForce(elements_, box);

    IoStats range_io;
    BufferPool range_pool(file_.get(), &range_io);
    std::vector<uint64_t> got;
    index_.RangeQuery(&range_pool, box, &got);
    ASSERT_EQ(Sorted(got), oracle);

    // The seed phase reads only directory pages, at most three and, on
    // these tall trees, no more than the seed tree has internal levels, and
    // the crawl from its start reads exactly what RangeQuery reads on top.
    IoStats split_io;
    BufferPool split_pool(file_.get(), &split_io);
    const std::optional<RecordRef> start = index_.Seed(&split_pool, box);
    EXPECT_EQ(split_io.TotalReads(),
              split_io.ReadsIn(PageCategory::kSeedInternal));
    EXPECT_LE(split_io.TotalReads(), 3u);
    EXPECT_LE(split_io.TotalReads(),
              static_cast<uint64_t>(index_.seed_height() - 1));
    std::vector<uint64_t> crawled;
    if (start.has_value()) {
      EXPECT_TRUE(StoredTileOf(*file_, *start).Intersects(box));
      index_.Crawl(&split_pool, box, *start, &crawled);
    } else {
      EXPECT_TRUE(oracle.empty());
    }
    EXPECT_EQ(crawled, got);
    EXPECT_EQ(PerCategory(split_io), PerCategory(range_io));

    IoStats count_io;
    BufferPool count_pool(file_.get(), &count_io);
    EXPECT_EQ(index_.RangeCount(&count_pool, box), oracle.size());
    EXPECT_EQ(PerCategory(count_io), PerCategory(range_io));
  }

  const Aabb bounds = BoundsOf(elements_);
  const Vec3 extents = bounds.Extents();
  const double max_extent = std::max({extents.x, extents.y, extents.z});
  Rng rng(506);
  IoStats io;
  BufferPool pool(file_.get(), &io);
  for (int i = 0; i < 8; ++i) {
    const Vec3 center = rng.PointIn(bounds.Inflated(0.1 * max_extent));
    const double radius = i == 0 ? 0.0 : rng.Uniform(0.01, 0.2) * max_extent;
    std::vector<uint64_t> got;
    index_.SphereQuery(&pool, center, radius, &got);
    EXPECT_EQ(Sorted(got), BruteForceSphere(elements_, center, radius))
        << "ball " << center << " r " << radius;
    const size_t k = static_cast<size_t>(1) << (2 * (i % 4));
    EXPECT_EQ(index_.KnnQuery(&pool, center, k),
              BruteForceKnn(elements_, center, k))
        << "kNN " << center << " k " << k;
  }
}

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  return std::string(kDataSets[std::get<0>(info.param)].name) + "_" +
         std::to_string(kPageSizes[std::get<1>(info.param)]);
}

INSTANTIATE_TEST_SUITE_P(
    DataSetsAndPageSizes, TileDirectoryTest,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kDataSets)),
                       ::testing::Range<size_t>(0, std::size(kPageSizes))),
    ParamName);

// Every build that holds an element writes a directory, whatever the
// height of its seed tree: one leaf, two levels, taller, and elements whose
// tiles are all empty (all-NaN boxes), which get a one-page directory with
// empty bounds. Crawls seeded from it match brute force, and a lookup reads
// at most three directory pages, one when the directory has one page.
TEST(TileDirectoryBuildTest, EveryNonEmptyBuildHasADirectory) {
  // Empty boxes and boxes with every coordinate NaN: NaN centers only.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<RTreeEntry> all_nan;
  for (uint64_t i = 0; i < 300; ++i) {
    all_nan.push_back(RTreeEntry{
        i % 2 == 0 ? Aabb() : Aabb(Vec3(kNan, kNan, kNan), Vec3(kNan, kNan, kNan)),
        i});
  }
  struct Case {
    const char* name;
    uint32_t page_size;
    std::vector<RTreeEntry> elements;
    int seed_height;
  };
  const Case cases[] = {
      {"one leaf", 512, Uniform(12), 1},
      {"one leaf", 4096, Uniform(500), 1},
      {"height 2", 512, Uniform(150), 2},
      {"height 2", 4096, Uniform(20000), 2},
      {"tall", 512, Uniform(5000), 4},
      {"tall", 4096, Uniform(300000), 3},
      {"all NaN", 512, all_nan, 0},
      {"all NaN", 4096, all_nan, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.name) + ", " + std::to_string(c.page_size) +
                 " B");
    PageFile file(c.page_size);
    FlatIndex::BuildStats stats;
    const FlatIndex index = FlatIndex::Build(&file, c.elements, &stats);
    if (c.seed_height > 0) EXPECT_EQ(index.seed_height(), c.seed_height);
    EXPECT_NE(index.descriptor().directory_root, kInvalidPageId);
    EXPECT_GT(stats.directory_pages, 0u);
    EXPECT_EQ(stats.seed_internal_pages,
              file.PageCountIn(PageCategory::kSeedInternal));
    std::vector<Aabb> queries = testing::RandomQueries(20, 507);
    queries.push_back(BoundsOf(c.elements).Inflated(1.0));
    for (const Aabb& q : queries) {
      IoStats io;
      BufferPool pool(&file, &io);
      const std::optional<RecordRef> start = index.Seed(&pool, q);
      EXPECT_EQ(io.TotalReads(), io.ReadsIn(PageCategory::kSeedInternal));
      EXPECT_LE(io.TotalReads(), std::min<uint64_t>(3, stats.directory_pages));
      if (stats.directory_pages == 1 && !q.IsEmpty()) {
        EXPECT_EQ(io.TotalReads(), 1u);
      }
      std::vector<uint64_t> got;
      index.RangeQuery(&pool, q, &got);
      EXPECT_EQ(Sorted(got), BruteForce(c.elements, q));
      if (c.seed_height == 0) EXPECT_FALSE(start.has_value());
    }
  }
}

// A directory group holds at most one page of slots, its header slot
// included. A run of more pages than that, or more slabs, fails the build,
// which then writes no directory page; one member fewer fits.
TEST(TileDirectoryBuildTest, GroupOutgrowingAPageThrows) {
  constexpr uint32_t kPageSize = 512;
  // (512 - 32-byte header) / 8-byte slots, one of them the group header.
  constexpr uint32_t kSlotsPerPage = 60;
  const auto partitions_of = [](uint32_t count, bool one_run) {
    std::vector<PartitionInfo> partitions(count);
    for (uint32_t i = 0; i < count; ++i) {
      const double x = one_run ? 0.0 : i;
      const double z = one_run ? i : 0.0;
      partitions[i].tile = Aabb(Vec3(x, 0, z), Vec3(x + 1, 1, z + 1));
      partitions[i].slab = one_run ? 0 : i;
      partitions[i].run = one_run ? 0 : i;
    }
    return partitions;
  };
  for (const bool one_run : {true, false}) {
    SCOPED_TRACE(one_run ? "pages of one run" : "slabs");
    for (const uint32_t count : {kSlotsPerPage - 1, kSlotsPerPage}) {
      SCOPED_TRACE(std::to_string(count) + " members");
      const std::vector<PartitionInfo> partitions =
          partitions_of(count, one_run);
      std::vector<RecordRef> refs(count);
      for (uint32_t i = 0; i < count; ++i) {
        refs[i] = RecordRef{0, static_cast<uint16_t>(i)};
      }
      PageFile file(kPageSize);
      if (count == kSlotsPerPage) {
        EXPECT_THROW(WriteTileDirectory(&file, partitions, refs),
                     std::runtime_error);
        EXPECT_EQ(file.page_count(), 0u);
        continue;
      }
      const PageId root = WriteTileDirectory(&file, partitions, refs);
      EXPECT_EQ(root, 0u);
      IoStats io;
      BufferPool pool(&file, &io);
      for (uint32_t i = 0; i < count; ++i) {
        const Aabb center = Aabb::FromPoint(partitions[i].tile.Center());
        const std::optional<RecordRef> found =
            LocateTile(&pool, file, root, center);
        ASSERT_TRUE(found.has_value());
        EXPECT_EQ(*found, refs[i]);
      }
    }
  }
}

// A non-empty descriptor without a directory root is what an index saved
// before every index had a directory looks like: Attach refuses it. An
// empty index needs none.
TEST(TileDirectoryBuildTest, AttachRejectsDescriptorWithoutDirectoryRoot) {
  PageFile file(4096);
  const FlatIndex index = FlatIndex::Build(&file, Uniform(2000));
  FlatIndex::Descriptor tree_only = index.descriptor();
  tree_only.directory_root = kInvalidPageId;
  EXPECT_THROW(FlatIndex::Attach(&file, tree_only), std::runtime_error);
  EXPECT_TRUE(FlatIndex::Attach(&file, FlatIndex::Descriptor{}).empty());
}

// Corrupt directory bytes give a typed error, never an out-of-bounds read.
TEST(TileDirectoryCorruptionTest, MalformedPagesThrow) {
  PageFile file(512);
  const FlatIndex index = FlatIndex::Build(&file, Uniform(5000));
  char* root = file.MutableData(index.descriptor().directory_root);
  const Aabb query(Vec3(0, 0, 0), Vec3(1, 1, 1));  // in the first slab
  // Byte offsets in the root page (docs/file_format.md §3.1): the format
  // byte, the page count, and the slab group's header slot value.
  constexpr size_t kFormat = 3;
  constexpr size_t kPageCount = 4;
  constexpr size_t kSlabCount = 32 + 4;
  constexpr size_t kFirstSlabValue = 32 + 8 + 4;
  for (const auto& [offset, value] :
       std::vector<std::pair<size_t, uint32_t>>{{kFormat, 0},
                                                {kPageCount, 0},
                                                {kPageCount, 1u << 30},
                                                {kSlabCount, 0},
                                                {kSlabCount, 60000},
                                                {kFirstSlabValue, ~0u}}) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    const size_t width = offset == kFormat ? 1 : 4;
    char saved[4];
    std::memcpy(saved, root + offset, width);
    std::memcpy(root + offset, &value, width);
    IoStats io;
    BufferPool pool(&file, &io);
    std::vector<uint64_t> ids;
    EXPECT_THROW(index.RangeQuery(&pool, query, &ids), std::runtime_error);
    std::memcpy(root + offset, saved, width);
  }
  IoStats io;
  BufferPool pool(&file, &io);
  EXPECT_TRUE(index.Seed(&pool, query).has_value());
}

std::vector<Query> StoreQueries(uint64_t seed) {
  std::vector<Query> batch;
  for (const Aabb& box : testing::RandomQueries(24, seed)) {
    batch.push_back(Query::Range(box));
    batch.push_back(Query::RangeCount(box));
    batch.push_back(Query::Sphere(box.Center(), 0.5 * box.Extents().y));
  }
  return batch;
}

class TileDirectoryStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    elements_ = Uniform(40000);
    store_ = ShardedFlatStore::Build(
        elements_, {.num_shards = 2, .num_threads = 2, .page_size = 512});
    for (size_t s = 0; s < store_.shard_count(); ++s) {
      ASSERT_NE(store_.shard_index(s).descriptor().directory_root,
                kInvalidPageId)
          << "shard " << s;
    }
    // ctest runs each test in its own process, in parallel.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("flat_tile_directory_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    store_.Save(dir_.string());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<RTreeEntry> elements_;
  ShardedFlatStore store_;
  std::filesystem::path dir_;
};

TEST_F(TileDirectoryStoreTest, SaveLoadKeepsIdsAndIoStats) {
  const std::vector<Query> batch = StoreQueries(508);
  const std::vector<QueryResult> want = store_.RunBatch(batch);
  const ShardedFlatStore loaded = ShardedFlatStore::Load(dir_.string(), 2);
  for (size_t s = 0; s < loaded.shard_count(); ++s) {
    EXPECT_EQ(loaded.shard_index(s).descriptor().directory_root,
              store_.shard_index(s).descriptor().directory_root);
  }
  const std::vector<QueryResult> got = loaded.RunBatch(batch);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ids, want[i].ids) << "query " << i;
    EXPECT_EQ(got[i].count, want[i].count) << "query " << i;
    EXPECT_EQ(PerCategory(got[i].io), PerCategory(want[i].io))
        << "query " << i;
  }
  for (size_t i = 0; i < batch.size(); i += 3) {
    EXPECT_EQ(want[i].ids, BruteForce(elements_, batch[i].box));
  }
}

// A store saved before every index had a directory cannot load. Its
// catalog is FLATSHC2 (the v3 layout without each entry's u32 directory
// root, docs/file_format.md §4), rejected at the magic, or FLATSHC3 with a
// short shard's directory root left out, rejected naming the shard file.
TEST_F(TileDirectoryStoreTest, PreDirectoryCatalogIsRejected) {
  const std::filesystem::path catalog_path = dir_ / "catalog.flatshard";
  std::string bytes;
  {
    std::ifstream in(catalog_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(bytes.substr(0, 8), "FLATSHC3");
  std::string v2 = "FLATSHC2" + bytes.substr(8, 72);  // through shard_count
  size_t at = 80;
  for (size_t s = 0; s < store_.shard_count(); ++s) {
    uint32_t name_length;
    std::memcpy(&name_length, bytes.data() + at, sizeof(name_length));
    const size_t descriptor_end = at + 4 + name_length + 4 + 1 + 4;
    v2 += bytes.substr(at, descriptor_end - at);
    at = descriptor_end + 4;  // skip directory_root
    v2 += bytes.substr(at, 48 + 48 + 8);
    at += 48 + 48 + 8;
  }
  ASSERT_EQ(at, bytes.size());
  const auto load_error = [&](const std::string& catalog) {
    {
      std::ofstream out(catalog_path, std::ios::binary | std::ios::trunc);
      out << catalog;
    }
    try {
      ShardedFlatStore::Load(dir_.string(), 1);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("loaded");
  };
  EXPECT_NE(load_error(v2).find("bad magic"), std::string::npos);

  ShardCatalog catalog;
  {
    std::istringstream in(bytes);
    catalog = LoadShardCatalog(in);
  }
  catalog.shards[1].descriptor.directory_root = kInvalidPageId;
  std::ostringstream short_shard;
  SaveShardCatalog(catalog, short_shard);
  const std::string error = load_error(short_shard.str());
  EXPECT_NE(error.find("no tile directory root"), std::string::npos) << error;
  EXPECT_NE(error.find(catalog.shards[1].page_file_name), std::string::npos)
      << error;
}

TEST_F(TileDirectoryStoreTest, HostileCatalogDirectoryRootThrowsAtLoad) {
  const std::filesystem::path catalog_path = dir_ / "catalog.flatshard";
  ShardCatalog catalog;
  {
    std::ifstream in(catalog_path, std::ios::binary);
    catalog = LoadShardCatalog(in);
  }
  const PageId object_page = 0;  // Build writes the object pages first
  const PageId pages =
      static_cast<PageId>(store_.shard_index(0).file()->page_count());
  ASSERT_EQ(store_.shard_index(0).file()->category(object_page),
            PageCategory::kObject);
  for (const PageId hostile : {pages, pages + 1000, object_page}) {
    SCOPED_TRACE("directory root " + std::to_string(hostile));
    ShardCatalog bad = catalog;
    bad.shards[0].descriptor.directory_root = hostile;
    {
      std::ofstream out(catalog_path, std::ios::binary | std::ios::trunc);
      SaveShardCatalog(bad, out);
    }
    EXPECT_THROW(ShardedFlatStore::Load(dir_.string(), 1),
                 std::runtime_error);
  }
}

}  // namespace
}  // namespace flat

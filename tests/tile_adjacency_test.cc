// Properties of the tile-adjacency neighbor relation (ComputeNeighbors) and
// of the tile-gated crawl that relies on it, on realistic and degenerate
// data sets at several page sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/flat_index.h"
#include "core/metadata.h"
#include "core/partitioner.h"
#include "data/mesh_generator.h"
#include "data/neuron_generator.h"
#include "rtree/node.h"
#include "storage/buffer_pool.h"
#include "storage/disk_page_file.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::BruteForce;
using testing::Sorted;

std::vector<RTreeEntry> Uniform() { return testing::RandomEntries(3000, 301); }

std::vector<RTreeEntry> Mesh() {
  MeshParams params;
  params.kind = MeshKind::kFoldedSheet;
  params.target_triangles = 3000;
  params.seed = 302;
  return GenerateMesh(params).elements;
}

std::vector<RTreeEntry> Neuron() {
  NeuronParams params;
  params.total_elements = 4000;
  params.seed = 303;
  return GenerateNeurons(params).elements;
}

// One box repeated: every tile boundary lands on the same center planes,
// so most tiles have zero extent along some axis.
std::vector<RTreeEntry> Identical() {
  std::vector<RTreeEntry> elements;
  for (uint64_t i = 0; i < 300; ++i) {
    elements.push_back(RTreeEntry{Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)), i});
  }
  return elements;
}

// Points: boxes with zero extent on every axis.
std::vector<RTreeEntry> ZeroExtent() {
  Rng rng(304);
  const Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  std::vector<RTreeEntry> elements;
  for (uint64_t i = 0; i < 2000; ++i) {
    elements.push_back(RTreeEntry{Aabb::FromPoint(rng.PointIn(universe)), i});
  }
  return elements;
}

// Small boxes plus a few that span several tiles per axis.
std::vector<RTreeEntry> Oversized() {
  std::vector<RTreeEntry> elements = testing::RandomEntries(1500, 305, 1.0);
  Rng rng(306);
  for (size_t i = 0; i < elements.size(); i += 150) {
    elements[i].box = Aabb::FromCenterHalfExtents(
        elements[i].box.Center(),
        Vec3(rng.Uniform(8, 14), rng.Uniform(8, 14), rng.Uniform(8, 14)));
  }
  return elements;
}

// Unit cubes centred on an integer lattice: faces of neighbouring cubes
// touch at the midpoints between centers, which is where STR puts the tile
// seams, so element faces, page faces and tile faces coincide.
std::vector<RTreeEntry> Seams() {
  std::vector<RTreeEntry> elements;
  uint64_t id = 0;
  for (int x = 0; x < 12; ++x) {
    for (int y = 0; y < 12; ++y) {
      for (int z = 0; z < 12; ++z) {
        elements.push_back(RTreeEntry{
            Aabb::FromCenterHalfExtents(Vec3(x, y, z), Vec3(0.5, 0.5, 0.5)),
            id++});
      }
    }
  }
  return elements;
}

struct DataSet {
  const char* name;
  std::vector<RTreeEntry> (*make)();
};

const DataSet kDataSets[] = {
    {"uniform", Uniform},     {"mesh", Mesh},
    {"neuron", Neuron},       {"identical", Identical},
    {"zero_extent", ZeroExtent}, {"oversized", Oversized},
    {"seams", Seams},
};

// Box queries of assorted sizes, plus degenerate ones: a point on an
// element corner, a zero-thickness slab through an element face, and a box
// whose faces lie on element faces.
std::vector<Aabb> BoxQueries(const std::vector<RTreeEntry>& elements,
                             uint64_t seed) {
  const Aabb bounds = BoundsOf(elements);
  const Vec3 extents = bounds.Extents();
  Rng rng(seed);
  std::vector<Aabb> queries;
  for (int i = 0; i < 10; ++i) {
    const double frac = rng.Uniform(0.02, 0.4);
    queries.push_back(
        Aabb::FromCenterHalfExtents(rng.PointIn(bounds), extents * frac));
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
  return queries;
}

struct Sphere {
  Vec3 center;
  double radius;
};

std::vector<Sphere> SphereQueries(const std::vector<RTreeEntry>& elements,
                                  uint64_t seed) {
  const Aabb bounds = BoundsOf(elements);
  const Vec3 extents = bounds.Extents();
  const double max_extent = std::max({extents.x, extents.y, extents.z});
  Rng rng(seed);
  std::vector<Sphere> spheres;
  for (int i = 0; i < 8; ++i) {
    spheres.push_back(
        {rng.PointIn(bounds), rng.Uniform(0.01, 0.25) * max_extent});
  }
  // A zero-radius ball on an element corner.
  spheres.push_back(
      {elements[rng.UniformInt(0, elements.size() - 1)].box.lo(), 0.0});
  return spheres;
}

std::vector<uint64_t> BruteForceSphere(const std::vector<RTreeEntry>& elements,
                                       const Sphere& s) {
  std::vector<uint64_t> out;
  for (const RTreeEntry& e : elements) {
    if (e.box.IntersectsSphere(s.center, s.radius)) out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

using Param = std::tuple<size_t, uint32_t>;  // data set index, page size

class TileAdjacencyTest : public ::testing::TestWithParam<Param> {
 protected:
  const DataSet& data() const { return kDataSets[std::get<0>(GetParam())]; }
  uint32_t page_size() const { return std::get<1>(GetParam()); }
};

TEST_P(TileAdjacencyTest, RelationMatchesDefinitionAndIsWellFormed) {
  std::vector<RTreeEntry> elements = data().make();
  std::vector<PartitionInfo> partitions = StrPartition(
      elements, NodeCapacity(page_size()), BoundsOf(elements));
  ComputeNeighbors(&partitions);
  const size_t n = partitions.size();

  // The stored (float32, outward-rounded) boxes the relation is defined on.
  std::vector<Aabb> tiles(n);
  std::vector<Aabb> pages(n);
  for (size_t i = 0; i < n; ++i) {
    tiles[i] = PackedAabb::FromAabb(partitions[i].tile).ToAabb();
    pages[i] = PackedAabb::FromAabb(partitions[i].page_mbr).ToAabb();
  }
  uint64_t stretched_pointers = 0;
  for (size_t i = 0; i < n; ++i) {
    const std::vector<uint32_t>& nbrs = partitions[i].neighbors;
    EXPECT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end(),
                                   std::greater_equal<uint32_t>()) ==
                nbrs.end())
        << "neighbors of " << i << " not strictly ascending";
    for (size_t j = 0; j < n; ++j) {
      const bool listed = std::binary_search(nbrs.begin(), nbrs.end(),
                                             static_cast<uint32_t>(j));
      if (i == j) {
        EXPECT_FALSE(listed) << "partition " << i << " lists itself";
        continue;
      }
      // Algorithm 1's relation: stretched partition MBRs intersect.
      const bool stretched = partitions[i].partition_mbr.Intersects(
          partitions[j].partition_mbr);
      stretched_pointers += stretched;
      const bool related = tiles[i].Intersects(tiles[j]) ||
                           pages[i].Intersects(tiles[j]) ||
                           tiles[i].Intersects(pages[j]);
      ASSERT_EQ(listed, stretched && related) << i << " -> " << j;
      if (partitions[i].tile.Intersects(partitions[j].tile)) {
        ASSERT_TRUE(listed) << "touching tiles " << i << ", " << j
                            << " are not neighbors";
      }
      const std::vector<uint32_t>& back = partitions[j].neighbors;
      ASSERT_EQ(listed, std::binary_search(back.begin(), back.end(),
                                           static_cast<uint32_t>(i)))
          << "asymmetric " << i << " <-> " << j;
    }
  }
  EXPECT_LE(TotalNeighborPointers(partitions), stretched_pointers);
}

// Crawls every box and sphere query from every legal start (every record
// whose page MBR meets the query's box) and checks each against brute force.
void ExpectEveryStartMatchesBruteForce(const FlatIndex& index,
                                       const std::vector<RTreeEntry>& elements,
                                       const char* name) {
  IoStats stats;
  BufferPool pool(index.file(), &stats);

  for (const Aabb& q : BoxQueries(elements, 307)) {
    const std::vector<uint64_t> oracle = BruteForce(elements, q);
    const std::vector<RecordRef> starts = index.FindAllCandidateRecords(q);
    for (const RecordRef& start : starts) {
      std::vector<uint64_t> got;
      index.Crawl(&pool, q, start, &got);
      ASSERT_EQ(Sorted(got), oracle)
          << name << " box crawl from leaf " << start.page << " slot "
          << start.slot;
    }
  }
  for (const Sphere& s : SphereQueries(elements, 308)) {
    const std::vector<uint64_t> oracle = BruteForceSphere(elements, s);
    const Aabb gate = Aabb::FromCenterHalfExtents(
        s.center, Vec3(s.radius, s.radius, s.radius));
    for (const RecordRef& start : index.FindAllCandidateRecords(gate)) {
      std::vector<uint64_t> got;
      index.CrawlSphere(&pool, s.center, s.radius, start, &got);
      ASSERT_EQ(Sorted(got), oracle)
          << name << " sphere crawl from leaf " << start.page << " slot "
          << start.slot;
    }
  }
}

TEST_P(TileAdjacencyTest, CrawlFromEveryStartMatchesBruteForce) {
  const std::vector<RTreeEntry> elements = data().make();
  PageFile file(page_size());
  const FlatIndex index = FlatIndex::Build(&file, elements);
  ExpectEveryStartMatchesBruteForce(index, elements, data().name);
}

// The same on the index saved as FLATPGF5 and reopened from disk: the v5
// records the crawl reads back from the file (boxes on the leaf grid, half-
// page boxes, bitmaps, hints) keep it exact.
TEST_P(TileAdjacencyTest, CrawlFromEveryStartOnReopenedFileMatchesBruteForce) {
  const std::vector<RTreeEntry> elements = data().make();
  PageFile file(page_size());
  const FlatIndex built = FlatIndex::Build(&file, elements);
  const testing::ScopedPageFileOnDisk on_disk(
      file, std::string("tile_adjacency_") + data().name + "_" +
                std::to_string(page_size()));
  std::ifstream saved(on_disk.path(), std::ios::binary);
  std::string magic(8, '\0');
  saved.read(magic.data(), static_cast<std::streamsize>(magic.size()));
  ASSERT_EQ(magic, "FLATPGF5");
  const std::unique_ptr<DiskPageFile> loaded =
      DiskPageFile::Open(on_disk.path());
  ASSERT_EQ(loaded->page_size(), page_size());
  const FlatIndex index = FlatIndex::Attach(loaded.get(), built.descriptor());
  ExpectEveryStartMatchesBruteForce(index, elements, data().name);
}

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  return std::string(kDataSets[std::get<0>(info.param)].name) + "_" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    DataSetsAndPageSizes, TileAdjacencyTest,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kDataSets)),
                       ::testing::Values(512u, 1024u, 4096u)),
    ParamName);

// The point of the relation: on neuron data it keeps far fewer pointers
// than Algorithm 1's stretched-MBR relation, so a seed leaf holds more
// records and the crawl reads fewer leaves. The volume is shrunk with the
// element count to keep the tissue as dense as the full-size data set.
TEST(TileAdjacencyEffectTest, NeuronPointersFallBelowStretchedRelation) {
  NeuronParams params;
  params.total_elements = 60000;
  params.volume_side_um = 9.0;
  params.seed = 309;
  std::vector<RTreeEntry> elements = GenerateNeurons(params).elements;
  std::vector<PartitionInfo> partitions =
      StrPartition(elements, NodeCapacity(kDefaultPageSize),
                   BoundsOf(elements));
  ComputeNeighbors(&partitions);
  uint64_t stretched = 0;
  for (size_t i = 0; i < partitions.size(); ++i) {
    for (size_t j = 0; j < partitions.size(); ++j) {
      stretched += i != j && partitions[i].partition_mbr.Intersects(
                                 partitions[j].partition_mbr);
    }
  }
  // 18.8k vs 35.1k here; 161k vs 432k per shard of the 2M-element store.
  EXPECT_LT(5 * TotalNeighborPointers(partitions), 3 * stretched);
}

}  // namespace
}  // namespace flat

#include "core/partitioner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/flat_index.h"
#include "core/metadata.h"
#include "parallel/thread_pool.h"
#include "rtree/node.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::RandomEntries;
using testing::RandomEntriesWithEmptyAndNan;

Aabb UniverseOf(const std::vector<RTreeEntry>& entries) {
  Aabb u;
  for (const auto& e : entries) u.ExpandToInclude(e.box);
  return u;
}

class PartitionerTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PartitionerTest, PartitionsCoverAllElementsExactlyOnce) {
  auto entries = RandomEntries(GetParam(), 81);
  const Aabb universe = UniverseOf(entries);
  auto partitions = StrPartition(&entries, /*page_capacity=*/73, universe);

  std::vector<bool> covered(entries.size(), false);
  for (const auto& p : partitions) {
    EXPECT_GT(p.count, 0u);
    EXPECT_LE(p.count, 73u);
    for (uint32_t i = 0; i < p.count; ++i) {
      ASSERT_LT(p.first + i, entries.size());
      ASSERT_FALSE(covered[p.first + i]) << "element assigned twice";
      covered[p.first + i] = true;
    }
  }
  EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                          [](bool b) { return b; }));
}

TEST_P(PartitionerTest, TilesLeaveNoEmptySpace) {
  // Property 1 (Section V-B): the union of all partitions covers the entire
  // space. We verify by sampling: every point of the universe lies in at
  // least one tile.
  auto entries = RandomEntries(GetParam(), 82);
  const Aabb universe = UniverseOf(entries);
  auto partitions = StrPartition(&entries, 73, universe);

  Rng rng(83);
  for (int trial = 0; trial < 2000; ++trial) {
    const Vec3 p = rng.PointIn(universe);
    bool inside_any = false;
    for (const auto& partition : partitions) {
      if (partition.tile.Contains(p)) {
        inside_any = true;
        break;
      }
    }
    EXPECT_TRUE(inside_any) << "uncovered point " << p;
  }
}

TEST_P(PartitionerTest, PartitionMbrEnclosesPageMbr) {
  // Property 2 (Section V-B): each partition MBR encloses the page MBR.
  auto entries = RandomEntries(GetParam(), 84);
  const Aabb universe = UniverseOf(entries);
  auto partitions = StrPartition(&entries, 73, universe);
  for (const auto& p : partitions) {
    EXPECT_TRUE(p.partition_mbr.Contains(p.page_mbr));
    EXPECT_TRUE(p.partition_mbr.Contains(p.tile));
  }
}

TEST_P(PartitionerTest, ElementCentersLieInTheirTile) {
  auto entries = RandomEntries(GetParam(), 85);
  const Aabb universe = UniverseOf(entries);
  auto partitions = StrPartition(&entries, 73, universe);
  for (const auto& p : partitions) {
    for (uint32_t i = 0; i < p.count; ++i) {
      EXPECT_TRUE(p.tile.Contains(entries[p.first + i].box.Center()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PartitionerTest,
                         ::testing::Values(1, 5, 73, 74, 500, 5000, 20000));

TEST(PartitionerEdgeTest, EmptyInput) {
  std::vector<RTreeEntry> entries;
  auto partitions = StrPartition(&entries, 73, Aabb());
  EXPECT_TRUE(partitions.empty());
}

TEST(PartitionerEdgeTest, AllElementsIdentical) {
  std::vector<RTreeEntry> entries;
  for (uint64_t i = 0; i < 300; ++i) {
    entries.push_back(RTreeEntry{Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)), i});
  }
  const Aabb universe(Vec3(1, 1, 1), Vec3(2, 2, 2));
  auto partitions = StrPartition(&entries, 73, universe);
  size_t total = 0;
  for (const auto& p : partitions) total += p.count;
  EXPECT_EQ(total, entries.size());
}

// Random boxes centered outside 39 ≤ x ≤ 43, plus 2000 boxes centered in
// 40.25 ≤ x ≤ 41.75 whose y lower bound is NaN: whole x-slabs then have no
// finite y-center, and only their tiles cover that stretch of x.
std::vector<RTreeEntry> EntriesWithNanYSlabs() {
  std::vector<RTreeEntry> entries;
  for (const RTreeEntry& e : RandomEntries(3000, 96)) {
    const double x = e.box.Center().x;
    if (x < 39 || x > 43) entries.push_back(e);
  }
  Rng rng(97);
  for (uint64_t i = 0; i < 2000; ++i) {
    const double x = rng.Uniform(40, 41.5);
    const double z = rng.Uniform(0, 100);
    entries.push_back(RTreeEntry{
        Aabb(Vec3(x, std::numeric_limits<double>::quiet_NaN(), z),
             Vec3(x + 0.5, 50, z + 0.5)),
        3000 + i});
  }
  return entries;
}

// Empty boxes and NaN coordinates give NaN centers, which EntryCenterOrder
// sorts last. A tile boundary cut at a NaN center gives the neighboring
// finite tile a NaN bound, which no query meets, so crawls that must pass
// through that tile miss finite hits; a range with no finite center at all
// must still be covered. Every tile must be empty (a chunk of NaN centers)
// or NaN-free, and every query must match the oracle.
TEST(PartitionerEdgeTest, EmptyAndNanBoxesLeaveNoHoleInTheTiling) {
  std::vector<std::pair<std::vector<RTreeEntry>, uint64_t>> data_sets;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (const size_t count : {2000u, 20000u}) {
      data_sets.emplace_back(RandomEntriesWithEmptyAndNan(count, seed),
                             100 + seed);
    }
  }
  data_sets.emplace_back(EntriesWithNanYSlabs(), 98);
  size_t nan_tiles = 0;
  size_t queries = 0;
  size_t wrong = 0;
  for (const auto& [entries, query_seed] : data_sets) {
    for (const uint32_t page_size : {512u, 4096u}) {
      std::vector<RTreeEntry> elements = entries;
      for (const PartitionInfo& p :
           StrPartition(&elements, NodeCapacity(page_size),
                        UniverseOf(entries))) {
        bool has_nan = false;
        for (int axis = 0; axis < 3; ++axis) {
          has_nan = has_nan || std::isnan(p.tile.lo()[axis]) ||
                    std::isnan(p.tile.hi()[axis]);
        }
        nan_tiles += !p.tile.IsEmpty() && has_nan;
      }
      PageFile file(page_size);
      const FlatIndex index = FlatIndex::Build(&file, entries);
      IoStats stats;
      BufferPool pool(&file, &stats);
      for (const Aabb& q : testing::RandomQueries(60, query_seed)) {
        std::vector<uint64_t> got;
        index.RangeQuery(&pool, q, &got);
        ++queries;
        wrong += testing::Sorted(got) != testing::BruteForce(entries, q);
      }
    }
  }
  EXPECT_EQ(nan_tiles, 0u);
  EXPECT_EQ(wrong, 0u) << "of " << queries << " queries";
}

bool SameBits(const Aabb& a, const Aabb& b) {
  return std::memcmp(&a, &b, sizeof(Aabb)) == 0;
}

// StrPartition fixes which elements share a partition, but not their order
// inside it; everything it returns must be the same for any input order
// and thread count.
TEST(PartitionerDeterminismTest, SameForAnyInputOrderAndThreadCount) {
  ThreadPool pool(4);
  for (const std::vector<RTreeEntry>& input :
       {RandomEntries(20000, 90), RandomEntriesWithEmptyAndNan(20000, 91)}) {
    const Aabb universe = UniverseOf(input);
    std::vector<RTreeEntry> ref_elements = input;
    const std::vector<PartitionInfo> ref =
        StrPartition(&ref_elements, 73, universe);
    std::vector<RTreeEntry> shuffled = input;
    std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(92));
    std::vector<RTreeEntry> reversed(input.rbegin(), input.rend());
    for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
      for (std::vector<RTreeEntry> elements : {input, shuffled, reversed}) {
        const std::vector<PartitionInfo> got =
            StrPartition(&elements, 73, universe, threads);
        ASSERT_EQ(got.size(), ref.size());
        for (size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(got[i].first, ref[i].first) << "partition " << i;
          ASSERT_EQ(got[i].count, ref[i].count) << "partition " << i;
          ASSERT_TRUE(SameBits(got[i].tile, ref[i].tile)) << "partition " << i;
          ASSERT_TRUE(SameBits(got[i].page_mbr, ref[i].page_mbr));
          ASSERT_TRUE(SameBits(got[i].partition_mbr, ref[i].partition_mbr));
          std::vector<uint64_t> got_ids;
          std::vector<uint64_t> ref_ids;
          for (uint32_t k = 0; k < ref[i].count; ++k) {
            got_ids.push_back(elements[got[i].first + k].id);
            ref_ids.push_back(ref_elements[ref[i].first + k].id);
          }
          std::sort(got_ids.begin(), got_ids.end());
          std::sort(ref_ids.begin(), ref_ids.end());
          ASSERT_EQ(got_ids, ref_ids) << "members of partition " << i;
        }
      }
    }
  }
}

// ComputeNeighbors against its definition, pair by pair: A lists B iff the
// stretched partition MBRs intersect and tile_A ∩ tile_B, page_A ∩ tile_B
// or tile_A ∩ page_B on the float32 boxes a record stores.
std::vector<std::vector<uint32_t>> BruteForceNeighbors(
    const std::vector<PartitionInfo>& partitions) {
  const size_t n = partitions.size();
  std::vector<Aabb> tiles(n);
  std::vector<Aabb> pages(n);
  for (size_t i = 0; i < n; ++i) {
    tiles[i] = PackedAabb::FromAabb(partitions[i].tile).ToAabb();
    pages[i] = PackedAabb::FromAabb(partitions[i].page_mbr).ToAabb();
  }
  std::vector<std::vector<uint32_t>> out(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j &&
          partitions[i].partition_mbr.Intersects(partitions[j].partition_mbr) &&
          (tiles[i].Intersects(tiles[j]) || pages[i].Intersects(tiles[j]) ||
           tiles[i].Intersects(pages[j]))) {
        out[i].push_back(static_cast<uint32_t>(j));
      }
    }
  }
  return out;
}

TEST(NeighborTest, MatchesBruteForceRelation) {
  std::vector<RTreeEntry> identical;
  for (uint64_t i = 0; i < 300; ++i) {
    identical.push_back(RTreeEntry{Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)), i});
  }
  const std::vector<std::pair<std::string, std::vector<RTreeEntry>>> inputs = {
      {"random", RandomEntries(20000, 93, /*max_side=*/12.0)},
      {"empty", {}},
      {"single_partition", RandomEntries(50, 94)},
      {"identical", identical},
      {"empty_and_nan", RandomEntriesWithEmptyAndNan(3000, 95)},
  };
  ThreadPool pool(4);
  for (const auto& [name, input] : inputs) {
    std::vector<RTreeEntry> elements = input;
    const std::vector<PartitionInfo> base =
        StrPartition(&elements, 73, UniverseOf(elements));
    const std::vector<std::vector<uint32_t>> want = BruteForceNeighbors(base);
    for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
      std::vector<PartitionInfo> partitions = base;
      ComputeNeighbors(&partitions, threads);
      ASSERT_EQ(partitions.size(), want.size()) << name;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(partitions[i].neighbors, want[i])
            << name << ", partition " << i;
      }
    }
  }
}

TEST(NeighborTest, TwoTouchingPartitionsAreNeighbors) {
  // 2 * capacity elements in two clearly separated clusters: the two tiles
  // still share a boundary plane (no empty space allowed), so they must be
  // mutual neighbors.
  std::vector<RTreeEntry> entries;
  Rng rng(86);
  for (uint64_t i = 0; i < 8; ++i) {
    const Vec3 c(rng.Uniform(0, 10), rng.Uniform(0, 10), rng.Uniform(0, 10));
    entries.push_back(
        RTreeEntry{Aabb::FromCenterHalfExtents(c, Vec3(0.1, 0.1, 0.1)), i});
  }
  for (uint64_t i = 8; i < 16; ++i) {
    const Vec3 c(rng.Uniform(90, 100), rng.Uniform(0, 10),
                 rng.Uniform(0, 10));
    entries.push_back(
        RTreeEntry{Aabb::FromCenterHalfExtents(c, Vec3(0.1, 0.1, 0.1)), i});
  }
  Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  auto partitions = StrPartition(&entries, 8, universe);
  ASSERT_EQ(partitions.size(), 2u);
  ComputeNeighbors(&partitions);
  ASSERT_EQ(partitions[0].neighbors.size(), 1u);
  ASSERT_EQ(partitions[1].neighbors.size(), 1u);
  EXPECT_EQ(partitions[0].neighbors[0], 1u);
  EXPECT_EQ(partitions[1].neighbors[0], 0u);
}

TEST(NeighborTest, RelationIsSymmetricAndIrreflexive) {
  auto entries = RandomEntries(5000, 87);
  const Aabb universe = UniverseOf(entries);
  auto partitions = StrPartition(&entries, 73, universe);
  ComputeNeighbors(&partitions);

  for (size_t i = 0; i < partitions.size(); ++i) {
    const auto& nbrs = partitions[i].neighbors;
    EXPECT_FALSE(std::binary_search(nbrs.begin(), nbrs.end(),
                                    static_cast<uint32_t>(i)))
        << "partition is its own neighbor";
    for (uint32_t j : nbrs) {
      const auto& back = partitions[j].neighbors;
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(),
                                     static_cast<uint32_t>(i)))
          << "asymmetric neighbor relation " << i << " -> " << j;
    }
  }
  EXPECT_EQ(TotalNeighborPointers(partitions) % 2, 0u);
}

TEST(NeighborTest, TileAdjacencyGraphIsConnected) {
  // Because tiles cover space with no gaps, the partition adjacency graph of
  // any data set must be connected — the property that makes the crawl reach
  // every page (even across concave "holes" in the data).
  auto entries = RandomEntries(3000, 88);
  const Aabb universe = UniverseOf(entries);
  auto partitions = StrPartition(&entries, 73, universe);
  ComputeNeighbors(&partitions);

  std::vector<bool> visited(partitions.size(), false);
  std::vector<uint32_t> stack = {0};
  visited[0] = true;
  size_t reached = 1;
  while (!stack.empty()) {
    uint32_t i = stack.back();
    stack.pop_back();
    for (uint32_t j : partitions[i].neighbors) {
      if (!visited[j]) {
        visited[j] = true;
        ++reached;
        stack.push_back(j);
      }
    }
  }
  EXPECT_EQ(reached, partitions.size());
}

TEST(NeighborTest, InflatingPartitionsIncreasesPointerCount) {
  // Figure 21's mechanism: larger partitions => more intersections. A page
  // MBR reaching into more tiles links to more partitions; the partition
  // MBR grows with it so it still encloses the page (ComputeNeighbors'
  // candidate filter).
  auto entries = RandomEntries(5000, 89);
  const Aabb universe = UniverseOf(entries);
  auto partitions = StrPartition(&entries, 73, universe);
  ComputeNeighbors(&partitions);
  const uint64_t baseline = TotalNeighborPointers(partitions);

  auto inflated = partitions;
  for (auto& p : inflated) {
    p.page_mbr = p.page_mbr.Inflated(3.0);
    p.partition_mbr = p.partition_mbr.Inflated(3.0);
  }
  ComputeNeighbors(&inflated);
  EXPECT_GT(TotalNeighborPointers(inflated), baseline);
}

}  // namespace
}  // namespace flat

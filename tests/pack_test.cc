#include "rtree/pack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "parallel/thread_pool.h"
#include "rtree/node.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::RandomEntries;
using testing::RandomEntriesWithEmptyAndNan;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<uint64_t> Ids(const std::vector<RTreeEntry>& entries) {
  std::vector<uint64_t> ids;
  for (const RTreeEntry& e : entries) ids.push_back(e.id);
  return ids;
}

TEST(EntryCenterOrderTest, IsAStrictTotalOrderOnDistinctEntries) {
  // Identical centers, distinct ids: the tie-break must order them.
  const Aabb box(Vec3(1, 1, 1), Vec3(2, 2, 2));
  const RTreeEntry a{box, 1};
  const RTreeEntry b{box, 2};
  EntryCenterOrder order{0};
  EXPECT_TRUE(order(a, b));
  EXPECT_FALSE(order(b, a));
  EXPECT_FALSE(order(a, a));

  // Same center, different extents: corners break the tie before ids.
  const RTreeEntry wide{Aabb(Vec3(0.5, 1, 1), Vec3(2.5, 2, 2)), 9};
  EXPECT_TRUE(order(wide, a));
  EXPECT_FALSE(order(a, wide));
}

TEST(EntryCenterOrderTest, IsAStrictWeakOrderWithEmptyAndNanBoxes) {
  // Empty boxes have a NaN center; the order must still be irreflexive and
  // transitive, with transitive equivalence, or std::sort and
  // std::nth_element are undefined.
  std::vector<RTreeEntry> entries = {
      {Aabb(), 1},
      {Aabb(), 2},
      {Aabb(Vec3(kNan, 0, 0), Vec3(1, 1, 1)), 3},
      {Aabb(Vec3(0, kNan, 0), Vec3(1, 1, 1)), 4},
      {Aabb(Vec3(0, 0, 0), Vec3(1, 1, kNan)), 5},
      {Aabb(Vec3(-kInf, 0, 0), Vec3(kInf, 1, 1)), 6},
      {Aabb(Vec3(-0.0, 0, 0), Vec3(0.0, 1, 1)), 7},
      {Aabb(Vec3(0.0, 0, 0), Vec3(-0.0, 1, 1)), 7},
      {Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)), 8},
      {Aabb(Vec3(-kInf, -kInf, -kInf), Vec3(-1, -1, -1)), 9},
  };
  for (const RTreeEntry& e : RandomEntries(12, 70)) entries.push_back(e);
  for (int axis = 0; axis < 3; ++axis) {
    const EntryCenterOrder less{axis};
    const auto equivalent = [&](const RTreeEntry& a, const RTreeEntry& b) {
      return !less(a, b) && !less(b, a);
    };
    for (const RTreeEntry& a : entries) {
      EXPECT_FALSE(less(a, a));
      for (const RTreeEntry& b : entries) {
        for (const RTreeEntry& c : entries) {
          if (less(a, b) && less(b, c)) EXPECT_TRUE(less(a, c));
          if (equivalent(a, b) && equivalent(b, c)) {
            EXPECT_TRUE(equivalent(a, c));
          }
        }
        // A NaN center sorts after every number.
        const double ca = a.box.Center()[axis];
        const double cb = b.box.Center()[axis];
        if (!std::isnan(ca) && std::isnan(cb)) EXPECT_TRUE(less(a, b));
      }
    }
  }
}

TEST(EntryCenterOrderTest, KeepsTheNumericOrderWithoutNans) {
  // Without NaN the order is the plain lexicographic one on (center, lo.x,
  // hi.x, lo.y, hi.y, lo.z, hi.z, id).
  const auto reference = [](int axis, const RTreeEntry& a,
                            const RTreeEntry& b) {
    const double ca = a.box.Center()[axis];
    const double cb = b.box.Center()[axis];
    if (ca != cb) return ca < cb;
    for (int ax = 0; ax < 3; ++ax) {
      const double la = a.box.lo()[ax];
      const double lb = b.box.lo()[ax];
      if (la != lb) return la < lb;
      const double ha = a.box.hi()[ax];
      const double hb = b.box.hi()[ax];
      if (ha != hb) return ha < hb;
    }
    return a.id < b.id;
  };
  std::vector<RTreeEntry> entries = RandomEntries(200, 71);
  // Shared centers and corners so the tie-breaks run.
  for (size_t i = 0; i < 50; ++i) entries[i + 50].box = entries[i].box;
  for (size_t i = 100; i < 120; ++i) {
    entries[i].box = Aabb(Vec3(1, 1, 1), Vec3(3, 3, 3));
  }
  for (int axis = 0; axis < 3; ++axis) {
    for (const RTreeEntry& a : entries) {
      for (const RTreeEntry& b : entries) {
        ASSERT_EQ(EntryCenterOrder{axis}(a, b), reference(axis, a, b));
      }
    }
  }
}

class SelectChunksTest : public ::testing::TestWithParam<int> {};

TEST_P(SelectChunksTest, PutsEveryEntryInTheChunkASortWould) {
  const int axis = GetParam();
  std::vector<RTreeEntry> identical;
  for (uint64_t i = 0; i < 500; ++i) {
    identical.push_back(RTreeEntry{Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)), i});
  }
  const std::vector<std::vector<RTreeEntry>> inputs = {
      RandomEntries(3000, 72), identical,
      RandomEntriesWithEmptyAndNan(3000, 73)};
  ThreadPool pool(4);
  for (const std::vector<RTreeEntry>& input : inputs) {
    const size_t n = input.size();
    // Three disjoint ranges with different chunk sizes, and one untouched
    // gap between the first two.
    for (size_t chunk : {1, 2, 7, 73, 150, 1000}) {
      const std::vector<ChunkedRange> ranges = {
          {0, n / 3, chunk}, {n / 3 + 5, 2 * n / 3, chunk + 3},
          {2 * n / 3, n, n}};
      std::vector<RTreeEntry> sorted = input;
      for (const ChunkedRange& r : ranges) {
        std::sort(sorted.begin() + r.begin, sorted.begin() + r.end,
                  EntryCenterOrder{axis});
      }
      for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
        std::vector<RTreeEntry> selected = input;
        SelectChunks(&selected, ranges, axis, threads);
        for (size_t i = n / 3; i < n / 3 + 5; ++i) {
          ASSERT_EQ(selected[i].id, input[i].id) << "entry outside the ranges";
        }
        for (const ChunkedRange& r : ranges) {
          for (size_t s = r.begin; s < r.end; s += r.chunk) {
            const size_t e = std::min(r.end, s + r.chunk);
            if (s > r.begin) {
              ASSERT_EQ(selected[s].id, sorted[s].id)
                  << "cut at " << s << ", chunk " << chunk;
            }
            std::vector<uint64_t> got(e - s);
            std::vector<uint64_t> want(e - s);
            for (size_t i = s; i < e; ++i) {
              got[i - s] = selected[i].id;
              want[i - s] = sorted[i].id;
            }
            std::sort(got.begin(), got.end());
            std::sort(want.begin(), want.end());
            ASSERT_EQ(got, want) << "chunk at " << s << ", chunk " << chunk;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Axes, SelectChunksTest, ::testing::Values(0, 1, 2));

TEST(StrOrderTest, SmallInputUnchangedInSize) {
  auto entries = RandomEntries(10, 1);
  auto copy = entries;
  StrOrder(&entries, 73);
  EXPECT_EQ(entries.size(), copy.size());
}

TEST(StrOrderTest, PreservesMultisetOfIds) {
  auto entries = RandomEntries(1000, 2);
  StrOrder(&entries, 16);
  std::vector<uint64_t> ids;
  for (const auto& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size(); ++i) ASSERT_EQ(ids[i], i);
}

TEST(StrOrderTest, ConsecutiveRunsAreSpatiallyTight) {
  // The mean volume of bounding boxes of consecutive capacity-sized runs
  // must be far below that of random runs — that's STR's whole point.
  auto entries = RandomEntries(2000, 3, /*max_side=*/0.5);
  auto shuffled = entries;
  const uint32_t cap = 16;

  auto run_volume = [cap](const std::vector<RTreeEntry>& v) {
    double total = 0.0;
    size_t runs = 0;
    for (size_t s = 0; s + cap <= v.size(); s += cap, ++runs) {
      Aabb box;
      for (size_t i = s; i < s + cap; ++i) box.ExpandToInclude(v[i].box);
      total += box.Volume();
    }
    return total / runs;
  };

  StrOrder(&entries, cap);
  EXPECT_LT(run_volume(entries), 0.2 * run_volume(shuffled));
}

TEST(StrOrderTest, EqualsThreeFullSortsForAnyInputOrderAndThreadCount) {
  // The order StrOrder computed by sorting: all entries on x, each slab on
  // y, each run on z.
  const auto three_sorts = [](std::vector<RTreeEntry> v, uint32_t cap) {
    const size_t n = v.size();
    const size_t sx = CeilCbrt((n + cap - 1) / cap);
    const size_t slab = (n + sx - 1) / sx;
    std::sort(v.begin(), v.end(), EntryCenterOrder{0});
    for (size_t xs = 0; xs < n; xs += slab) {
      const size_t xe = std::min(n, xs + slab);
      std::sort(v.begin() + xs, v.begin() + xe, EntryCenterOrder{1});
      const size_t sy = CeilSqrt((xe - xs + cap - 1) / cap);
      const size_t run = (xe - xs + sy - 1) / sy;
      for (size_t ys = xs; ys < xe; ys += run) {
        std::sort(v.begin() + ys, v.begin() + std::min(xe, ys + run),
                  EntryCenterOrder{2});
      }
    }
    return v;
  };
  ThreadPool pool(4);
  for (const std::vector<RTreeEntry>& input :
       {RandomEntries(5000, 74), RandomEntriesWithEmptyAndNan(5000, 75)}) {
    for (uint32_t cap : {9u, 73u, 252u}) {
      const std::vector<uint64_t> want = Ids(three_sorts(input, cap));
      std::vector<RTreeEntry> shuffled = input;
      std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(cap));
      std::vector<RTreeEntry> reversed(input.rbegin(), input.rend());
      for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
        for (std::vector<RTreeEntry> entries : {input, shuffled, reversed}) {
          StrOrder(&entries, cap, threads);
          ASSERT_EQ(Ids(entries), want) << "capacity " << cap;
        }
      }
    }
  }
}

TEST(PackLevelTest, PacksFullPagesInOrder) {
  PageFile file(512);  // 9 slots per page
  const uint32_t cap = NodeCapacity(512);
  auto entries = RandomEntries(3 * cap + 2, 4);
  auto parents = PackLevel(&file, entries, /*level=*/0);
  ASSERT_EQ(parents.size(), 4u);
  EXPECT_EQ(file.PageCountIn(PageCategory::kRTreeLeaf), 4u);

  // Every parent box covers exactly its children.
  size_t index = 0;
  for (const RTreeEntry& parent : parents) {
    NodeView node(file.Data(static_cast<PageId>(parent.id)));
    EXPECT_EQ(node.level(), 0u);
    Aabb expected;
    for (uint16_t i = 0; i < node.count(); ++i) {
      EXPECT_EQ(node.IdAt(i), entries[index].id);
      expected.ExpandToInclude(node.BoxAt(i));
      ++index;
    }
    EXPECT_EQ(parent.box, expected);
  }
  EXPECT_EQ(index, entries.size());
}

TEST(PackLevelTest, CategoryOverridesWork) {
  PageFile file(512);
  auto entries = RandomEntries(20, 5);
  PackLevel(&file, entries, /*level=*/0, PageCategory::kObject);
  EXPECT_GT(file.PageCountIn(PageCategory::kObject), 0u);
  PackLevel(&file, entries, /*level=*/1, PageCategory::kRTreeLeaf,
            PageCategory::kSeedInternal);
  EXPECT_GT(file.PageCountIn(PageCategory::kSeedInternal), 0u);
}

TEST(PackOrderedLeavesTest, SingleLeafTree) {
  PageFile file;
  auto entries = RandomEntries(5, 6);
  RTree tree = PackOrderedLeaves(&file, entries, LevelOrder::kStr);
  EXPECT_EQ(tree.height(), 1);
  auto stats = tree.ComputeStats();
  EXPECT_EQ(stats.leaf_pages, 1u);
  EXPECT_EQ(stats.internal_pages, 0u);
  EXPECT_EQ(stats.leaf_entries, 5u);
}

TEST(PackOrderedLeavesTest, MultiLevelTreeHeights) {
  PageFile file(512);  // 9 slots
  const uint32_t cap = NodeCapacity(512);
  // cap^2 + 1 entries forces height 3.
  auto entries = RandomEntries(cap * cap + 1, 7);
  RTree tree = PackOrderedLeaves(&file, entries, LevelOrder::kStr);
  EXPECT_EQ(tree.height(), 3);
  auto stats = tree.ComputeStats();
  EXPECT_EQ(stats.leaf_entries, entries.size());
  EXPECT_GT(stats.internal_pages, 0u);
}

TEST(PackOrderedLeavesTest, EmptyInputGivesEmptyTree) {
  PageFile file;
  RTree tree = PackOrderedLeaves(&file, {}, LevelOrder::kSequential);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(file.page_count(), 0u);
}

}  // namespace
}  // namespace flat

// Pins what the seed phase and every walk of FLAT's seed tree read and
// return. Seed, RangeQuery, SphereQuery and KnnQuery through the seed
// phase, RangeCount and RangeQueryViaSeedScan with and without aggregates,
// and FindAllCandidateRecords run one fixed query set on cold caches at
// 512 B and 4 KiB pages. Their summed
// per-category page reads and result sizes must equal the numbers below,
// recorded on v5 seed leaves (boxes on the leaf grid, half-page boxes,
// same-leaf bitmaps): a change to the directory lookup, to the walk's
// descent order, its gating or a stop condition, to the crawl's neighbor
// pushes, to the object-page gate or to the leaf packing fails here.
// Both indexes (seed height 4 at 512 B, 2 at 4 KiB) seed through their
// tile directory, so the seed, range, sphere, kNN and plain-count rows
// count directory reads and no seed-tree page. count_agg is the planned
// aggregated count: boxes below the plan rule's volume crawl from the
// directory and the rest descend the seed tree. Both plans skip the object
// page of a record whose elements all meet the box. Re-record them only
// for a change that means to move reads.
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/flat_index.h"
#include "geometry/rng.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "tests/test_util.h"

namespace flat {
namespace {

// One query kind over the whole query set: summed cold-cache reads per
// category and summed result sizes.
struct Walk {
  uint64_t seed_internal = 0;
  uint64_t seed_leaf = 0;
  uint64_t object = 0;
  uint64_t results = 0;

  bool operator==(const Walk&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Walk& w) {
  return os << "{" << w.seed_internal << ", " << w.seed_leaf << ", "
            << w.object << ", " << w.results << "}";
}

struct Pinned {
  uint32_t page_size;
  int seed_height;
  Walk seed;           // results: queries that found a start record
  uint64_t seed_keys;  // sum of the found seeds' RecordRef::Key()
  Walk range;
  Walk sphere;
  Walk knn;
  Walk count;      // no aggregates: seed + crawl
  Walk count_agg;  // aggregates: planned crawl or descent
  Walk scan;
  Walk scan_agg;
  uint64_t candidates;  // summed FindAllCandidateRecords sizes
};

void PrintTo(const Pinned& p, std::ostream* os) {
  *os << p.page_size << " B";
}

// clang-format off
constexpr Pinned kPinned[] = {
    {512, 4,
     {71, 0, 0, 25}, 4421910570,
     {71, 823, 2647, 20769}, {40, 109, 136, 246}, {33, 303, 581, 444},
     {71, 823, 2647, 20769}, {116, 322, 354, 20769},
     {455, 875, 2647, 20769}, {455, 875, 2647, 20769}, 2647},
    {4096, 2,
     {26, 0, 0, 25}, 485819036,
     {26, 48, 403, 20769}, {16, 25, 52, 246}, {12, 23, 123, 444},
     {26, 48, 403, 20769}, {26, 48, 176, 20769},
     {26, 72, 403, 20769}, {26, 72, 403, 20769}, 403},
};
// clang-format on

// Runs `run(pool, i)` for every query i on a cold cache; sums the reads and
// the sizes `run` returns.
template <typename Run>
Walk Measure(const PageFile& file, size_t queries, const Run& run) {
  IoStats io;
  BufferPool pool(&file, &io);
  Walk walk;
  for (size_t i = 0; i < queries; ++i) {
    pool.Clear();
    walk.results += run(&pool, i);
  }
  walk.seed_internal = io.ReadsIn(PageCategory::kSeedInternal);
  walk.seed_leaf = io.ReadsIn(PageCategory::kSeedLeaf);
  walk.object = io.ReadsIn(PageCategory::kObject);
  return walk;
}

// Random boxes of every size, one box beside the data (no seed) and one
// around all of it (every subtree covered).
std::vector<Aabb> Boxes() {
  std::vector<Aabb> boxes = testing::RandomQueries(24, 1702);
  boxes.push_back(Aabb(Vec3(200, 200, 200), Vec3(210, 210, 210)));
  boxes.push_back(Aabb(Vec3(-1, -1, -1), Vec3(101, 101, 101)));
  return boxes;
}

struct Ball {
  Vec3 center;
  double radius;
};

std::vector<Ball> Balls(size_t count, uint64_t seed, double max_radius) {
  Rng rng(seed);
  const Aabb around(Vec3(-10, -10, -10), Vec3(110, 110, 110));
  std::vector<Ball> balls(count);
  for (Ball& b : balls) {
    b.center = rng.PointIn(around);
    b.radius = rng.Uniform(0.5, max_radius);
  }
  return balls;
}

class SeedWalkTest : public ::testing::TestWithParam<Pinned> {};

TEST_P(SeedWalkTest, ReadsAndResultsMatchPinnedWalks) {
  const Pinned& want = GetParam();
  PageFile file(want.page_size);
  FlatIndex::BuildOptions options;
  options.aggregate_counts = true;
  const FlatIndex pruned =
      FlatIndex::Build(&file, testing::RandomEntries(20000, 1701), options);
  ASSERT_TRUE(pruned.has_aggregates());
  const FlatIndex plain = FlatIndex::Attach(&file, pruned.descriptor());
  EXPECT_EQ(pruned.seed_height(), want.seed_height);

  const std::vector<Aabb> boxes = Boxes();
  const std::vector<Ball> spheres = Balls(16, 1703, 10.0);
  const std::vector<Ball> knn = Balls(12, 1704, 1.0);  // radius unused
  const size_t ks[] = {1, 10, 100};

  uint64_t seed_keys = 0;
  EXPECT_EQ(Measure(file, boxes.size(),
                    [&](BufferPool* pool, size_t i) -> uint64_t {
                      const auto seed = plain.Seed(pool, boxes[i]);
                      if (!seed.has_value()) return 0;
                      seed_keys += seed->Key();
                      return 1;
                    }),
            want.seed);
  EXPECT_EQ(seed_keys, want.seed_keys);

  EXPECT_EQ(Measure(file, boxes.size(),
                    [&](BufferPool* pool, size_t i) {
                      std::vector<uint64_t> ids;
                      plain.RangeQuery(pool, boxes[i], &ids);
                      return ids.size();
                    }),
            want.range);
  EXPECT_EQ(Measure(file, spheres.size(),
                    [&](BufferPool* pool, size_t i) {
                      std::vector<uint64_t> ids;
                      plain.SphereQuery(pool, spheres[i].center,
                                        spheres[i].radius, &ids);
                      return ids.size();
                    }),
            want.sphere);
  EXPECT_EQ(Measure(file, knn.size(),
                    [&](BufferPool* pool, size_t i) {
                      return plain.KnnQuery(pool, knn[i].center, ks[i % 3])
                          .size();
                    }),
            want.knn);

  for (const bool aggregated : {false, true}) {
    SCOPED_TRACE(aggregated ? "with aggregates" : "without aggregates");
    const FlatIndex& index = aggregated ? pruned : plain;
    EXPECT_EQ(Measure(file, boxes.size(),
                      [&](BufferPool* pool, size_t i) {
                        return index.RangeCount(pool, boxes[i]);
                      }),
              aggregated ? want.count_agg : want.count);
    EXPECT_EQ(Measure(file, boxes.size(),
                      [&](BufferPool* pool, size_t i) {
                        std::vector<uint64_t> ids;
                        index.RangeQueryViaSeedScan(pool, boxes[i], &ids);
                        return ids.size();
                      }),
              aggregated ? want.scan_agg : want.scan);
  }

  uint64_t candidates = 0;
  for (const Aabb& box : boxes) {
    candidates += plain.FindAllCandidateRecords(box).size();
  }
  EXPECT_EQ(candidates, want.candidates);
}

INSTANTIATE_TEST_SUITE_P(
    PageSizesAndFormats, SeedWalkTest, ::testing::ValuesIn(kPinned),
    [](const ::testing::TestParamInfo<Pinned>& info) {
      // "Exact" names the seed-page format, the only one there is.
      return "Pages" + std::to_string(info.param.page_size) + "Exact";
    });

}  // namespace
}  // namespace flat

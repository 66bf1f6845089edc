// Build determinism: the parallel build pipeline must produce a PageFile
// that is byte-identical to the serial build — same element order on every
// object page, same neighbor pointers, same seed-tree layout — and the
// allocation-free crawl must return bit-identical results with identical
// IoStats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "core/flat_index.h"
#include "data/mesh_generator.h"
#include "data/neuron_generator.h"
#include "data/uniform_generator.h"
#include "parallel/thread_pool.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::RandomEntries;
using testing::RandomQueries;

void ExpectFilesIdentical(const PageFile& a, const PageFile& b) {
  ASSERT_EQ(a.page_size(), b.page_size());
  ASSERT_EQ(a.page_count(), b.page_count());
  for (PageId id = 0; id < a.page_count(); ++id) {
    ASSERT_EQ(a.category(id), b.category(id)) << "category of page " << id;
    ASSERT_EQ(std::memcmp(a.Data(id), b.Data(id), a.page_size()), 0)
        << "page " << id << " differs";
  }
}

void ExpectStructurallyEqual(const FlatIndex::BuildStats& a,
                             const FlatIndex::BuildStats& b) {
  EXPECT_EQ(a.partitions, b.partitions);
  EXPECT_EQ(a.object_pages, b.object_pages);
  EXPECT_EQ(a.seed_leaf_pages, b.seed_leaf_pages);
  EXPECT_EQ(a.seed_internal_pages, b.seed_internal_pages);
  EXPECT_EQ(a.neighbor_pointers, b.neighbor_pointers);
  EXPECT_EQ(a.metadata_bytes, b.metadata_bytes);
  EXPECT_EQ(a.seed_height, b.seed_height);
}

void ExpectParallelBuildIdentical(const std::vector<RTreeEntry>& elements,
                                  size_t threads = 4) {
  PageFile serial_file;
  FlatIndex::BuildStats serial_stats;
  FlatIndex serial =
      FlatIndex::Build(&serial_file, elements, &serial_stats);

  PageFile parallel_file;
  FlatIndex::BuildStats parallel_stats;
  FlatIndex parallel =
      FlatIndex::Build(&parallel_file, elements,
                       FlatIndex::BuildOptions{threads}, &parallel_stats);

  ExpectFilesIdentical(serial_file, parallel_file);
  ExpectStructurallyEqual(serial_stats, parallel_stats);
  EXPECT_EQ(serial.descriptor().seed_root, parallel.descriptor().seed_root);
  EXPECT_EQ(serial.descriptor().root_is_leaf,
            parallel.descriptor().root_is_leaf);
  EXPECT_EQ(serial.descriptor().seed_height, parallel.descriptor().seed_height);
}

TEST(ParallelBuildTest, NeuronDatasetByteIdentical) {
  NeuronParams params;
  params.total_elements = 20000;
  params.seed = 31;
  ExpectParallelBuildIdentical(GenerateNeurons(params).elements);
}

TEST(ParallelBuildTest, MeshDatasetByteIdentical) {
  MeshParams params;
  params.target_triangles = 20000;
  params.seed = 32;
  ExpectParallelBuildIdentical(GenerateMesh(params).elements);
}

TEST(ParallelBuildTest, UniformDatasetByteIdentical) {
  UniformBoxParams params;
  params.count = 20000;
  params.seed = 33;
  ExpectParallelBuildIdentical(GenerateUniformBoxes(params).elements);
}

TEST(ParallelBuildTest, ManyThreadCountsByteIdentical) {
  const auto elements = RandomEntries(15000, 34);
  for (size_t threads : {2, 3, 7}) {
    ExpectParallelBuildIdentical(elements, threads);
  }
}

TEST(ParallelBuildTest, EmptyInput) {
  ExpectParallelBuildIdentical({});
}

TEST(ParallelBuildTest, SingleElement) {
  ExpectParallelBuildIdentical(
      {RTreeEntry{Aabb(Vec3(1, 2, 3), Vec3(4, 5, 6)), 42}});
}

TEST(ParallelBuildTest, AllIdenticalMbrs) {
  std::vector<RTreeEntry> elements;
  for (uint64_t i = 0; i < 500; ++i) {
    elements.push_back(RTreeEntry{Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)), i});
  }
  ExpectParallelBuildIdentical(elements);
}

// Empty boxes (NaN center) and NaN coordinates used to make the STR order
// undefined: the PageFile then depended on the thread count and on the
// input order.
TEST(ParallelBuildTest, EmptyAndNanBoxesIdenticalForAnyThreadCountAndOrder) {
  std::vector<RTreeEntry> elements =
      testing::RandomEntriesWithEmptyAndNan(20000, 37);
  PageFile serial_file;
  FlatIndex::Build(&serial_file, elements);

  std::vector<RTreeEntry> shuffled = elements;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(38));
  std::vector<RTreeEntry> reversed(elements.rbegin(), elements.rend());
  for (size_t threads : {1, 4}) {
    for (const std::vector<RTreeEntry>* input :
         {&elements, &shuffled, &reversed}) {
      PageFile file;
      FlatIndex::Build(&file, *input, FlatIndex::BuildOptions{threads});
      ExpectFilesIdentical(serial_file, file);
    }
  }
}

class CrawlScratchQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    elements_ = RandomEntries(12000, 36);
    index_ = FlatIndex::Build(&file_, elements_);
  }

  std::vector<RTreeEntry> elements_;
  PageFile file_;
  FlatIndex index_;
};

TEST_F(CrawlScratchQueryTest, ReusedScratchBitIdenticalWithIdenticalIoStats) {
  CrawlScratch scratch;  // reused across all queries, as an engine worker does
  for (const Aabb& q : RandomQueries(60, 37)) {
    IoStats fresh_io, reused_io;
    std::vector<uint64_t> fresh_ids, reused_ids;
    {
      BufferPool pool(&file_, &fresh_io);
      index_.RangeQuery(&pool, q, &fresh_ids);
    }
    {
      BufferPool pool(&file_, &reused_io);
      index_.RangeQuery(&pool, q, &reused_ids, &scratch);
    }
    ASSERT_EQ(reused_ids, fresh_ids);  // bit-identical, including order
    for (int c = 0; c < kNumPageCategories; ++c) {
      const PageCategory category = static_cast<PageCategory>(c);
      ASSERT_EQ(reused_io.ReadsIn(category), fresh_io.ReadsIn(category));
    }
  }
}

TEST_F(CrawlScratchQueryTest, RangeCountMatchesRangeQueryWithSameIo) {
  CrawlScratch scratch;
  for (const Aabb& q : RandomQueries(60, 38)) {
    IoStats query_io, count_io;
    std::vector<uint64_t> ids;
    {
      BufferPool pool(&file_, &query_io);
      index_.RangeQuery(&pool, q, &ids);
    }
    size_t count;
    {
      BufferPool pool(&file_, &count_io);
      count = index_.RangeCount(&pool, q, &scratch);
    }
    ASSERT_EQ(count, ids.size());
    for (int c = 0; c < kNumPageCategories; ++c) {
      const PageCategory category = static_cast<PageCategory>(c);
      ASSERT_EQ(count_io.ReadsIn(category), query_io.ReadsIn(category));
    }
  }
}

TEST_F(CrawlScratchQueryTest, SphereAndKnnWithScratchMatchScratchless) {
  CrawlScratch scratch;
  Rng rng(39);
  const Aabb universe(Vec3(0, 0, 0), Vec3(100, 100, 100));
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3 center = rng.PointIn(universe);

    std::vector<uint64_t> sphere_plain, sphere_scratch;
    IoStats io;
    BufferPool pool(&file_, &io);
    index_.SphereQuery(&pool, center, 4.0, &sphere_plain);
    index_.SphereQuery(&pool, center, 4.0, &sphere_scratch, &scratch);
    EXPECT_EQ(sphere_scratch, sphere_plain);

    EXPECT_EQ(index_.KnnQuery(&pool, center, 10, &scratch),
              index_.KnnQuery(&pool, center, 10));
  }
}

}  // namespace
}  // namespace flat

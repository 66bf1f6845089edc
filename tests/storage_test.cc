#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_model.h"
#include "storage/epoch_page_table.h"
#include "storage/io_stats.h"
#include "storage/page_file.h"

namespace flat {
namespace {

TEST(PageFileTest, AllocateReturnsSequentialIdsAndZeroedPages) {
  PageFile file(4096);
  EXPECT_EQ(file.page_count(), 0u);
  PageId a = file.Allocate(PageCategory::kObject);
  PageId b = file.Allocate(PageCategory::kRTreeLeaf);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(file.page_count(), 2u);
  const char* data = file.Data(a);
  for (uint32_t i = 0; i < file.page_size(); ++i) {
    ASSERT_EQ(data[i], 0) << "page not zeroed at byte " << i;
  }
}

TEST(PageFileTest, MutableDataPersists) {
  PageFile file(512);
  PageId p = file.Allocate(PageCategory::kOther);
  std::memcpy(file.MutableData(p), "hello", 5);
  EXPECT_EQ(std::memcmp(file.Data(p), "hello", 5), 0);
}

TEST(PageFileTest, CategoriesAreTracked) {
  PageFile file;
  file.Allocate(PageCategory::kObject);
  file.Allocate(PageCategory::kObject);
  file.Allocate(PageCategory::kSeedLeaf);
  EXPECT_EQ(file.PageCountIn(PageCategory::kObject), 2u);
  EXPECT_EQ(file.PageCountIn(PageCategory::kSeedLeaf), 1u);
  EXPECT_EQ(file.PageCountIn(PageCategory::kRTreeInternal), 0u);
  EXPECT_EQ(file.category(2), PageCategory::kSeedLeaf);
  EXPECT_EQ(file.SizeBytes(), 3u * kDefaultPageSize);
}

// The pointer-stability contract the crawl depends on: a pointer returned
// by Data/MutableData keeps aliasing the same page across any number of
// later Allocate calls (slab arenas are never moved or freed). This test
// crosses several slab boundaries to prove stability does not hinge on
// staying inside one slab.
TEST(PageFileTest, DataPointersStayStableAcrossAllocateGrowth) {
  PageFile file(64);  // smallest page -> most pages per slab arena
  const PageId first = file.Allocate(PageCategory::kObject);
  std::memcpy(file.MutableData(first), "stable", 6);
  const char* const first_ptr = file.Data(first);

  // Grow well past several slab boundaries, tagging a sample of pages.
  const size_t grow_to = static_cast<size_t>(file.pages_per_slab()) * 3 + 17;
  std::vector<std::pair<PageId, const char*>> samples = {{first, first_ptr}};
  while (file.page_count() < grow_to) {
    const PageId id = file.Allocate(PageCategory::kOther);
    if (id % 1000 == 0) {
      std::memcpy(file.MutableData(id), &id, sizeof(id));
      samples.push_back({id, file.Data(id)});
    }
  }

  EXPECT_EQ(file.Data(first), first_ptr)
      << "Allocate growth must not move existing pages";
  EXPECT_EQ(std::memcmp(first_ptr, "stable", 6), 0);
  for (const auto& [id, ptr] : samples) {
    EXPECT_EQ(file.Data(id), ptr) << "page " << id;
  }
  // Pages within one slab are contiguous: neighbors that do not straddle a
  // slab boundary sit exactly page_size apart.
  const PageId a = file.pages_per_slab() - 2;
  EXPECT_EQ(file.Data(a) + file.page_size(), file.Data(a + 1));
}

TEST(PageFileTest, SlabBoundaryPagesAreZeroedAndTagged) {
  PageFile file(64);
  const size_t per_slab = file.pages_per_slab();
  for (size_t i = 0; i < per_slab + 2; ++i) {
    file.Allocate(i % 2 == 0 ? PageCategory::kObject
                             : PageCategory::kSeedLeaf);
  }
  // First page of the second slab: zeroed, correct category.
  const PageId boundary = static_cast<PageId>(per_slab);
  const char* data = file.Data(boundary);
  for (uint32_t i = 0; i < file.page_size(); ++i) {
    ASSERT_EQ(data[i], 0) << "slab-boundary page not zeroed at byte " << i;
  }
  EXPECT_EQ(file.category(boundary), PageCategory::kObject);
  // Even ids 0..per_slab and odd ids 1..per_slab+1: per_slab/2 + 1 each.
  EXPECT_EQ(file.PageCountIn(PageCategory::kObject), per_slab / 2 + 1);
  EXPECT_EQ(file.PageCountIn(PageCategory::kSeedLeaf), per_slab / 2 + 1);
}

TEST(EpochPageTableTest, UnboundedTouchInsertContains) {
  EpochPageTable table;
  EXPECT_FALSE(table.Touch(5));
  table.Insert(5);
  EXPECT_TRUE(table.Touch(5));
  EXPECT_TRUE(table.Contains(5));
  EXPECT_FALSE(table.Contains(4));
  EXPECT_EQ(table.size(), 1u);
  table.Insert(100000);  // sparse high id: direct-mapped growth
  EXPECT_TRUE(table.Contains(100000));
  EXPECT_EQ(table.size(), 2u);
}

TEST(EpochPageTableTest, ClearIsColdAndReusable) {
  EpochPageTable table;
  for (PageId id = 0; id < 64; ++id) table.Insert(id);
  EXPECT_EQ(table.size(), 64u);
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  for (PageId id = 0; id < 64; ++id) {
    EXPECT_FALSE(table.Contains(id)) << "page " << id << " survived Clear";
  }
  // Many epochs of reuse keep behaving like fresh tables.
  for (int epoch = 0; epoch < 1000; ++epoch) {
    EXPECT_FALSE(table.Touch(7));
    table.Insert(7);
    EXPECT_TRUE(table.Touch(7));
    table.Clear();
  }
}

TEST(IoStatsTest, CountsPerCategory) {
  IoStats stats;
  stats.RecordRead(PageCategory::kObject);
  stats.RecordRead(PageCategory::kObject);
  stats.RecordRead(PageCategory::kSeedLeaf);
  EXPECT_EQ(stats.ReadsIn(PageCategory::kObject), 2u);
  EXPECT_EQ(stats.ReadsIn(PageCategory::kSeedLeaf), 1u);
  EXPECT_EQ(stats.TotalReads(), 3u);
  EXPECT_EQ(stats.BytesRead(4096), 3u * 4096);
  stats.Reset();
  EXPECT_EQ(stats.TotalReads(), 0u);
}

TEST(IoStatsTest, DeltaSince) {
  IoStats stats;
  stats.RecordRead(PageCategory::kObject);
  IoStats snapshot = stats;
  stats.RecordRead(PageCategory::kObject);
  stats.RecordRead(PageCategory::kSeedInternal);
  IoStats delta = stats.DeltaSince(snapshot);
  EXPECT_EQ(delta.ReadsIn(PageCategory::kObject), 1u);
  EXPECT_EQ(delta.ReadsIn(PageCategory::kSeedInternal), 1u);
  EXPECT_EQ(delta.TotalReads(), 2u);
}

TEST(BufferPoolTest, MissThenHit) {
  PageFile file;
  PageId p = file.Allocate(PageCategory::kRTreeLeaf);
  IoStats stats;
  BufferPool pool(&file, &stats);
  pool.Read(p);
  EXPECT_EQ(stats.TotalReads(), 1u);
  pool.Read(p);
  pool.Read(p);
  EXPECT_EQ(stats.TotalReads(), 1u) << "hits must not be charged";
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPoolTest, ClearColdCacheRecharges) {
  PageFile file;
  PageId p = file.Allocate(PageCategory::kObject);
  IoStats stats;
  BufferPool pool(&file, &stats);
  pool.Read(p);
  pool.Clear();
  EXPECT_FALSE(pool.IsCached(p));
  pool.Read(p);
  EXPECT_EQ(stats.TotalReads(), 2u);
}

TEST(BufferPoolTest, CategoriesChargedCorrectly) {
  PageFile file;
  PageId leaf = file.Allocate(PageCategory::kSeedLeaf);
  PageId object = file.Allocate(PageCategory::kObject);
  IoStats stats;
  BufferPool pool(&file, &stats);
  pool.Read(leaf);
  pool.Read(object);
  pool.Read(object);
  EXPECT_EQ(stats.ReadsIn(PageCategory::kSeedLeaf), 1u);
  EXPECT_EQ(stats.ReadsIn(PageCategory::kObject), 1u);
}

TEST(DiskModelTest, ElapsedTimeScalesWithReads) {
  DiskModel model;
  IoStats one, ten;
  one.RecordRead(PageCategory::kObject);
  for (int i = 0; i < 10; ++i) ten.RecordRead(PageCategory::kObject);
  const double t1 = model.ElapsedMs(one, 4096);
  const double t10 = model.ElapsedMs(ten, 4096);
  EXPECT_GT(t1, 0.0);
  EXPECT_NEAR(t10, 10.0 * t1, 1e-9);
}

TEST(DiskModelTest, PageReadTimeIsDominatedBySeek) {
  DiskModel model;
  // 4 KiB at 100 MB/s is ~40 µs; seek+rotation is 6.5 ms.
  EXPECT_NEAR(model.PageReadMs(4096), 6.5 + 0.04096, 1e-6);
}

TEST(DiskModelTest, CpuFractionInflatesElapsed) {
  DiskModel::Params params;
  params.cpu_fraction = 0.5;
  DiskModel model(params);
  IoStats stats;
  stats.RecordRead(PageCategory::kObject);
  EXPECT_NEAR(model.ElapsedMs(stats, 4096),
              2.0 * model.PageReadMs(4096), 1e-9);
}

// cpu_fraction == 1.0 would divide by zero in ElapsedMs; the constructor
// must reject it (and the rest of the nonsensical parameter space) up front
// rather than return inf/NaN timings at query time.
TEST(DiskModelTest, RejectsInvalidParams) {
  DiskModel::Params params;
  params.cpu_fraction = 1.0;
  EXPECT_THROW(DiskModel{params}, std::invalid_argument);

  params = DiskModel::Params();
  params.cpu_fraction = 1.5;
  EXPECT_THROW(DiskModel{params}, std::invalid_argument);

  params = DiskModel::Params();
  params.cpu_fraction = -0.25;
  EXPECT_THROW(DiskModel{params}, std::invalid_argument);

  params = DiskModel::Params();
  params.transfer_mb_per_s = 0.0;
  EXPECT_THROW(DiskModel{params}, std::invalid_argument);

  params = DiskModel::Params();
  params.seek_ms = -1.0;
  EXPECT_THROW(DiskModel{params}, std::invalid_argument);

  // The boundary below the divide-by-zero pole is fine.
  params = DiskModel::Params();
  params.cpu_fraction = 0.999;
  EXPECT_NO_THROW(DiskModel{params});
}

}  // namespace
}  // namespace flat

// The disk-backend contract: a DiskPageFile reopened from a SavePageFile
// stream is indistinguishable from the in-memory PageFile it was saved from —
// byte-identical pages, identical category accounting, bit-identical query
// results and logical IoStats through the same PageCache API — in both mmap
// and pread modes, at any engine thread count. Corrupt files are rejected at
// Open, before any page is served.
#include "storage/disk_page_file.h"

#include <atomic>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/flat_index.h"
#include "data/mesh_generator.h"
#include "data/neuron_generator.h"
#include "data/uniform_generator.h"
#include "engine/query_engine.h"
#include "geometry/rng.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/page_file.h"
#include "storage/persistence.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::ScopedPageFileOnDisk;

std::vector<uint64_t> CategoryCounts(const IoStats& stats) {
  std::vector<uint64_t> counts(kNumPageCategories);
  for (int c = 0; c < kNumPageCategories; ++c) {
    counts[c] = stats.ReadsIn(static_cast<PageCategory>(c));
  }
  return counts;
}

// The three generators the repo's identity tests standardize on.
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

std::vector<Aabb> DatasetQueries(const Dataset& dataset, uint64_t seed) {
  Rng rng(seed);
  std::vector<Aabb> queries;
  for (int i = 0; i < 15; ++i) {
    const Vec3 center = rng.PointIn(dataset.bounds);
    const double frac = rng.Uniform(0.02, 0.3);
    queries.push_back(Aabb::FromCenterHalfExtents(
        center, dataset.bounds.Extents() * (frac / 2)));
  }
  queries.push_back(dataset.bounds);
  return queries;
}

class DiskBackendIdentityTest : public ::testing::TestWithParam<std::string> {};

// Save, reopen disk-backed, and run the oracle query suite on both backends:
// the id sequences (in traversal order, not just as sets) and the
// per-category logical read counts must be bit-identical.
TEST_P(DiskBackendIdentityTest, MatchesInMemoryBackend) {
  const Dataset dataset = MakeDataset(GetParam());
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, dataset.elements);

  ScopedPageFileOnDisk on_disk(file, "identity_" + GetParam());
  auto disk = DiskPageFile::Open(on_disk.path());
  FlatIndex reopened = FlatIndex::Attach(disk.get(), index.descriptor());

  // Store-level equivalence: same geometry, same categories, same bytes.
  ASSERT_EQ(disk->page_count(), file.page_count());
  ASSERT_EQ(disk->page_size(), file.page_size());
  EXPECT_EQ(disk->SizeBytes(), file.SizeBytes());
  for (int c = 0; c < kNumPageCategories; ++c) {
    const auto category = static_cast<PageCategory>(c);
    EXPECT_EQ(disk->PageCountIn(category), file.PageCountIn(category));
  }
  for (PageId id = 0; id < file.page_count(); ++id) {
    ASSERT_EQ(disk->category(id), file.category(id)) << "page " << id;
    ASSERT_EQ(std::memcmp(disk->Data(id), file.Data(id), file.page_size()), 0)
        << "page " << id;
  }

  // Query-level equivalence, cold cache per query on both sides.
  IoStats memory_io, disk_io;
  BufferPool memory_pool(&file, &memory_io);
  BufferPool disk_pool(disk.get(), &disk_io);
  for (const Aabb& query : DatasetQueries(dataset, /*seed=*/91)) {
    std::vector<uint64_t> expected, got;
    memory_pool.Clear();
    index.RangeQuery(&memory_pool, query, &expected);
    disk_pool.Clear();
    reopened.RangeQuery(&disk_pool, query, &got);
    EXPECT_EQ(got, expected);
  }
  EXPECT_EQ(CategoryCounts(disk_io), CategoryCounts(memory_io));
}

// The pread fallback serves the same bytes and the same query results as the
// mmap mode (pointer stability via per-page resident buffers).
TEST_P(DiskBackendIdentityTest, PreadModeMatchesMmap) {
  const Dataset dataset = MakeDataset(GetParam());
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, dataset.elements);

  ScopedPageFileOnDisk on_disk(file, "pread_" + GetParam());
  auto pread_file =
      DiskPageFile::Open(on_disk.path(), DiskPageFile::Options{
                                             .use_mmap = false,
                                         });
  EXPECT_FALSE(pread_file->mmap_backed());

  for (PageId id = 0; id < file.page_count(); ++id) {
    const char* data = pread_file->Data(id);
    ASSERT_EQ(std::memcmp(data, file.Data(id), file.page_size()), 0)
        << "page " << id;
    // Pointer stability: a second lookup returns the same resident buffer.
    EXPECT_EQ(pread_file->Data(id), data);
  }

  FlatIndex reopened = FlatIndex::Attach(pread_file.get(), index.descriptor());
  IoStats memory_io, pread_io;
  BufferPool memory_pool(&file, &memory_io);
  BufferPool pread_pool(pread_file.get(), &pread_io);
  for (const Aabb& query : DatasetQueries(dataset, /*seed=*/92)) {
    std::vector<uint64_t> expected, got;
    memory_pool.Clear();
    index.RangeQuery(&memory_pool, query, &expected);
    pread_pool.Clear();
    reopened.RangeQuery(&pread_pool, query, &got);
    EXPECT_EQ(got, expected);
  }
  EXPECT_EQ(CategoryCounts(pread_io), CategoryCounts(memory_io));

  // Concurrent readers race on the resident-slot publish: a 4-thread engine
  // over a freshly opened (nothing resident) pread file must match the
  // 1-thread engine per query — ids, count and per-category reads.
  auto cold_file =
      DiskPageFile::Open(on_disk.path(), DiskPageFile::Options{
                                             .use_mmap = false,
                                         });
  FlatIndex cold = FlatIndex::Attach(cold_file.get(), index.descriptor());
  std::vector<Query> batch;
  for (const Aabb& query : DatasetQueries(dataset, /*seed=*/94)) {
    batch.push_back(Query::Range(query));
  }
  QueryEngine four_threads(&cold, {.threads = 4});
  const std::vector<QueryResult> got = four_threads.Run(batch);
  QueryEngine one_thread(&cold, {.threads = 1});
  const std::vector<QueryResult> expected = one_thread.Run(batch);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ids, expected[i].ids) << "query " << i;
    EXPECT_EQ(got[i].count, expected[i].count) << "query " << i;
    EXPECT_EQ(CategoryCounts(got[i].io), CategoryCounts(expected[i].io))
        << "query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, DiskBackendIdentityTest,
                         ::testing::Values("neuron", "mesh", "uniform"),
                         [](const auto& info) { return info.param; });

// The QueryEngine over an mmap-backed disk store at several thread counts
// must match the 1-thread engine per query — ids, count and per-category
// reads. The crawl issues no prefetch hints (PageCache::Prefetch is a no-op
// hook), so "prefetch on" and "off" are the same engine: the invariant left
// to check is that thread count does not perturb results or read counts.
TEST(DiskPrefetchTest, EngineResultsIdenticalWithPrefetchOnAndOff) {
  const Dataset dataset = MakeDataset("uniform");
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, dataset.elements);

  ScopedPageFileOnDisk on_disk(file, "engine");
  auto disk = DiskPageFile::Open(on_disk.path());
  FlatIndex reopened = FlatIndex::Attach(disk.get(), index.descriptor());

  std::vector<Query> batch;
  for (const Aabb& query : DatasetQueries(dataset, /*seed=*/94)) {
    batch.push_back(Query::Range(query));
  }

  QueryEngine baseline(&reopened, {.threads = 1});
  const std::vector<QueryResult> expected = baseline.Run(batch);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    QueryEngine engine(&reopened, {.threads = threads});
    const std::vector<QueryResult> got = engine.Run(batch);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].ids, expected[i].ids) << "query " << i;
      EXPECT_EQ(got[i].count, expected[i].count) << "query " << i;
      EXPECT_EQ(CategoryCounts(got[i].io), CategoryCounts(expected[i].io))
          << "query " << i;
    }
  }
}

// DropOsCache (the cold-cache bench primitive) must leave the store fully
// readable with identical bytes afterwards.
TEST(DiskPageFileTest, DropOsCacheKeepsPagesReadable) {
  PageFile file(512);
  for (int i = 0; i < 16; ++i) {
    const PageId id = file.Allocate(PageCategory::kObject);
    std::memset(file.MutableData(id), 'a' + i, file.page_size());
  }
  ScopedPageFileOnDisk on_disk(file, "drop");

  for (const bool use_mmap : {true, false}) {
    SCOPED_TRACE(use_mmap ? "mmap" : "pread");
    auto disk = DiskPageFile::Open(on_disk.path(), DiskPageFile::Options{
                                                       .use_mmap = use_mmap,
                                                   });
    for (PageId id = 0; id < 16; ++id) {
      ASSERT_EQ(std::memcmp(disk->Data(id), file.Data(id), 512), 0);
    }
    disk->DropOsCache();
    for (PageId id = 0; id < 16; ++id) {
      ASSERT_EQ(std::memcmp(disk->Data(id), file.Data(id), 512), 0)
          << "after DropOsCache, page " << id;
    }
  }
}

// Corrupt files are rejected at Open with std::runtime_error — before any
// Data() call can read garbage.
TEST(DiskPageFileTest, CorruptFilesAreRejectedAtOpen) {
  PageFile file(256);
  const PageId id = file.Allocate(PageCategory::kObject);
  std::memcpy(file.MutableData(id), "valid", 5);
  ScopedPageFileOnDisk on_disk(file, "corrupt");

  std::ifstream in(on_disk.path(), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(bytes.size(), 16u + 1u + 256u);

  const auto open_variant = [](const std::string& tag,
                               const std::string& contents) {
    const ScopedPageFileOnDisk variant(contents, "corrupt_" + tag);
    return DiskPageFile::Open(variant.path());
  };

  // Missing file.
  EXPECT_THROW(DiskPageFile::Open(on_disk.path() + ".does_not_exist"),
               std::runtime_error);

  // Bad magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(open_variant("badmagic", bad_magic), std::runtime_error);

  // Truncated: header claims one 256-byte page, file ends mid-page.
  EXPECT_THROW(open_variant("truncated", bytes.substr(0, bytes.size() - 100)),
               std::runtime_error);

  // Hostile page_count: huge count over a tiny body.
  std::string hostile = bytes;
  const uint32_t huge = 1u << 30;
  std::memcpy(&hostile[12], &huge, sizeof(huge));
  EXPECT_THROW(open_variant("hostile", hostile), std::runtime_error);

  // Trailing bytes beyond the declared pages: a page file must match its
  // header exactly.
  EXPECT_THROW(open_variant("trailing", bytes + "JUNK"), std::runtime_error);

  // Invalid category byte.
  std::string bad_category = bytes;
  bad_category[16] = static_cast<char>(0xEE);
  EXPECT_THROW(open_variant("badcategory", bad_category), std::runtime_error);

  // Shorter than the fixed header.
  EXPECT_THROW(open_variant("tiny", bytes.substr(0, 7)), std::runtime_error);

  // The untouched original still opens fine.
  auto disk = DiskPageFile::Open(on_disk.path());
  EXPECT_EQ(std::memcmp(disk->Data(id), "valid", 5), 0);
}

// A transient fault sequence — EINTR, short reads, errors within the retry
// budget — must be fully recovered: byte-identical pages, exact retry
// accounting, zero permanent errors.
TEST(DiskPageFileFaultTest, TransientFaultSequencesRecoverExactly) {
  PageFile file(512);
  for (int i = 0; i < 8; ++i) {
    const PageId id = file.Allocate(PageCategory::kObject);
    std::memset(file.MutableData(id), 'A' + i, file.page_size());
  }
  ScopedPageFileOnDisk on_disk(file, "transient");

  FaultSchedule schedule;
  // Page 0: interrupted twice before succeeding.
  schedule.Add({.page = 0, .attempt = 1, .kind = FaultKind::kEintr});
  schedule.Add({.page = 0, .attempt = 2, .kind = FaultKind::kEintr});
  // Page 1: two short reads (7 bytes, then 100) before the rest transfers.
  schedule.Add({.page = 1,
                .attempt = 1,
                .kind = FaultKind::kShortRead,
                .short_bytes = 7});
  schedule.Add({.page = 1,
                .attempt = 2,
                .kind = FaultKind::kShortRead,
                .short_bytes = 100});
  // Page 2: fails twice (within the budget of 3), then succeeds.
  schedule.FailRead(/*page=*/2, /*times=*/2);
  // Page 3: delayed, then succeeds.
  schedule.Add({.page = 3,
                .attempt = 1,
                .kind = FaultKind::kLatency,
                .latency_micros = 50});

  DiskPageFile::Options options;
  options.retry_backoff_micros = 0;
  options.fault_schedule = &schedule;
  auto disk = DiskPageFile::Open(on_disk.path(), options);
  EXPECT_FALSE(disk->mmap_backed()) << "a schedule must force pread mode";

  for (PageId id = 0; id < 8; ++id) {
    ASSERT_EQ(std::memcmp(disk->Data(id), file.Data(id), 512), 0)
        << "page " << id;
  }
  // 2 EINTR (page 0) + 2 retried errors (page 2); short reads and latency
  // are progress, not retries.
  EXPECT_EQ(disk->read_retries(), 4u);
  EXPECT_EQ(disk->read_errors(), 0u);
  EXPECT_EQ(schedule.fired(FaultKind::kEintr), 2u);
  EXPECT_EQ(schedule.fired(FaultKind::kShortRead), 2u);
  EXPECT_EQ(schedule.fired(FaultKind::kError), 2u);
  EXPECT_EQ(schedule.fired(FaultKind::kLatency), 1u);
}

// A fault outliving the retry budget throws (→ kIoError upstream) — and,
// critically, releases the busy sentinel: the next read of the same page
// must retry the I/O rather than hang or crash, and succeed once the
// schedule is exhausted.
TEST(DiskPageFileFaultTest, FailedReadReleasesBusySentinelAndCanRecover) {
  PageFile file(256);
  const PageId id = file.Allocate(PageCategory::kObject);
  std::memset(file.MutableData(id), 'Z', file.page_size());
  ScopedPageFileOnDisk on_disk(file, "sentinel");

  FaultSchedule schedule;
  // With max_read_retries = 0, each Data() call consumes exactly one
  // scheduled attempt and throws; the 4th call finds a clean schedule.
  schedule.FailRead(id, /*times=*/3);

  DiskPageFile::Options options;
  options.max_read_retries = 0;
  options.fault_schedule = &schedule;
  auto disk = DiskPageFile::Open(on_disk.path(), options);

  for (int call = 0; call < 3; ++call) {
    EXPECT_THROW(disk->Data(id), std::runtime_error) << "call " << call;
  }
  EXPECT_EQ(disk->read_errors(), 3u);
  // The sentinel was released every time: this read claims the slot afresh
  // and succeeds.
  ASSERT_EQ(std::memcmp(disk->Data(id), file.Data(id), 256), 0);
  // Resident now; further reads are stable and fault-free.
  EXPECT_EQ(disk->Data(id), disk->Data(id));
}

// The sentinel-release property under concurrency: many threads hammer a
// page whose first reads fail. No thread may deadlock on a stale kBusyPage,
// and once the schedule drains every thread sees the correct bytes.
TEST(DiskPageFileFaultTest, ConcurrentReadersSurviveFailingPage) {
  PageFile file(256);
  const PageId id = file.Allocate(PageCategory::kObject);
  std::memset(file.MutableData(id), 'Q', file.page_size());
  ScopedPageFileOnDisk on_disk(file, "concurrent_fail");

  FaultSchedule schedule;
  schedule.FailRead(id, /*times=*/5);

  DiskPageFile::Options options;
  options.max_read_retries = 0;
  options.fault_schedule = &schedule;
  auto disk = DiskPageFile::Open(on_disk.path(), options);

  constexpr int kThreads = 4;
  std::atomic<int> successes{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        try {
          const char* data = disk->Data(id);
          if (data[0] == 'Q') ++successes;
        } catch (const std::runtime_error&) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // The 5 scheduled failures all fired (possibly observed by any subset of
  // threads); everyone eventually read the page.
  EXPECT_EQ(failures.load(), 5);
  EXPECT_GT(successes.load(), 0);
  ASSERT_EQ(std::memcmp(disk->Data(id), file.Data(id), 256), 0);
}

// A BufferPool that also counts every Read of each page, hits included: a
// hit calls the store's Data() again.
class ReadCountingPool final : public PageCache {
 public:
  ReadCountingPool(const PageStore* store, IoStats* stats)
      : pool_(store, stats) {}

  const char* Read(PageId id) override {
    ++reads_[id];
    return pool_.Read(id);
  }

  const std::map<PageId, uint32_t>& reads() const { return reads_; }

 private:
  BufferPool pool_;
  std::map<PageId, uint32_t> reads_;
};

// A page the file has read stays resident and never asks the schedule
// again. Faults scheduled only on the second and later attempts of pages
// one query reads more than once therefore never fire — not even an error
// with no retries allowed — and the query answers exactly, with the clean
// IoStats.
TEST(DiskPageFileFaultTest, PageAlreadyReadNeverFaultsAgain) {
  const std::vector<RTreeEntry> entries =
      testing::RandomEntries(20000, /*seed=*/71);
  PageFile file;
  const FlatIndex index = FlatIndex::Build(&file, entries);
  const Query query =
      Query::Range(Aabb(Vec3(-10, -10, -10), Vec3(110, 110, 110)));

  QueryResult clean;
  ReadCountingPool counting(&file, &clean.io);
  DispatchQuery({&index, query}, &counting, &clean);
  ASSERT_EQ(clean.status, QueryStatus::kOk);
  ASSERT_EQ(testing::Sorted(clean.ids),
            testing::BruteForce(entries, query.box));

  // Attempt 1 of every page is clean; each further read of a page gets a
  // fault, rotating EINTR, an error and a short read.
  const FaultKind kinds[] = {FaultKind::kEintr, FaultKind::kError,
                             FaultKind::kShortRead};
  FaultSchedule schedule;
  size_t added = 0;
  for (const auto& [page, reads] : counting.reads()) {
    for (uint32_t attempt = 2; attempt <= reads; ++attempt) {
      schedule.Add({.page = page,
                    .attempt = attempt,
                    .kind = kinds[added++ % 3],
                    .short_bytes = 7});
    }
  }
  ASSERT_GE(schedule.scheduled(), 3u) << "the query must re-read pages";

  ScopedPageFileOnDisk on_disk(file, "no_refault");
  DiskPageFile::Options options;
  options.max_read_retries = 0;
  options.fault_schedule = &schedule;
  auto disk = DiskPageFile::Open(on_disk.path(), options);
  const FlatIndex reopened = FlatIndex::Attach(disk.get(), index.descriptor());

  QueryResult got;
  BufferPool pool(disk.get(), &got.io);
  DispatchQuery({&reopened, query}, &pool, &got);
  EXPECT_EQ(got.status, QueryStatus::kOk) << got.error;
  EXPECT_EQ(got.ids, clean.ids);
  EXPECT_EQ(got.io, clean.io);
  EXPECT_EQ(schedule.faults_fired(), 0u);
  EXPECT_EQ(disk->read_retries(), 0u);
  EXPECT_EQ(disk->read_errors(), 0u);
}

}  // namespace
}  // namespace flat

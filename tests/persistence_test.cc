#include "storage/persistence.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>

#include "core/flat_index.h"
#include "data/neuron_generator.h"
#include "rtree/bulkload.h"
#include "storage/buffer_pool.h"
#include "storage/disk_page_file.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::ScopedPageFileOnDisk;

// Hand-crafts a FLATPGF5 byte stream: magic | u32 page_size | u32 page_count
// | body (caller supplies category table + page data, possibly malformed).
std::string RawPageFileBytes(uint32_t page_size, uint32_t page_count,
                             const std::string& body) {
  std::string bytes = "FLATPGF5";
  const auto put_u32 = [&bytes](uint32_t value) {
    char buf[sizeof(value)];
    std::memcpy(buf, &value, sizeof(value));
    bytes.append(buf, sizeof(value));
  };
  put_u32(page_size);
  put_u32(page_count);
  bytes += body;
  return bytes;
}

// Writes `bytes` to a file and returns what DiskPageFile::Open throws on it,
// minus the ": <path>" every Open error ends with; "" if the file opens.
std::string OpenError(const std::string& bytes) {
  const ScopedPageFileOnDisk on_disk(bytes, "raw");
  try {
    DiskPageFile::Open(on_disk.path());
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    const std::string suffix = ": " + on_disk.path();
    if (!what.ends_with(suffix)) return what;
    return what.substr(0, what.size() - suffix.size());
  }
  return "";
}

constexpr const char* kBadMagic =
    "DiskPageFile: bad magic (not a FLAT page file or unsupported version)";
constexpr const char* kTruncated =
    "DiskPageFile: truncated (header page count exceeds file size)";

TEST(PersistenceTest, EmptyPageFileRoundTrip) {
  PageFile file(2048);
  const ScopedPageFileOnDisk on_disk(file, "empty");
  auto loaded = DiskPageFile::Open(on_disk.path());
  EXPECT_EQ(loaded->page_size(), 2048u);
  EXPECT_EQ(loaded->page_count(), 0u);
}

TEST(PersistenceTest, PagesAndCategoriesSurvive) {
  PageFile file(512);
  PageId a = file.Allocate(PageCategory::kObject);
  PageId b = file.Allocate(PageCategory::kSeedLeaf);
  std::memcpy(file.MutableData(a), "alpha", 5);
  std::memcpy(file.MutableData(b), "bravo", 5);

  const ScopedPageFileOnDisk on_disk(file, "pages");
  auto loaded = DiskPageFile::Open(on_disk.path());

  ASSERT_EQ(loaded->page_count(), 2u);
  EXPECT_EQ(loaded->category(a), PageCategory::kObject);
  EXPECT_EQ(loaded->category(b), PageCategory::kSeedLeaf);
  EXPECT_EQ(std::memcmp(loaded->Data(a), "alpha", 5), 0);
  EXPECT_EQ(std::memcmp(loaded->Data(b), "bravo", 5), 0);
}

// Expects the file at `path` to hold what writing `file` page by page
// gives: the header, the category table, then each page in id order. Then
// reopens it with DiskPageFile::Open and expects `file`'s pages back.
void ExpectPageByPageBytes(const PageStore& file, const std::string& path) {
  std::string header = RawPageFileBytes(
      file.page_size(), static_cast<uint32_t>(file.page_count()), "");
  for (PageId id = 0; id < file.page_count(); ++id) {
    header.push_back(static_cast<char>(file.category(id)));
  }
  std::ifstream in(path, std::ios::binary);
  std::string got(header.size(), '\0');
  ASSERT_TRUE(in.read(got.data(), static_cast<std::streamsize>(got.size())));
  ASSERT_EQ(got, header);
  std::string page(file.page_size(), '\0');
  for (PageId id = 0; id < file.page_count(); ++id) {
    ASSERT_TRUE(in.read(page.data(), file.page_size())) << "page " << id;
    ASSERT_EQ(std::memcmp(page.data(), file.Data(id), file.page_size()), 0)
        << "page " << id;
  }
  EXPECT_EQ(in.peek(), std::ifstream::traits_type::eof()) << "trailing bytes";

  const std::unique_ptr<DiskPageFile> reopened = DiskPageFile::Open(path);
  ASSERT_EQ(reopened->page_count(), file.page_count());
  for (PageId id = 0; id < file.page_count(); ++id) {
    ASSERT_EQ(reopened->category(id), file.category(id)) << "page " << id;
    ASSERT_EQ(std::memcmp(reopened->Data(id), file.Data(id), file.page_size()),
              0)
        << "page " << id;
  }
}

// SavePageFile writes each run of address-contiguous pages at once. A
// PageFile's run ends at its slab's end: the next page lives in another
// arena.
TEST(PersistenceTest, PageRunsBreakAtSlabEnds) {
  PageFile file;
  const PageId per_slab = file.pages_per_slab();
  for (PageId id = 0; id < per_slab + 3; ++id) {
    file.Allocate(id % 2 == 0 ? PageCategory::kObject
                              : PageCategory::kSeedLeaf);
  }
  // Tag a sample of pages, the ones around the slab end among them; the
  // rest stay zero and cost no memory.
  for (PageId id = 0; id < file.page_count(); ++id) {
    if (id % 251 != 0 && id + 2 < per_slab) continue;
    char* page = file.MutableData(id);
    std::memcpy(page, &id, sizeof(id));
    std::memcpy(page + file.page_size() - sizeof(id), &id, sizeof(id));
  }
  const ScopedPageFileOnDisk on_disk(file, "slabs");
  ExpectPageByPageBytes(file, on_disk.path());
}

// A DiskPageFile is one run when mapped, and a run per page when it reads
// pages into buffers of their own; both re-save to the bytes they serve.
TEST(PersistenceTest, DiskPageFileResavesItsOwnBytes) {
  PageFile file;
  FlatIndex::Build(&file, testing::RandomEntries(5000, 313));
  const ScopedPageFileOnDisk saved(file, "resave_source");
  for (const bool use_mmap : {true, false}) {
    SCOPED_TRACE(use_mmap ? "mmap" : "pread");
    DiskPageFile::Options options;
    options.use_mmap = use_mmap;
    const std::unique_ptr<DiskPageFile> disk =
        DiskPageFile::Open(saved.path(), options);
    const ScopedPageFileOnDisk resaved(*disk, "resaved");
    ExpectPageByPageBytes(*disk, resaved.path());
    ExpectPageByPageBytes(file, resaved.path());
  }
}

TEST(PersistenceTest, RejectsGarbageAndTruncation) {
  EXPECT_EQ(OpenError("this is not a page file at all"), kBadMagic);

  PageFile file;
  file.Allocate(PageCategory::kObject);
  std::ostringstream stream;
  SavePageFile(file, stream);
  const std::string bytes = stream.str();
  EXPECT_EQ(OpenError(bytes.substr(0, bytes.size() / 2)), kTruncated);
}

// A header claiming 2^30 pages over a near-empty file must be rejected by
// the size bound before any per-page allocation happens.
TEST(PersistenceTest, HostilePageCountFailsAgainstStreamSize) {
  EXPECT_EQ(OpenError(RawPageFileBytes(/*page_size=*/512,
                                       /*page_count=*/1u << 30, "abc")),
            kTruncated);
}

TEST(PersistenceTest, TruncatedCategoryTableIsRejected) {
  // 4 pages declared, only 2 category bytes present.
  EXPECT_EQ(OpenError(RawPageFileBytes(/*page_size=*/512, /*page_count=*/4,
                                       std::string(2, 0))),
            kTruncated);
}

TEST(PersistenceTest, TruncatedPageDataIsRejected) {
  // One page declared, category present, but only half the page's bytes.
  std::string body(1, '\0');  // category kRTreeInternal
  body += std::string(256, 'x');
  EXPECT_EQ(OpenError(RawPageFileBytes(/*page_size=*/512, /*page_count=*/1,
                                       body)),
            kTruncated);
}

TEST(PersistenceTest, InvalidCategoryByteIsRejected) {
  std::string body(1, static_cast<char>(0xEE));  // out-of-range category
  body += std::string(512, '\0');
  EXPECT_EQ(OpenError(RawPageFileBytes(/*page_size=*/512, /*page_count=*/1,
                                       body)),
            "DiskPageFile: invalid page category");
}

TEST(PersistenceTest, ImplausiblePageSizeIsRejected) {
  EXPECT_EQ(OpenError(RawPageFileBytes(/*page_size=*/32, /*page_count=*/0, "")),
            "DiskPageFile: implausible page size");
  EXPECT_EQ(OpenError(RawPageFileBytes(/*page_size=*/65u << 20,
                                       /*page_count=*/0, "")),
            "DiskPageFile: implausible page size");
}

// A header with no pages is a valid (empty) file.
TEST(PersistenceTest, ZeroPageStreamLoads) {
  const ScopedPageFileOnDisk on_disk(
      RawPageFileBytes(/*page_size=*/4096, /*page_count=*/0, ""), "zero");
  auto loaded = DiskPageFile::Open(on_disk.path());
  EXPECT_EQ(loaded->page_count(), 0u);
  EXPECT_EQ(loaded->page_size(), 4096u);
}

TEST(PersistenceTest, FlatIndexSurvivesSaveLoadAttach) {
  const auto entries = testing::RandomEntries(5000, 311);
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  const FlatIndex::Descriptor descriptor = index.descriptor();

  const ScopedPageFileOnDisk on_disk(file, "flat");
  auto loaded = DiskPageFile::Open(on_disk.path());
  FlatIndex reopened = FlatIndex::Attach(loaded.get(), descriptor);

  IoStats original_stats, reopened_stats;
  BufferPool original_pool(&file, &original_stats);
  BufferPool reopened_pool(loaded.get(), &reopened_stats);
  for (const Aabb& q : testing::RandomQueries(30, 312)) {
    std::vector<uint64_t> original, again;
    original_pool.Clear();
    index.RangeQuery(&original_pool, q, &original);
    reopened_pool.Clear();
    reopened.RangeQuery(&reopened_pool, q, &again);
    EXPECT_EQ(testing::Sorted(again), testing::Sorted(original));
  }
  // Identical structure => identical I/O.
  EXPECT_EQ(reopened_stats.TotalReads(), original_stats.TotalReads());
}

TEST(PersistenceTest, ExactBuildsWriteV5) {
  // A fresh save writes the v5 magic: its seed leaves carry v5 records,
  // which readers that predate v5 must refuse.
  NeuronParams params;
  params.total_elements = 30000;
  params.seed = 17;
  const Dataset dataset = GenerateNeurons(params);
  PageFile file;
  const FlatIndex index = FlatIndex::Build(&file, dataset.elements);
  std::ostringstream stream;
  SavePageFile(file, stream);
  const std::string bytes = stream.str();
  ASSERT_EQ(bytes.substr(0, 8), "FLATPGF5");

  // And it reopens to the same answers.
  const ScopedPageFileOnDisk on_disk(bytes, "v5");
  const std::unique_ptr<DiskPageFile> loaded =
      DiskPageFile::Open(on_disk.path());
  const FlatIndex reopened =
      FlatIndex::Attach(loaded.get(), index.descriptor());
  IoStats original_stats, reopened_stats;
  BufferPool original_pool(&file, &original_stats);
  BufferPool reopened_pool(loaded.get(), &reopened_stats);
  for (const Aabb& q : testing::RandomQueries(20, 204)) {
    std::vector<uint64_t> original, again;
    index.RangeQuery(&original_pool, q, &original);
    reopened.RangeQuery(&reopened_pool, q, &again);
    EXPECT_EQ(testing::Sorted(again), testing::Sorted(original));
  }
}

TEST(PersistenceTest, RTreeSurvivesSaveLoad) {
  const auto entries = testing::RandomEntries(3000, 313);
  PageFile file;
  RTree tree = BulkloadPrTree(&file, entries);

  const ScopedPageFileOnDisk on_disk(file, "rtree");
  auto loaded = DiskPageFile::Open(on_disk.path());
  RTree reopened(loaded.get(), tree.root(), tree.height());

  IoStats stats;
  BufferPool pool(loaded.get(), &stats);
  for (const Aabb& q : testing::RandomQueries(20, 314)) {
    std::vector<uint64_t> got;
    reopened.RangeQuery(&pool, q, &got);
    EXPECT_EQ(testing::Sorted(got), testing::BruteForce(entries, q));
  }
}

TEST(PersistenceTest, DescriptorIsTrivialToStoreExternally) {
  // The descriptor is three plain fields; verify a manual round-trip (as a
  // user persisting it in their own catalog would).
  const auto entries = testing::RandomEntries(500, 315);
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, entries);
  FlatIndex::Descriptor d = index.descriptor();
  FlatIndex::Descriptor copy{d.seed_root, d.root_is_leaf, d.seed_height,
                             d.directory_root};
  FlatIndex reopened = FlatIndex::Attach(&file, copy);
  IoStats stats;
  BufferPool pool(&file, &stats);
  EXPECT_EQ(reopened.RangeCount(&pool, Aabb(Vec3(0, 0, 0),
                                            Vec3(100, 100, 100))),
            entries.size());
}

// Page files written by earlier versions: 600 boxes at 1 KiB pages, exact
// seed pages whose seed leaves store the stretched partition MBR and
// Algorithm 1's stretched-MBR neighbor relation (FLATPGF1), and exact seed
// pages written before the tile directory existed (FLATPGF3, tile boxes and
// the tile-adjacency relation, no directory pages). Their leaves hold
// unhinted records and their index has no directory, which no query path
// reads any more, so DiskPageFile::Open rejects both at the magic.
struct LegacyFile {
  const char* name;
  const char* magic;
};
constexpr LegacyFile kLegacyFiles[] = {
    {"flatpgf1_exact.pgf", "FLATPGF1"},
    {"flatpgf3_exact.pgf", "FLATPGF3"},
};
// The same 600 boxes with the retired compressed seed pages (FLATPGF2),
// rejected at its magic too.
constexpr LegacyFile kRetiredV2File = {"flatpgf2_compressed.pgf", "FLATPGF2"};

std::string LegacyPath(const LegacyFile& legacy) {
  return std::string(FLAT_TEST_DATA_DIR) + "/" + legacy.name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Each legacy file is rejected as it is, and would open with the current
// magic: the magic alone keeps its old leaves from being read.
TEST(PersistenceTest, LegacyV1AndV3FilesAreRejected) {
  for (const LegacyFile& legacy : kLegacyFiles) {
    SCOPED_TRACE(legacy.name);
    std::string bytes = ReadBytes(LegacyPath(legacy));
    ASSERT_EQ(bytes.substr(0, 8), legacy.magic);
    EXPECT_EQ(OpenError(bytes), kBadMagic);
    bytes[7] = '5';
    EXPECT_EQ(OpenError(bytes), "");
  }
}

TEST(PersistenceTest, UnknownVersionIsRejectedByBothLoaders) {
  std::string future = ReadBytes(LegacyPath(kLegacyFiles[0]));
  ASSERT_FALSE(future.empty());
  future[7] = '6';
  const std::string v2 = ReadBytes(LegacyPath(kRetiredV2File));
  ASSERT_EQ(v2.substr(0, 8), kRetiredV2File.magic);

  for (const std::string& bytes : {future, v2}) {
    SCOPED_TRACE(bytes.substr(0, 8));
    EXPECT_EQ(OpenError(bytes), kBadMagic);
  }
}

}  // namespace
}  // namespace flat

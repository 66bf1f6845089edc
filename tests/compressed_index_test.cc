// End-to-end invariants of BuildOptions::compressed_seed_pages: query
// results are bit-identical to an exact build (as SETS — the two builds may
// seed the crawl at different records, so emission order can differ), page
// reads never increase, the build stays deterministic across thread counts,
// and files round-trip through both persistence backends under the v2 magic
// while exact builds keep writing byte-identical v1 files.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/crawl_scratch.h"
#include "core/flat_index.h"
#include "data/mesh_generator.h"
#include "data/neuron_generator.h"
#include "data/uniform_generator.h"
#include "rtree/node.h"
#include "storage/buffer_pool.h"
#include "storage/disk_page_file.h"
#include "storage/io_stats.h"
#include "storage/page_file.h"
#include "storage/persistence.h"
#include "tests/test_util.h"

namespace flat {
namespace {

using testing::RandomQueries;
using testing::Sorted;

FlatIndex::BuildOptions CompressedOptions(size_t threads = 1) {
  FlatIndex::BuildOptions options;
  options.num_threads = threads;
  options.compressed_seed_pages = true;
  return options;
}

struct QueryOutcome {
  std::vector<std::vector<uint64_t>> sorted_ids;
  uint64_t total_reads = 0;
};

QueryOutcome RunQueries(const FlatIndex& index, PageStore* store,
                        const std::vector<Aabb>& queries) {
  QueryOutcome outcome;
  IoStats io;
  BufferPool pool(store, &io);
  CrawlScratch scratch;
  outcome.sorted_ids.reserve(queries.size());
  for (const Aabb& query : queries) {
    pool.Clear();
    std::vector<uint64_t> ids;
    index.RangeQuery(&pool, query, &ids, &scratch);
    outcome.sorted_ids.push_back(Sorted(std::move(ids)));
  }
  outcome.total_reads = io.TotalReads();
  return outcome;
}

// The shared tentpole check: same elements, exact vs compressed build, same
// query stream -> identical result sets, no extra page reads, and against
// the brute-force oracle for good measure.
void ExpectCompressedMatchesExact(const Dataset& dataset, uint32_t page_size,
                                  uint64_t query_seed) {
  PageFile exact_file(page_size);
  FlatIndex exact = FlatIndex::Build(&exact_file, dataset.elements);

  PageFile compressed_file(page_size);
  FlatIndex compressed = FlatIndex::Build(&compressed_file, dataset.elements,
                                          CompressedOptions());

  const auto queries = RandomQueries(60, query_seed);
  const QueryOutcome exact_out = RunQueries(exact, &exact_file, queries);
  const QueryOutcome compressed_out =
      RunQueries(compressed, &compressed_file, queries);

  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(exact_out.sorted_ids[i], compressed_out.sorted_ids[i])
        << "query " << i << " diverged (page_size " << page_size << ")";
    EXPECT_EQ(compressed_out.sorted_ids[i],
              Sorted(dataset.BruteForceRange(queries[i])))
        << "query " << i << " wrong vs oracle";
  }
  // No assertion on total_reads here: the quantized gate's false positives
  // can pick a *different* (equally valid) seed record whose crawl path
  // touches a few more pages on tiny data sets. The read-count reduction is
  // a workload-level property and is gated where the issue states it — on
  // the Figure-12 SN workload, by bench_fig12_sn_page_reads --json
  // (bench_smoke + BENCH_compressed.json fail on any regression).
  EXPECT_LE(compressed.build_stats().seed_internal_pages,
            exact.build_stats().seed_internal_pages);
  EXPECT_LE(compressed.build_stats().seed_height,
            exact.build_stats().seed_height);
}

Dataset NeuronData() {
  NeuronParams params;
  params.total_elements = 30000;
  params.seed = 17;
  return GenerateNeurons(params);
}

TEST(CompressedIndexTest, NeuronResultsBitIdentical) {
  const Dataset dataset = NeuronData();
  ExpectCompressedMatchesExact(dataset, kDefaultPageSize, 101);
  // 512-byte pages force a tall exact tree (fanout 9 vs 28) — the format
  // divergence is largest here.
  ExpectCompressedMatchesExact(dataset, 512, 102);
}

TEST(CompressedIndexTest, MeshResultsBitIdentical) {
  MeshParams params;
  params.kind = MeshKind::kFoldedSheet;
  params.target_triangles = 20000;
  params.seed = 23;
  const Dataset dataset = GenerateMesh(params);
  ExpectCompressedMatchesExact(dataset, 512, 103);
}

TEST(CompressedIndexTest, UniformResultsBitIdentical) {
  UniformBoxParams params;
  params.count = 20000;
  params.universe_side_um = 100.0;
  params.side_um = 1.0;
  params.seed = 29;
  const Dataset dataset = GenerateUniformBoxes(params);
  ExpectCompressedMatchesExact(dataset, 512, 104);
}

TEST(CompressedIndexTest, HeightDropsOnTallTrees) {
  // At 512-byte pages the exact seed tree over this data set needs more
  // levels than the compressed one (fanout 9 vs 28) — the mechanism behind
  // the Figure-12 seed-internal read reduction.
  const Dataset dataset = NeuronData();
  PageFile exact_file(512);
  FlatIndex exact = FlatIndex::Build(&exact_file, dataset.elements);
  PageFile compressed_file(512);
  FlatIndex compressed = FlatIndex::Build(&compressed_file, dataset.elements,
                                          CompressedOptions());
  ASSERT_GE(exact.build_stats().seed_height, 3);
  EXPECT_LT(compressed.build_stats().seed_height,
            exact.build_stats().seed_height);
}

TEST(CompressedIndexTest, ParallelBuildByteIdentical) {
  const Dataset dataset = NeuronData();
  PageFile serial_file;
  FlatIndex::Build(&serial_file, dataset.elements, CompressedOptions(1));
  for (size_t threads : {2, 4}) {
    PageFile parallel_file;
    FlatIndex::Build(&parallel_file, dataset.elements,
                     CompressedOptions(threads));
    ASSERT_EQ(serial_file.page_count(), parallel_file.page_count());
    for (PageId id = 0; id < serial_file.page_count(); ++id) {
      ASSERT_EQ(serial_file.category(id), parallel_file.category(id));
      ASSERT_EQ(std::memcmp(serial_file.Data(id), parallel_file.Data(id),
                            serial_file.page_size()),
                0)
          << "page " << id << " differs at " << threads << " threads";
    }
  }
}

TEST(CompressedIndexTest, MagicReflectsPageFormats) {
  const Dataset dataset = NeuronData();
  PageFile exact_file;
  FlatIndex::Build(&exact_file, dataset.elements);
  PageFile compressed_file;
  FlatIndex::Build(&compressed_file, dataset.elements, CompressedOptions());

  // Both node formats are self-describing per page; the magic names the
  // seed-leaf record format (tile boxes, v3), which every build writes.
  std::stringstream exact_stream, compressed_stream;
  SavePageFile(exact_file, exact_stream);
  SavePageFile(compressed_file, compressed_stream);
  EXPECT_EQ(exact_stream.str().substr(0, 8), "FLATPGF3");
  EXPECT_EQ(compressed_stream.str().substr(0, 8), "FLATPGF3");

  // Unknown future versions stay rejected.
  std::string bytes = compressed_stream.str();
  bytes[7] = '4';
  std::istringstream future(bytes);
  EXPECT_THROW(LoadPageFile(future), std::runtime_error);
}

TEST(CompressedIndexTest, SaveLoadQueryIdentity) {
  const Dataset dataset = NeuronData();
  PageFile file(512);
  FlatIndex index =
      FlatIndex::Build(&file, dataset.elements, CompressedOptions());
  const auto queries = RandomQueries(40, 202);
  const QueryOutcome before = RunQueries(index, &file, queries);

  std::stringstream stream;
  SavePageFile(file, stream);
  auto loaded = LoadPageFile(stream);
  FlatIndex reopened = FlatIndex::Attach(loaded.get(), index.descriptor());
  const QueryOutcome after = RunQueries(reopened, loaded.get(), queries);
  EXPECT_EQ(before.sorted_ids, after.sorted_ids);
  EXPECT_EQ(before.total_reads, after.total_reads);
}

TEST(CompressedIndexTest, DiskBackendRoundTrip) {
  const Dataset dataset = NeuronData();
  PageFile file(512);
  FlatIndex index =
      FlatIndex::Build(&file, dataset.elements, CompressedOptions());
  const auto queries = RandomQueries(40, 203);
  const QueryOutcome before = RunQueries(index, &file, queries);

  const std::string path = ::testing::TempDir() + "compressed_index.pgf";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    SavePageFile(file, out);
  }
  auto disk = DiskPageFile::Open(path);
  FlatIndex reopened = FlatIndex::Attach(disk.get(), index.descriptor());
  const QueryOutcome after = RunQueries(reopened, disk.get(), queries);
  EXPECT_EQ(before.sorted_ids, after.sorted_ids);
  EXPECT_EQ(before.total_reads, after.total_reads);
  std::remove(path.c_str());
}

TEST(CompressedIndexTest, ExactBuildsWriteV3) {
  // An exact build writes the v3 magic too: its seed leaves carry tile
  // boxes, which readers that predate v3 must refuse.
  const Dataset dataset = NeuronData();
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, dataset.elements);
  std::stringstream stream;
  SavePageFile(file, stream);
  const std::string bytes = stream.str();
  ASSERT_EQ(bytes.substr(0, 8), "FLATPGF3");

  // And it loads + queries identically.
  std::istringstream in(bytes);
  auto loaded = LoadPageFile(in);
  FlatIndex reopened = FlatIndex::Attach(loaded.get(), index.descriptor());
  const auto queries = RandomQueries(20, 204);
  EXPECT_EQ(RunQueries(index, &file, queries).sorted_ids,
            RunQueries(reopened, loaded.get(), queries).sorted_ids);
}

}  // namespace
}  // namespace flat

// End-to-end tests: every index variant against every generator, validated
// against the brute-force oracle, plus the paper's headline qualitative
// claims verified at test scale.
#include <gtest/gtest.h>

#include "benchutil/contender.h"
#include "core/flat_index.h"
#include "data/mesh_generator.h"
#include "data/nbody_generator.h"
#include "data/neuron_generator.h"
#include "data/query_generator.h"
#include "data/uniform_generator.h"
#include "tests/test_util.h"

namespace flat {
namespace {

Dataset MakeDataset(const std::string& which) {
  if (which == "neurons") {
    NeuronParams p;
    p.total_elements = 15000;
    p.seed = 201;
    return GenerateNeurons(p);
  }
  if (which == "mesh") {
    MeshParams p;
    p.kind = MeshKind::kFoldedSheet;
    p.target_triangles = 15000;
    p.seed = 202;
    return GenerateMesh(p);
  }
  if (which == "nbody") {
    NBodyParams p;
    p.count = 15000;
    p.seed = 203;
    return GenerateNBody(p);
  }
  UniformBoxParams p;
  p.count = 15000;
  p.seed = 204;
  return GenerateUniformBoxes(p);
}

class IndexOnDatasetTest
    : public ::testing::TestWithParam<std::tuple<IndexKind, std::string>> {};

TEST_P(IndexOnDatasetTest, MatchesOracle) {
  const auto [kind, which] = GetParam();
  Dataset dataset = MakeDataset(which);
  Contender contender = BuildContender(kind, dataset.elements);

  RangeWorkloadParams wp;
  wp.count = 12;
  wp.volume_fraction = 2e-5;
  wp.seed = 205;
  IoStats stats;
  BufferPool pool(contender.file.get(), &stats);
  for (const Aabb& q : GenerateRangeWorkload(dataset.bounds, wp)) {
    std::vector<uint64_t> got;
    contender.RangeQuery(&pool, q, &got);
    EXPECT_EQ(testing::Sorted(got), dataset.BruteForceRange(q))
        << IndexKindName(kind) << " on " << which;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexesAllDatasets, IndexOnDatasetTest,
    ::testing::Combine(::testing::Values(IndexKind::kHilbert, IndexKind::kStr,
                                         IndexKind::kPrTree, IndexKind::kTgs,
                                         IndexKind::kFlat),
                       ::testing::Values(std::string("neurons"),
                                         std::string("mesh"),
                                         std::string("nbody"),
                                         std::string("uniform"))),
    [](const auto& info) {
      std::string name = std::string(IndexKindName(std::get<0>(info.param))) +
                         "_" + std::get<1>(info.param);
      std::erase_if(name, [](char c) { return !std::isalnum(c) && c != '_'; });
      return name;
    });

// ---------------------------------------------------------------------------
// Headline claims at test scale.
// ---------------------------------------------------------------------------

TEST(HeadlineClaimsTest, FlatReadsFewerPagesThanStrAndPrOnDenseSnWorkload) {
  // SN-style benchmark on a dense microcircuit: FLAT must beat the paper's
  // best R-Tree (the PR-Tree, Figure 12) and the STR R-Tree on page reads.
  // Deviation note (docs/benchmarks.md, "Deviations from the paper"): our
  // modern Hilbert-packed bulkloader is stronger than the paper's 2012
  // Hilbert baseline and is not required to lose here.
  NeuronParams np;
  np.total_elements = 150000;
  np.seed = 206;
  Dataset dataset = GenerateNeurons(np);

  RangeWorkloadParams wp;
  wp.count = 40;
  wp.volume_fraction = 5e-6;
  wp.seed = 207;
  auto queries = GenerateRangeWorkload(dataset.bounds, wp);

  DiskModel disk;
  uint64_t flat_reads = 0;
  uint64_t str_reads = 0;
  uint64_t pr_reads = 0;
  for (IndexKind kind : kPaperLineup) {
    Contender contender = BuildContender(kind, dataset.elements);
    WorkloadResult r = RunWorkload(contender, queries, disk);
    if (kind == IndexKind::kFlat) flat_reads = r.io.TotalReads();
    if (kind == IndexKind::kStr) str_reads = r.io.TotalReads();
    if (kind == IndexKind::kPrTree) pr_reads = r.io.TotalReads();
  }
  EXPECT_LT(flat_reads, str_reads);
  EXPECT_LT(flat_reads, pr_reads);
}

TEST(HeadlineClaimsTest, FlatIndexIsLargerButSameOrderAsPrTree) {
  // Figure 11 / 22: FLAT trades a modestly larger index (metadata) for query
  // speed.
  auto entries = testing::RandomEntries(30000, 208);
  Contender flat = BuildContender(IndexKind::kFlat, entries);
  Contender pr = BuildContender(IndexKind::kPrTree, entries);
  EXPECT_GT(flat.size_bytes(), pr.size_bytes());
  EXPECT_LT(flat.size_bytes(), 2 * pr.size_bytes());
}

TEST(HeadlineClaimsTest, SeedPhaseConstantWhileCrawlScalesWithResult) {
  // Figure 14 (left): seed-tree reads stay flat as density grows; object +
  // metadata reads grow with the result set.
  DiskModel disk;
  uint64_t seed_reads[2];
  uint64_t object_reads[2];
  int i = 0;
  for (size_t count : {20000u, 80000u}) {
    NeuronParams np;
    np.total_elements = count;
    np.seed = 209;
    Dataset dataset = GenerateNeurons(np);
    Contender flat = BuildContender(IndexKind::kFlat, dataset.elements);
    RangeWorkloadParams wp;
    wp.count = 30;
    // Crawl-dominated queries: large enough that every query returns
    // hundreds of elements, so object reads track the result set rather
    // than seed-phase probing.
    wp.volume_fraction = 2e-3;
    wp.seed = 210;
    auto queries = GenerateRangeWorkload(dataset.bounds, wp);
    WorkloadResult r = RunWorkload(flat, queries, disk);
    seed_reads[i] = r.io.ReadsIn(PageCategory::kSeedInternal);
    object_reads[i] = r.io.ReadsIn(PageCategory::kObject);
    ++i;
  }
  EXPECT_GT(object_reads[1], 2 * object_reads[0])
      << "object reads must track the growing result set";
  EXPECT_LT(seed_reads[1], 3 * seed_reads[0] + 60)
      << "seed reads must stay roughly constant";
}

TEST(HeadlineClaimsTest, RTreeNonLeafOverheadExceedsFlatMetadataOverhead) {
  // Figure 18: FLAT's non-data I/O (seed + metadata) is below the R-Tree's
  // non-leaf I/O on LSS-style queries.
  NeuronParams np;
  np.total_elements = 60000;
  np.seed = 211;
  Dataset dataset = GenerateNeurons(np);
  RangeWorkloadParams wp;
  wp.count = 20;
  wp.volume_fraction = 5e-6;
  wp.seed = 212;
  auto queries = GenerateRangeWorkload(dataset.bounds, wp);
  DiskModel disk;

  Contender flat = BuildContender(IndexKind::kFlat, dataset.elements);
  Contender pr = BuildContender(IndexKind::kPrTree, dataset.elements);
  WorkloadResult fr = RunWorkload(flat, queries, disk);
  WorkloadResult pri = RunWorkload(pr, queries, disk);

  const uint64_t flat_overhead = fr.io.ReadsIn(PageCategory::kSeedInternal) +
                                 fr.io.ReadsIn(PageCategory::kSeedLeaf);
  const uint64_t pr_overhead = pri.io.ReadsIn(PageCategory::kRTreeInternal);
  EXPECT_LT(flat_overhead, pr_overhead);
}

TEST(HeadlineClaimsTest, AllContendersReturnIdenticalResults) {
  // Cross-validation: every index returns byte-identical result sets on a
  // mixed workload (they'd better — they index the same data).
  Dataset dataset = MakeDataset("neurons");
  RangeWorkloadParams wp;
  wp.count = 15;
  wp.volume_fraction = 1e-5;
  wp.seed = 213;
  auto queries = GenerateRangeWorkload(dataset.bounds, wp);

  std::vector<Contender> contenders;
  for (IndexKind kind : kPaperLineup) {
    contenders.push_back(BuildContender(kind, dataset.elements));
  }
  for (const Aabb& q : queries) {
    std::vector<uint64_t> reference;
    bool first = true;
    for (const Contender& contender : contenders) {
      IoStats stats;
      BufferPool pool(contender.file.get(), &stats);
      std::vector<uint64_t> got;
      contender.RangeQuery(&pool, q, &got);
      auto sorted = testing::Sorted(got);
      if (first) {
        reference = sorted;
        first = false;
      } else {
        EXPECT_EQ(sorted, reference) << IndexKindName(contender.kind);
      }
    }
  }
}

}  // namespace
}  // namespace flat

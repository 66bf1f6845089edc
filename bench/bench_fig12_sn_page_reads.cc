// Figure 12: total page reads for the SN benchmark (200 range queries of fixed
// volume, random location and aspect ratio, cold cache per query).
// Paper claim: the best R-Tree (PR) reads 2x..8x more pages than FLAT, growing with density.
//
// --json switches to the compressed-vs-exact contender pair (the
// BENCH_compressed.json baseline): at each density point the same data set is
// built once with exact interior seed pages and once with the quantized
// format (FlatIndex::BuildOptions::compressed_seed_pages), and the SN
// workload runs against both, cold cache per query. The pair is measured on
// RangeQueryViaSeedScan, the plain seed-tree traversal: interior pages are
// what compressed pages shrink, and an exact build tall enough for a tile
// directory does not walk them to seed RangeQuery. RangeQuery's reads on
// both builds are printed beside it, without a gate.
//
// Self-validating gates (non-zero exit on violation):
//   * every query returns the same result SET on both builds, through both
//     plans (ids compared sorted — emission ORDER may differ, the set
//     cannot);
//   * the compressed build's total seed-scan page reads never exceed the
//     exact build's at any point;
//   * at some point the seed-scan seed-internal read reduction reaches >= 2x
//     (the category compressed pages can shrink; object and seed-leaf pages
//     are byte-identical between the builds).
#include <algorithm>
#include <vector>

#include "bench/bench_common.h"
#include "data/query_generator.h"
#include "storage/buffer_pool.h"

namespace {

using namespace flat;

/// One plan over the SN workload: cold-cache reads and sorted ids per query.
struct PlanRun {
  IoStats io;
  uint64_t result_elements = 0;
  /// Sorted ids per query, for the set-identity gate.
  std::vector<std::vector<uint64_t>> sorted_ids;
};

struct PairRun {
  PlanRun scan;   // RangeQueryViaSeedScan: the gated plan
  PlanRun range;  // RangeQuery: printed only
  uint64_t total_pages = 0;
  uint64_t seed_internal_pages = 0;
  uint64_t directory_pages = 0;
  int seed_height = 0;
};

template <typename Plan>
PlanRun RunPlan(const Contender& contender, const std::vector<Aabb>& queries,
                const Plan& plan) {
  PlanRun run;
  BufferPool pool(contender.file.get(), &run.io);
  run.sorted_ids.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    pool.Clear();  // cold cache before each query, as in the paper
    plan(&pool, queries[i], &run.sorted_ids[i]);
    std::sort(run.sorted_ids[i].begin(), run.sorted_ids[i].end());
    run.result_elements += run.sorted_ids[i].size();
  }
  return run;
}

PairRun RunPair(IndexKind kind, const Dataset& dataset,
                const std::vector<Aabb>& queries) {
  Contender contender = BuildContender(kind, dataset.elements);
  PairRun run;
  run.total_pages = contender.total_pages();
  run.seed_internal_pages = contender.flat.build_stats().seed_internal_pages;
  run.directory_pages = contender.flat.build_stats().directory_pages;
  run.seed_height = contender.flat.build_stats().seed_height;
  run.scan = RunPlan(contender, queries,
                     [&](BufferPool* pool, const Aabb& q,
                         std::vector<uint64_t>* ids) {
                       contender.flat.RangeQueryViaSeedScan(pool, q, ids);
                     });
  run.range = RunPlan(contender, queries,
                      [&](BufferPool* pool, const Aabb& q,
                          std::vector<uint64_t>* ids) {
                        contender.RangeQuery(pool, q, ids);
                      });
  return run;
}

void PrintBuild(const PairRun& run) {
  const IoStats& io = run.scan.io;
  std::cout << "{\"total_reads\": " << io.TotalReads()
            << ", \"seed_internal_reads\": "
            << io.ReadsIn(PageCategory::kSeedInternal)
            << ", \"seed_leaf_reads\": " << io.ReadsIn(PageCategory::kSeedLeaf)
            << ", \"object_reads\": " << io.ReadsIn(PageCategory::kObject)
            << ", \"seed_internal_pages\": " << run.seed_internal_pages
            << ", \"directory_pages\": " << run.directory_pages
            << ", \"seed_height\": " << run.seed_height
            << ", \"total_pages\": " << run.total_pages
            << ",\n       \"range_query\": {\"total_reads\": "
            << run.range.io.TotalReads() << ", \"seed_internal_reads\": "
            << run.range.io.ReadsIn(PageCategory::kSeedInternal) << "}}";
}

int RunCompressedComparison(const BenchFlags& flags) {
  const size_t points[] = {flags.Scaled(100000), flags.Scaled(200000),
                           flags.Scaled(400000)};
  std::cerr << "# compressed-vs-exact SN page reads, " << flags.queries()
            << " queries per point, cold cache per query\n";

  bool identical = true;
  bool reads_bounded = true;
  double max_internal_reduction = 0.0;
  std::cout << "{\n"
            << "  \"bench\": \"fig12_sn_page_reads\",\n"
            << "  \"workload\": \"sn_seed_scan_compressed_vs_exact\",\n"
            << "  \"queries\": " << flags.queries() << ",\n"
            << "  \"points\": [\n";
  for (size_t p = 0; p < 3; ++p) {
    Dataset dataset = NeuronDatasetAt(points[p], flags.seed());
    RangeWorkloadParams workload;
    workload.count = flags.queries();
    workload.volume_fraction = kSnVolumeFraction;
    workload.seed = flags.seed() + 1;
    const std::vector<Aabb> queries =
        GenerateRangeWorkload(dataset.bounds, workload);

    const PairRun exact = RunPair(IndexKind::kFlat, dataset, queries);
    const PairRun compressed =
        RunPair(IndexKind::kFlatCompressed, dataset, queries);

    const bool point_identical =
        exact.scan.sorted_ids == compressed.scan.sorted_ids &&
        exact.range.sorted_ids == compressed.range.sorted_ids &&
        exact.scan.sorted_ids == exact.range.sorted_ids;
    identical = identical && point_identical;
    reads_bounded = reads_bounded && compressed.scan.io.TotalReads() <=
                                         exact.scan.io.TotalReads();
    const uint64_t exact_internal =
        exact.scan.io.ReadsIn(PageCategory::kSeedInternal);
    const uint64_t compressed_internal =
        compressed.scan.io.ReadsIn(PageCategory::kSeedInternal);
    const double internal_reduction =
        compressed_internal > 0
            ? static_cast<double>(exact_internal) / compressed_internal
            : 0.0;
    max_internal_reduction =
        std::max(max_internal_reduction, internal_reduction);

    std::cout << "    {\"elements\": " << dataset.elements.size()
              << ", \"results\": " << exact.scan.result_elements << ",\n"
              << "     \"exact\": ";
    PrintBuild(exact);
    std::cout << ",\n     \"compressed\": ";
    PrintBuild(compressed);
    std::cout << ",\n     \"seed_internal_reduction\": " << internal_reduction
              << ", \"identical_results\": "
              << (point_identical ? "true" : "false") << "}"
              << (p + 1 < 3 ? "," : "") << "\n";
  }
  std::cout << "  ],\n"
            << "  \"identical_results\": " << (identical ? "true" : "false")
            << ",\n"
            << "  \"compressed_reads_bounded\": "
            << (reads_bounded ? "true" : "false") << ",\n"
            << "  \"max_seed_internal_reduction\": " << max_internal_reduction
            << "\n"
            << "}\n";

  if (!identical) {
    std::cerr << "ERROR: compressed build returned different result sets "
                 "than the exact build\n";
    return 1;
  }
  if (!reads_bounded) {
    std::cerr << "ERROR: compressed build's seed scan read more pages than "
                 "the exact build's\n";
    return 1;
  }
  if (max_internal_reduction < 2.0) {
    std::cerr << "ERROR: seed-internal read reduction "
              << max_internal_reduction << "x never reached the 2x gate\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flat;
  BenchFlags flags(argc, argv);
  if (flags.GetInt("json", 0) != 0) return RunCompressedComparison(flags);

  SweepOptions options;
  options.volume_fraction = kSnVolumeFraction;
  options.kinds = bench::kLineup;
  const auto points = RunDensitySweep(flags, options);
  std::cout << "Figure 12: total page reads, SN benchmark\n"
            << "(paper: the best R-Tree (PR) reads 2x..8x more pages than FLAT, growing with density)\n\n";
  bench::PrintTotalReads(points, flags);
  return 0;
}

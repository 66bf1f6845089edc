// Figure 12: total page reads for the SN benchmark (200 range queries of fixed
// volume, random location and aspect ratio, cold cache per query).
// Paper claim: the best R-Tree (PR) reads 2x..8x more pages than FLAT, growing with density.
//
// --json records the claim as exact counters instead (the BENCH_fig12.json
// baseline): at 100k, 200k and 400k elements, every contender's total and
// per-category page reads over the same SN workload, cold cache per query,
// and each R-Tree's ratio to FLAT.
//
// Self-validating gates (non-zero exit on violation):
//   * per query, every contender and FLAT's RangeQueryViaSeedScan return the
//     same id set (ids compared sorted; emission order may differ);
//   * FLAT reads fewer pages than every R-Tree (PR, STR and Hilbert) at
//     every point.
#include <algorithm>
#include <string>
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
  std::vector<std::vector<uint64_t>> sorted_ids;
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

/// Opens the contender's JSON object with `"total_reads": n` and one
/// `"<category>_reads": n` per page category its file holds; the caller
/// closes it.
void PrintReads(const Contender& contender, const IoStats& io) {
  std::cout << "{\"total_reads\": " << io.TotalReads();
  for (int c = 0; c < kNumPageCategories; ++c) {
    const auto category = static_cast<PageCategory>(c);
    if (contender.file->PageCountIn(category) == 0) continue;
    std::string name = PageCategoryName(category);
    std::replace(name.begin(), name.end(), '-', '_');
    std::cout << ", \"" << name << "_reads\": " << io.ReadsIn(category);
  }
}

int RunClaimRecord(const BenchFlags& flags) {
  const size_t points[] = {flags.Scaled(100000), flags.Scaled(200000),
                           flags.Scaled(400000)};
  std::cerr << "# Fig. 12 SN page reads, " << flags.queries()
            << " queries per point, cold cache per query\n";

  bool identical = true;
  bool flat_fewer = true;
  std::cout << "{\n"
            << "  \"bench\": \"fig12_sn_page_reads\",\n"
            << "  \"workload\": \"sn_range_query\",\n"
            << "  \"queries\": " << flags.queries() << ",\n"
            << "  \"page_size\": " << kDefaultPageSize << ",\n"
            << "  \"points\": [\n";
  for (size_t p = 0; p < 3; ++p) {
    Dataset dataset = NeuronDatasetAt(points[p], flags.seed());
    RangeWorkloadParams workload;
    workload.count = flags.queries();
    workload.volume_fraction = kSnVolumeFraction;
    workload.seed = flags.seed() + 1;
    const std::vector<Aabb> queries =
        GenerateRangeWorkload(dataset.bounds, workload);

    bool point_identical = true;
    uint64_t flat_reads = 0;
    std::vector<std::vector<uint64_t>> reference;
    std::cout << "    {\"elements\": " << dataset.elements.size();
    // kLineup runs FLAT first: its reads and ids are the reference.
    for (IndexKind kind : bench::kLineup) {
      const Contender contender = BuildContender(kind, dataset.elements);
      const PlanRun run = RunPlan(
          contender, queries,
          [&](BufferPool* pool, const Aabb& q, std::vector<uint64_t>* ids) {
            contender.RangeQuery(pool, q, ids);
          });
      if (kind == IndexKind::kFlat) {
        flat_reads = run.io.TotalReads();
        reference = run.sorted_ids;
        const PlanRun scan = RunPlan(
            contender, queries,
            [&](BufferPool* pool, const Aabb& q, std::vector<uint64_t>* ids) {
              contender.flat.RangeQueryViaSeedScan(pool, q, ids);
            });
        point_identical = point_identical && scan.sorted_ids == reference;
        std::cout << ", \"results\": " << run.result_elements;
      }
      point_identical = point_identical && run.sorted_ids == reference;
      std::cout << ",\n     \"" << IndexKindName(kind) << "\": ";
      PrintReads(contender, run.io);
      if (kind != IndexKind::kFlat) {
        std::cout << ", \"ratio_to_flat\": "
                  << static_cast<double>(run.io.TotalReads()) / flat_reads;
        flat_fewer = flat_fewer && flat_reads < run.io.TotalReads();
      }
      std::cout << "}";
    }
    identical = identical && point_identical;
    std::cout << ",\n     \"identical_results\": "
              << (point_identical ? "true" : "false") << "}"
              << (p + 1 < 3 ? "," : "") << "\n";
  }
  std::cout << "  ],\n"
            << "  \"identical_results\": " << (identical ? "true" : "false")
            << ",\n"
            << "  \"flat_fewer_reads_than_pr_str_and_hilbert\": "
            << (flat_fewer ? "true" : "false") << "\n"
            << "}\n";

  if (!identical) {
    std::cerr << "ERROR: the contenders returned different result sets\n";
    return 1;
  }
  if (!flat_fewer) {
    std::cerr << "ERROR: FLAT did not read fewer pages than the PR-Tree, "
                 "the STR R-Tree and the Hilbert R-Tree at every point\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flat;
  BenchFlags flags(argc, argv);
  if (flags.GetInt("json", 0) != 0) return RunClaimRecord(flags);

  SweepOptions options;
  options.volume_fraction = kSnVolumeFraction;
  options.kinds = bench::kLineup;
  const auto points = RunDensitySweep(flags, options);
  std::cout << "Figure 12: total page reads, SN benchmark\n"
            << "(paper: the best R-Tree (PR) reads 2x..8x more pages than FLAT, growing with density)\n\n";
  bench::PrintTotalReads(points, flags);
  return 0;
}

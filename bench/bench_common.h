// Shared rendering for the SN/LSS benchmark families (Figures 12-19): a
// figure binary runs the density sweep for its workload once and prints one
// or more views of it (total reads, simulated time, breakdown, or
// per-result reads).
#ifndef FLAT_BENCH_BENCH_COMMON_H_
#define FLAT_BENCH_BENCH_COMMON_H_

#include <iostream>
#include <string>
#include <vector>

#include "benchutil/experiment.h"
#include "benchutil/sweep.h"
#include "benchutil/table.h"

namespace flat {
namespace bench {

inline const std::vector<IndexKind> kLineup = {
    IndexKind::kFlat, IndexKind::kPrTree, IndexKind::kStr,
    IndexKind::kHilbert};

inline void PrintTotalReads(const std::vector<DensityPoint>& points,
                            const BenchFlags& flags) {
  // The paper's headline ratio compares FLAT against the PR-Tree, "the best
  // R-Tree" in its experiments (our Hilbert baseline is stronger than the
  // paper's — see docs/benchmarks.md, "Deviations from the paper").
  Table table({"elements", "FLAT", "PR-Tree", "STR", "Hilbert", "PR/FLAT",
               "STR/FLAT"});
  for (const DensityPoint& p : points) {
    const double flat = static_cast<double>(
        p.by_kind.at(IndexKind::kFlat).workload.io.TotalReads());
    std::vector<std::string> row = {DensityLabel(p.elements)};
    for (IndexKind kind : kLineup) {
      row.push_back(FormatNumber(
          static_cast<double>(
              p.by_kind.at(kind).workload.io.TotalReads()), 0));
    }
    row.push_back(FormatNumber(
        p.by_kind.at(IndexKind::kPrTree).workload.io.TotalReads() / flat,
        2));
    row.push_back(FormatNumber(
        p.by_kind.at(IndexKind::kStr).workload.io.TotalReads() / flat, 2));
    table.AddRow(row);
  }
  flags.csv() ? table.PrintCsv(std::cout) : table.Print(std::cout);
}

inline void PrintSimulatedTime(const std::vector<DensityPoint>& points,
                               const BenchFlags& flags) {
  Table table({"elements", "FLAT s", "PR-Tree s", "STR s", "Hilbert s"});
  for (const DensityPoint& p : points) {
    std::vector<std::string> row = {DensityLabel(p.elements)};
    for (IndexKind kind : kLineup) {
      row.push_back(
          FormatNumber(p.by_kind.at(kind).workload.simulated_ms / 1e3, 3));
    }
    table.AddRow(row);
  }
  flags.csv() ? table.PrintCsv(std::cout) : table.Print(std::cout);
}

inline void PrintBreakdown(const std::vector<DensityPoint>& points,
                           const BenchFlags& flags) {
  const double page_mib = kDefaultPageSize / 1048576.0;
  Table table({"elements", "FLAT seed MiB", "FLAT meta MiB", "FLAT obj MiB",
               "PR non-leaf MiB", "PR leaf MiB", "PR nonleaf/leaf"});
  for (const DensityPoint& p : points) {
    const IoStats& flat_io = p.by_kind.at(IndexKind::kFlat).workload.io;
    const IoStats& pr_io = p.by_kind.at(IndexKind::kPrTree).workload.io;
    const double pr_nonleaf =
        pr_io.ReadsIn(PageCategory::kRTreeInternal) * page_mib;
    const double pr_leaf = pr_io.ReadsIn(PageCategory::kRTreeLeaf) * page_mib;
    table.AddRow(
        {DensityLabel(p.elements),
         FormatNumber(flat_io.ReadsIn(PageCategory::kSeedInternal) * page_mib,
                      3),
         FormatNumber(flat_io.ReadsIn(PageCategory::kSeedLeaf) * page_mib, 3),
         FormatNumber(flat_io.ReadsIn(PageCategory::kObject) * page_mib, 3),
         FormatNumber(pr_nonleaf, 3), FormatNumber(pr_leaf, 3),
         FormatNumber(pr_leaf > 0 ? pr_nonleaf / pr_leaf : 0.0, 2)});
  }
  flags.csv() ? table.PrintCsv(std::cout) : table.Print(std::cout);
}

inline void PrintPerResult(const std::vector<DensityPoint>& points,
                           const BenchFlags& flags) {
  Table table({"elements", "results", "FLAT", "PR-Tree", "STR", "Hilbert"});
  for (const DensityPoint& p : points) {
    const uint64_t results =
        p.by_kind.at(IndexKind::kFlat).workload.result_elements;
    std::vector<std::string> row = {
        DensityLabel(p.elements),
        FormatNumber(static_cast<double>(results), 0)};
    for (IndexKind kind : kLineup) {
      const auto& w = p.by_kind.at(kind).workload;
      row.push_back(FormatNumber(
          w.result_elements > 0
              ? static_cast<double>(w.io.TotalReads()) / w.result_elements
              : 0.0,
          3));
    }
    table.AddRow(row);
  }
  flags.csv() ? table.PrintCsv(std::cout) : table.Print(std::cout);
}

}  // namespace bench
}  // namespace flat

#endif  // FLAT_BENCH_BENCH_COMMON_H_

// Figure 3 (table): page reads per result element for structural-
// neighborhood range queries on a bulkloaded Priority R-Tree, as density
// grows. Paper values: 1.73 ... 2.33 over 50M..450M elements — the per-
// result cost *rises* with density, the scalability failure that motivates
// FLAT.
#include <iostream>

#include "benchutil/experiment.h"
#include "benchutil/reference.h"
#include "benchutil/sweep.h"
#include "benchutil/table.h"

int main(int argc, char** argv) {
  using namespace flat;
  BenchFlags flags(argc, argv);

  SweepOptions options;
  options.volume_fraction = kSnVolumeFraction;
  options.kinds = {IndexKind::kPrTree};
  const auto points = RunDensitySweep(flags, options);

  std::cout << "Figure 3: page reads per result element, SN benchmark, "
               "PR-Tree\n\n";
  Table table({"elements", "reads/result (measured)", "paper (50M..450M)",
               "results"});
  for (size_t i = 0; i < points.size(); ++i) {
    const auto& r = points[i].by_kind.at(IndexKind::kPrTree).workload;
    const double per_result =
        r.result_elements > 0
            ? static_cast<double>(r.io.TotalReads()) / r.result_elements
            : 0.0;
    table.AddRow({DensityLabel(points[i].elements),
                  FormatNumber(per_result, 2),
                  i < paper::kFig3PrReadsPerResult.size()
                      ? FormatNumber(paper::kFig3PrReadsPerResult[i], 2)
                      : "",
                  FormatNumber(static_cast<double>(r.result_elements), 0)});
  }
  flags.csv() ? table.PrintCsv(std::cout) : table.Print(std::cout);
  std::cout
      << "\nReproduction check: the PR-Tree pays a substantial multiple of "
         "one page read per\nresult element at every density, and its total "
         "reads grow with density.\nKnown deviation (docs/benchmarks.md): at "
         "1/1000 scale the per-result cost falls as the\nfixed traversal "
         "floor amortizes, while the paper's full-scale trees (two levels\n"
         "taller, overlap compounding across levels) show it rising "
         "1.73 -> 2.33.\n";
  return 0;
}

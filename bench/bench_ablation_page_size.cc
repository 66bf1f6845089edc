// Ablation: page-size sensitivity. The paper fixes 4 KiB pages (and 85
// elements per page); this bench sweeps the page size for FLAT and the
// PR-Tree. Smaller pages mean taller trees and finer partitions; larger
// pages amortize the hierarchy but read more data per hit. FLAT's records
// per seed leaf, and its seed-leaf and object reads per query, show what
// the leaf format costs at each size.
#include <iostream>

#include "benchutil/contender.h"
#include "benchutil/experiment.h"
#include "benchutil/flags.h"
#include "benchutil/sweep.h"
#include "benchutil/table.h"
#include "data/query_generator.h"
#include "rtree/node.h"

int main(int argc, char** argv) {
  using namespace flat;
  BenchFlags flags(argc, argv);
  const size_t count = flags.Scaled(200000);
  Dataset dataset = NeuronDatasetAt(count, flags.seed());

  RangeWorkloadParams wp;
  wp.count = flags.queries();
  wp.volume_fraction = kSnVolumeFraction;
  wp.seed = flags.seed() + 1;
  auto queries = GenerateRangeWorkload(dataset.bounds, wp);
  DiskModel disk;

  std::cout << "Ablation: page-size sweep (" << count
            << " elements, SN workload)\n\n";
  Table table({"page size", "slots/page", "FLAT reads/q", "FLAT MiB/q",
               "FLAT recs/leaf", "FLAT leaf/q", "FLAT object/q", "PR reads/q",
               "PR MiB/q", "FLAT size MiB", "PR size MiB"});
  for (uint32_t page_size : {1024u, 2048u, 4096u, 8192u, 16384u}) {
    Contender flat = BuildContender(IndexKind::kFlat, dataset.elements,
                                    page_size);
    Contender pr = BuildContender(IndexKind::kPrTree, dataset.elements,
                                  page_size);
    WorkloadResult fr = RunWorkload(flat, queries, disk);
    WorkloadResult prr = RunWorkload(pr, queries, disk);
    const double q = static_cast<double>(queries.size());
    const FlatIndex::BuildStats& stats = flat.flat.build_stats();
    table.AddRow(
        {FormatBytes(page_size),
         FormatNumber(static_cast<double>(NodeCapacity(page_size)), 0),
         FormatNumber(fr.io.TotalReads() / q, 1),
         FormatNumber(fr.io.BytesRead(page_size) / q / 1048576.0, 3),
         FormatNumber(static_cast<double>(stats.partitions) /
                          static_cast<double>(stats.seed_leaf_pages),
                      2),
         FormatNumber(fr.io.ReadsIn(PageCategory::kSeedLeaf) / q, 2),
         FormatNumber(fr.io.ReadsIn(PageCategory::kObject) / q, 2),
         FormatNumber(prr.io.TotalReads() / q, 1),
         FormatNumber(prr.io.BytesRead(page_size) / q / 1048576.0, 3),
         FormatNumber(flat.size_bytes() / 1048576.0, 1),
         FormatNumber(pr.size_bytes() / 1048576.0, 1)});
  }
  flags.csv() ? table.PrintCsv(std::cout) : table.Print(std::cout);
  std::cout << "\nExpected: page reads fall as pages grow (fewer, bigger "
               "reads) while bytes\nper query rise; FLAT keeps its advantage "
               "over the PR-Tree across sizes.\n";
  return 0;
}

// Figure 21 and the two in-text experiments of Section VII-E.1, on the
// artificial uniform data set ("10 million elements uniformly randomly
// distributed in a volume of 8 mm^3", scaled down):
//   (a) growing the partition volume grows the average neighbor count;
//   (b) growing the element volume 5x adds ~10% pointers;
//   (c) sweeping the element aspect ratio (fixed volume 18 um^3, sides drawn
//       in [5, 35] um) grows the mean pointer count 17.4 -> 22.9.
#include <iostream>

#include "benchutil/flags.h"
#include "benchutil/reference.h"
#include "benchutil/table.h"
#include "core/partitioner.h"
#include "data/uniform_generator.h"
#include "rtree/node.h"
#include "storage/page.h"

namespace {

using namespace flat;

double MeanPointers(const std::vector<PartitionInfo>& partitions) {
  return static_cast<double>(TotalNeighborPointers(partitions)) /
         partitions.size();
}

double MeanPartitionVolume(const std::vector<PartitionInfo>& partitions) {
  double total = 0.0;
  for (const auto& p : partitions) total += p.partition_mbr.Volume();
  return total / partitions.size();
}

std::vector<PartitionInfo> PartitionDataset(Dataset dataset) {
  auto partitions = StrPartition(dataset.elements,
                                 NodeCapacity(kDefaultPageSize),
                                 dataset.bounds);
  ComputeNeighbors(&partitions);
  return partitions;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flat;
  BenchFlags flags(argc, argv);
  const size_t count = flags.Scaled(100000);
  // The paper uses 10M elements in 8 mm^3 (2000 um cube). Scaling the count
  // down requires shrinking the universe by cbrt(count/10M) so elements keep
  // their size *relative to the page tiles* — the quantity all three
  // pointer experiments actually probe.
  const double universe_side =
      2000.0 * std::cbrt(static_cast<double>(count) / 1e7);

  // (a) Partition-volume sweep: inflate every page MBR and recount. A page
  // reaching into more tiles links to more partitions (core/partitioner.h);
  // the partition MBR grows with it so it still encloses the page.
  {
    UniformBoxParams params;
    params.count = count;
    params.universe_side_um = universe_side;
    params.shape = BoxShapeMode::kCube;
    params.side_um = 5.0;
    params.seed = flags.seed();
    Dataset dataset = GenerateUniformBoxes(params);
    auto base = StrPartition(dataset.elements,
                             NodeCapacity(kDefaultPageSize), dataset.bounds);

    std::cout << "Figure 21: average partition volume vs. average neighbor "
                 "pointers\n(paper: monotonically increasing)\n\n";
    Table table({"inflation um", "avg partition volume um^3",
                 "avg neighbor pointers"});
    for (double inflation : {0.0, 2.0, 4.0, 6.0, 8.0, 10.0}) {
      auto inflated = base;
      for (auto& p : inflated) {
        p.page_mbr = p.page_mbr.Inflated(inflation);
        p.partition_mbr = p.partition_mbr.Inflated(inflation);
      }
      ComputeNeighbors(&inflated);
      table.AddRow({FormatNumber(inflation, 1),
                    FormatNumber(MeanPartitionVolume(inflated), 0),
                    FormatNumber(MeanPointers(inflated), 1)});
    }
    flags.csv() ? table.PrintCsv(std::cout) : table.Print(std::cout);
  }

  // (b) Element-volume sweep: scale cube elements 1x..5x in volume.
  {
    std::cout << "\nIn-text experiment: element volume x5 => ~"
              << paper::kVolumeSweepPointerIncrease * 100
              << "% more pointers (paper)\n\n";
    Table table({"element volume um^3", "avg neighbor pointers",
                 "increase vs 1x"});
    double baseline = 0.0;
    for (double volume_factor : {1.0, 2.0, 3.0, 4.0, 5.0}) {
      UniformBoxParams params;
      params.count = count;
      params.universe_side_um = universe_side;
      params.shape = BoxShapeMode::kCube;
      params.side_um = 5.0 * std::cbrt(volume_factor);
      params.seed = flags.seed();  // same positions, bigger elements
      auto partitions = PartitionDataset(GenerateUniformBoxes(params));
      const double mean = MeanPointers(partitions);
      if (volume_factor == 1.0) baseline = mean;
      table.AddRow(
          {FormatNumber(std::pow(params.side_um, 3.0), 0),
           FormatNumber(mean, 1),
           FormatNumber((mean / baseline - 1.0) * 100.0, 1) + "%"});
    }
    flags.csv() ? table.PrintCsv(std::cout) : table.Print(std::cout);
  }

  // (c) Aspect-ratio sweep: fixed element volume, growing aspect range.
  {
    std::cout << "\nIn-text experiment: aspect-ratio sweep (paper: mean "
                 "pointers grow "
              << paper::kAspectSweepPointersMin << " -> "
              << paper::kAspectSweepPointersMax << ")\n\n";
    Table table({"side range um", "avg neighbor pointers"});
    for (double spread : {0.0, 5.0, 10.0, 15.0}) {
      UniformBoxParams params;
      params.count = count;
      params.universe_side_um = universe_side;
      params.shape = BoxShapeMode::kFixedVolumeRandomAspect;
      params.element_volume_um3 = 18.0;
      params.min_side_um = 20.0 - spread;
      params.max_side_um = 20.0 + spread;
      params.seed = flags.seed();
      auto partitions = PartitionDataset(GenerateUniformBoxes(params));
      table.AddRow({"[" + FormatNumber(params.min_side_um, 0) + ", " +
                        FormatNumber(params.max_side_um, 0) + "]",
                    FormatNumber(MeanPointers(partitions), 1)});
    }
    flags.csv() ? table.PrintCsv(std::cout) : table.Print(std::cout);
    std::cout << "\nReproduction check: pointers grow with partition volume, "
                 "grow mildly (~10%)\nwith a 5x element-volume increase, and "
                 "grow with aspect-ratio spread.\n";
  }
  return 0;
}

// Figures 13-19: the SN and LSS benchmark families (200 range queries of
// fixed volume, random location and aspect ratio, cold cache per query).
// The SN density sweep runs once and backs Figures 13-15, then the LSS sweep
// runs once and backs Figures 16-19; each figure is one view of its sweep
// (simulated time, I/O breakdown, total reads, or reads per result).
// Reads and DiskModel time are deterministic, so every table is the same
// whichever figures share the sweep.
//
// Flags: the common --scale --queries --seed --csv.
#include "bench/bench_common.h"

namespace {

using namespace flat;

struct Figure {
  const char* title;
  const char* claim;  // what the paper reports
  void (*print)(const std::vector<DensityPoint>&, const BenchFlags&);
};

void RunFamily(const BenchFlags& flags, double volume_fraction,
               const std::vector<Figure>& figures) {
  SweepOptions options;
  options.volume_fraction = volume_fraction;
  options.kinds = bench::kLineup;
  const auto points = RunDensitySweep(flags, options);
  for (const Figure& figure : figures) {
    std::cout << figure.title << "\n(paper: " << figure.claim << ")\n\n";
    figure.print(points, flags);
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags(argc, argv);
  RunFamily(
      flags, kSnVolumeFraction,
      {{"Figure 13: execution time (DiskModel-simulated), SN benchmark",
        "time tracks page reads (97.8-98.8% of time is disk I/O in the "
        "paper)",
        bench::PrintSimulatedTime},
       {"Figure 14: I/O breakdown, SN benchmark",
        "FLAT's seed reads stay constant while metadata+object grow; the "
        "PR-Tree's non-leaf/leaf ratio grows from 2 to 2.8",
        bench::PrintBreakdown},
       {"Figure 15: page reads per result element, SN benchmark",
        "FLAT's per-result reads fall with density (seed cost amortizes); "
        "every R-Tree's rise",
        bench::PrintPerResult}});
  RunFamily(
      flags, kLssVolumeFraction,
      {{"Figure 16: total page reads, LSS benchmark",
        "FLAT needs fewer page reads; the gap (2x-6x) is smaller than for SN",
        bench::PrintTotalReads},
       {"Figure 17: execution time (DiskModel-simulated), LSS benchmark",
        "same shape as the page-read curves", bench::PrintSimulatedTime},
       {"Figure 18: I/O breakdown, LSS benchmark",
        "leaf/object pages dominate for both; the R-Tree's non-leaf overhead "
        "still exceeds FLAT's seed+metadata",
        bench::PrintBreakdown},
       {"Figure 19: page reads per result element, LSS benchmark",
        "FLAT per-result reads decrease with density; R-Trees' grow",
        bench::PrintPerResult}});
  return 0;
}

// CPU hot-path throughput over the Figure-13 workload: the SN benchmark's
// range queries (fixed volume, random location/aspect) on the microcircuit
// data set, executed serially and through the QueryEngine, plus a
// node-gate comparison over the index's real object pages: the plain AoS
// loop (IntersectsBatchScalar) against the crawl's SoA path (transpose plus
// IntersectsSoa). The ratio compares two layouts, not a hand-written kernel
// with its own plain loop; bench_micro_primitives has those rows.
//
// Everything self-validates: engine results must be bit-identical to the
// serial reference (with matching per-category IoStats) and the SoA path
// must agree with the AoS loop on every page — any divergence exits
// non-zero, which is what the CI benchmark-smoke step relies on.
//
// Flags: --scale --queries (default 200, the paper's workload) --seed
// --threads-max=N --repeats=N --json (machine-readable output, e.g. the
// BENCH_hotpath.json baseline).
//
// Single-core machines (like the reference container) cannot show wall-clock
// engine speedup > 1; CPU time per query and the kernel ns/box comparison
// are still meaningful there, which is why this bench reports both.
#include <chrono>
#include <ctime>
#include <iostream>
#include <thread>
#include <vector>

#include "benchutil/experiment.h"
#include "benchutil/flags.h"
#include "benchutil/sweep.h"
#include "benchutil/table.h"
#include "benchutil/throughput.h"
#include "core/flat_index.h"
#include "data/query_generator.h"
#include "engine/query_engine.h"
#include "geometry/box_kernels.h"
#include "rtree/entry.h"
#include "rtree/node.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace {

using namespace flat;

struct KernelComparison {
  double scalar_ns_per_box = 0.0;
  double simd_ns_per_box = 0.0;
  double speedup = 0.0;
  uint64_t boxes_gated = 0;
  bool identical = true;
};

// Times the node-gate primitive both ways over the index's real object
// pages: the plain AoS loop the crawl used to run, and the SoA path
// (transpose + SoA gate, exactly what the crawl does now). Validates
// hit-for-hit equality on every page/query pair.
KernelComparison CompareNodeGateKernels(const PageFile& file,
                                        const std::vector<Aabb>& queries,
                                        int repeats) {
  using Clock = std::chrono::steady_clock;
  KernelComparison cmp;

  std::vector<PageId> object_pages;
  for (PageId id = 0; id < file.page_count(); ++id) {
    if (file.category(id) == PageCategory::kObject) object_pages.push_back(id);
  }
  if (object_pages.empty() || queries.empty()) return cmp;

  SoaBoxes soa;
  std::vector<uint8_t> scalar_hits(256), simd_hits(256);

  // Correctness sweep first (not timed): every page against every query.
  for (PageId id : object_pages) {
    const char* page = file.Data(id);
    const uint16_t n = NodeView(page).count();
    soa.Assign(page + kNodeHeaderSize, sizeof(RTreeEntry), n);
    if (scalar_hits.size() < soa.padded_count()) {
      scalar_hits.resize(soa.padded_count());
      simd_hits.resize(soa.padded_count());
    }
    for (const Aabb& q : queries) {
      IntersectsBatchScalar(page + kNodeHeaderSize, sizeof(RTreeEntry), n, q,
                            scalar_hits.data());
      IntersectsSoa(soa, q, simd_hits.data());
      for (uint16_t i = 0; i < n; ++i) {
        if (scalar_hits[i] != simd_hits[i]) cmp.identical = false;
      }
    }
  }

  // Timed passes: best of `repeats`, whole-index sweeps per query.
  uint64_t boxes = 0;
  for (PageId id : object_pages) boxes += NodeView(file.Data(id)).count();
  cmp.boxes_gated = boxes * queries.size();

  double best_scalar = -1.0, best_simd = -1.0;
  uint64_t sink = 0;  // kept observable via the volatile store below
  for (int rep = 0; rep < repeats; ++rep) {
    auto t0 = Clock::now();
    for (const Aabb& q : queries) {
      for (PageId id : object_pages) {
        const char* page = file.Data(id);
        const uint16_t n = NodeView(page).count();
        IntersectsBatchScalar(page + kNodeHeaderSize, sizeof(RTreeEntry), n,
                              q, scalar_hits.data());
        sink += scalar_hits[0];
      }
    }
    const double scalar_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (best_scalar < 0 || scalar_s < best_scalar) best_scalar = scalar_s;

    t0 = Clock::now();
    for (const Aabb& q : queries) {
      for (PageId id : object_pages) {
        const char* page = file.Data(id);
        const uint16_t n = NodeView(page).count();
        soa.Assign(page + kNodeHeaderSize, sizeof(RTreeEntry), n);
        IntersectsSoa(soa, q, simd_hits.data());
        sink += simd_hits[0];
      }
    }
    const double simd_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (best_simd < 0 || simd_s < best_simd) best_simd = simd_s;
  }
  volatile uint64_t observed = sink;  // the gates must not be optimized out
  (void)observed;
  cmp.scalar_ns_per_box = best_scalar * 1e9 / cmp.boxes_gated;
  cmp.simd_ns_per_box = best_simd * 1e9 / cmp.boxes_gated;
  cmp.speedup =
      cmp.simd_ns_per_box > 0 ? cmp.scalar_ns_per_box / cmp.simd_ns_per_box
                              : 0.0;
  return cmp;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags(argc, argv);

  // The Figure-13 data set and workload: microcircuit neurons, SN-volume
  // range queries (see benchutil/experiment.h for the scaling rationale).
  Dataset dataset = NeuronDatasetAt(flags.Scaled(100000), flags.seed());
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, dataset.elements);

  RangeWorkloadParams workload;
  workload.count = flags.queries();  // default 200, as in the paper
  workload.volume_fraction = kSnVolumeFraction;
  workload.seed = flags.seed() + 1;
  std::vector<Aabb> boxes = GenerateRangeWorkload(dataset.bounds, workload);
  std::vector<Query> batch;
  batch.reserve(boxes.size());
  for (const Aabb& box : boxes) batch.push_back(Query::Range(box));

  const int repeats = static_cast<int>(flags.GetInt("repeats", 5));
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t max_threads = static_cast<size_t>(flags.GetInt(
      "threads-max", static_cast<int64_t>(std::max<size_t>(hw, 4))));
  std::vector<size_t> thread_counts;
  for (size_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  const bool json = flags.GetInt("json", 0) != 0;
  std::ostream& info = json ? std::cerr : std::cout;
  info << "# " << dataset.elements.size() << " neuron elements, "
       << batch.size() << " SN range queries (Fig. 13 workload), kernel ISA "
       << BoxKernelIsa() << ", " << hw << " hardware threads\n";
  if (hw < 2) {
    info << "# NOTE: single-core machine — engine wall-clock speedup is "
            "bounded by 1.0; CPU-time per query and kernel ns/box remain "
            "meaningful\n";
  }

  // CPU time per query over the serial loop (the hot-path figure the
  // tentpole targets: everything here is user-space compute, no real I/O).
  double cpu_us_per_query = 0.0;
  {
    const std::clock_t c0 = std::clock();
    const SerialReference warm = RunSerialReference(index, batch);
    const std::clock_t c1 = std::clock();
    (void)warm;
    cpu_us_per_query = 1e6 * static_cast<double>(c1 - c0) /
                       (CLOCKS_PER_SEC * std::max<size_t>(1, batch.size()));
  }

  const std::vector<ThroughputPoint> points =
      RunThroughputSweep(index, batch, thread_counts, repeats);

  // Node-gate kernel comparison over the real object pages, using a sample
  // of the workload's queries.
  std::vector<Aabb> gate_queries(
      boxes.begin(), boxes.begin() + std::min<size_t>(boxes.size(), 16));
  const KernelComparison kernels =
      CompareNodeGateKernels(file, gate_queries, repeats);

  if (json) {
    std::cout << "{\n"
              << "  \"bench\": \"query_throughput\",\n"
              << "  \"workload\": \"fig13_sn_range\",\n"
              << "  \"isa\": \"" << BoxKernelIsa() << "\",\n"
              << "  \"elements\": " << dataset.elements.size() << ",\n"
              << "  \"queries\": " << batch.size() << ",\n"
              << "  \"cpu_us_per_query\": " << cpu_us_per_query << ",\n"
              << "  \"node_gate\": {\"scalar_ns_per_box\": "
              << kernels.scalar_ns_per_box
              << ", \"simd_ns_per_box\": " << kernels.simd_ns_per_box
              << ", \"speedup\": " << kernels.speedup
              << ", \"boxes_gated\": " << kernels.boxes_gated
              << ", \"identical\": " << (kernels.identical ? "true" : "false")
              << "},\n"
              << "  \"points\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const ThroughputPoint& p = points[i];
      std::cout << "    {\"threads\": " << p.threads
                << ", \"seconds\": " << p.best_seconds
                << ", \"queries_per_s\": " << p.queries_per_second
                << ", \"speedup\": " << p.speedup
                << ", \"page_reads\": " << p.total_reads
                << ", \"identical_to_serial\": "
                << (p.identical_to_serial ? "true" : "false") << "}"
                << (i + 1 < points.size() ? "," : "") << "\n";
    }
    std::cout << "  ]\n}\n";
  } else {
    std::cout << "CPU time per query (serial): " << cpu_us_per_query
              << " us\n"
              << "Node gate: AoS loop " << kernels.scalar_ns_per_box
              << " ns/box, SoA path (" << BoxKernelIsa() << ") "
              << kernels.simd_ns_per_box << " ns/box, speedup "
              << kernels.speedup << "x over " << kernels.boxes_gated
              << " boxes (" << (kernels.identical ? "identical" : "DIVERGED")
              << ")\n\n";
    Table table({"threads", "seconds", "queries/s", "speedup", "page reads",
                 "identical"});
    for (const ThroughputPoint& p : points) {
      table.AddRow({FormatNumber(static_cast<double>(p.threads), 0),
                    FormatNumber(p.best_seconds, 4),
                    FormatNumber(p.queries_per_second, 0),
                    FormatNumber(p.speedup, 2),
                    FormatNumber(static_cast<double>(p.total_reads), 0),
                    p.identical_to_serial ? "yes" : "NO"});
    }
    flags.csv() ? table.PrintCsv(std::cout) : table.Print(std::cout);
  }

  bool ok = kernels.identical;
  for (const ThroughputPoint& p : points) ok = ok && p.identical_to_serial;
  if (!ok) {
    std::cerr << "ERROR: result divergence (engine vs serial, or SoA vs "
                 "AoS node gate)\n";
    return 1;
  }
  return 0;
}

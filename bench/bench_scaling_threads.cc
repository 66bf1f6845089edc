// Throughput scaling of the parallel batch QueryEngine: queries/sec vs.
// worker threads on the uniform data set, with every parallel run validated
// bit-for-bit against serial execution.
//
// Flags: --scale --queries --seed --csv --threads-max=N --json (emit the
// sweep as a JSON document, e.g. for the BENCH_crawl.json baseline).
#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "benchutil/flags.h"
#include "benchutil/table.h"
#include "benchutil/throughput.h"
#include "core/flat_index.h"
#include "data/query_generator.h"
#include "data/uniform_generator.h"
#include "engine/query_engine.h"
#include "storage/page_file.h"

int main(int argc, char** argv) {
  using namespace flat;
  BenchFlags flags(argc, argv);

  UniformBoxParams params;
  params.count = flags.Scaled(100000);
  params.seed = flags.seed();
  Dataset dataset = GenerateUniformBoxes(params);

  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, dataset.elements);

  RangeWorkloadParams workload;
  // Default to a larger batch than the paper's 200 queries: throughput
  // needs enough work per thread to measure; --queries overrides.
  workload.count = static_cast<size_t>(flags.GetInt("queries", 1000));
  workload.volume_fraction = 2e-6;
  workload.seed = flags.seed() + 1;
  std::vector<Aabb> boxes = GenerateRangeWorkload(dataset.bounds, workload);
  std::vector<Query> batch;
  batch.reserve(boxes.size());
  for (const Aabb& box : boxes) batch.push_back(Query::Range(box));

  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t max_threads = static_cast<size_t>(
      flags.GetInt("threads-max", static_cast<int64_t>(std::max<size_t>(hw, 8))));
  std::vector<size_t> thread_counts;
  for (size_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  // In --json mode stdout carries only the JSON document.
  std::ostream& info =
      flags.GetInt("json", 0) != 0 ? std::cerr : std::cout;
  info << "# " << dataset.elements.size() << " uniform elements, "
       << batch.size() << " range queries, cold cache per query, " << hw
       << " hardware threads\n";
  if (hw < 2) {
    info << "# NOTE: single-core machine — wall-clock speedup is bounded "
            "by 1.0; the 'identical' column still validates the engine\n";
  }

  std::vector<ThroughputPoint> points =
      RunThroughputSweep(index, batch, thread_counts, /*repeats=*/3);

  if (flags.GetInt("json", 0) != 0) {
    std::cout << "{\n"
              << "  \"bench\": \"scaling_threads\",\n"
              << "  \"elements\": " << dataset.elements.size() << ",\n"
              << "  \"queries\": " << batch.size() << ",\n"
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

  for (const ThroughputPoint& p : points) {
    if (!p.identical_to_serial) {
      std::cerr << "ERROR: parallel results diverged from serial at "
                << p.threads << " threads\n";
      return 1;
    }
  }
  return 0;
}

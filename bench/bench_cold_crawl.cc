// Cold-cache crawl over the real disk backend: the paper's central scenario
// (crawl queries are 97.8-98.8 % I/O-bound, Section VII-E.2) executed
// against a DiskPageFile reopened from disk, with the OS page cache dropped
// before every timed pass — actual page faults, not DiskModel arithmetic.
//
// One timed configuration over the SN range workload: each pass drops the
// OS page cache, then crawls every query through a cold BufferPool.
//
// Self-validating: every pass must return bit-identical id sequences and
// logical read counts to the in-memory PageFile reference — any divergence
// exits non-zero (the CI bench-smoke contract). Wall-clock is reported but
// never asserted: on a machine whose page cache cannot really be dropped
// (containers, overlayfs) the "cold" pass runs at RAM speed.
//
// Flags: --scale --queries --seed --repeats=N --pread (force the pread
// fallback instead of mmap) --json (the BENCH_disk.json baseline).
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "benchutil/experiment.h"
#include "benchutil/flags.h"
#include "benchutil/sweep.h"
#include "benchutil/table.h"
#include "core/crawl_scratch.h"
#include "core/flat_index.h"
#include "data/query_generator.h"
#include "storage/buffer_pool.h"
#include "storage/disk_page_file.h"
#include "storage/io_stats.h"
#include "storage/page_file.h"
#include "storage/persistence.h"

namespace {

using namespace flat;

struct ColdRun {
  double best_seconds = 0.0;
  uint64_t page_reads = 0;
  bool identical = true;
};

// `repeats` passes over the workload, each preceded by DropOsCache, keeping
// the best wall time. Results are validated against `expected` on every
// pass.
ColdRun RunColdPass(const FlatIndex& index, DiskPageFile* disk,
                    const std::vector<Aabb>& queries,
                    const std::vector<std::vector<uint64_t>>& expected,
                    int repeats) {
  using Clock = std::chrono::steady_clock;
  ColdRun run;
  CrawlScratch scratch;
  std::vector<uint64_t> ids;
  for (int rep = 0; rep < repeats; ++rep) {
    disk->DropOsCache();
    IoStats io;
    BufferPool pool(disk, &io);
    const auto t0 = Clock::now();
    for (size_t i = 0; i < queries.size(); ++i) {
      pool.Clear();
      ids.clear();
      index.RangeQuery(&pool, queries[i], &ids, &scratch);
      if (ids != expected[i]) run.identical = false;
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (rep == 0 || seconds < run.best_seconds) run.best_seconds = seconds;
    // Logical reads are identical on every pass; keep the last pass's.
    run.page_reads = io.TotalReads();
  }
  return run;
}

// Flush the freshly written page file to stable storage so
// posix_fadvise(DONTNEED) can actually evict it (dirty pages are pinned).
void SyncFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return;
  ::fsync(::fileno(f));
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags(argc, argv);
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  const bool json = flags.GetInt("json", 0) != 0;
  const bool force_pread = flags.GetInt("pread", 0) != 0;
  std::ostream& info = json ? std::cerr : std::cout;

  // The Figure-13 workload on the microcircuit data set, served from disk.
  Dataset dataset = NeuronDatasetAt(flags.Scaled(100000), flags.seed());
  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, dataset.elements);

  RangeWorkloadParams workload;
  workload.count = flags.queries();
  workload.volume_fraction = kSnVolumeFraction;
  workload.seed = flags.seed() + 1;
  const std::vector<Aabb> queries =
      GenerateRangeWorkload(dataset.bounds, workload);

  // Serial in-memory reference: the oracle the disk pass must reproduce
  // bit-for-bit.
  std::vector<std::vector<uint64_t>> expected(queries.size());
  uint64_t expected_reads = 0;
  {
    IoStats io;
    BufferPool pool(&file, &io);
    CrawlScratch scratch;
    for (size_t i = 0; i < queries.size(); ++i) {
      pool.Clear();
      index.RangeQuery(&pool, queries[i], &expected[i], &scratch);
    }
    expected_reads = io.TotalReads();
  }

  // Persist and reopen disk-backed.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bench_cold_crawl_" + std::to_string(::getpid()) + ".pgf"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    SavePageFile(file, out);
  }
  SyncFile(path);

  DiskPageFile::Options options;
  options.use_mmap = !force_pread;
  auto disk = DiskPageFile::Open(path, options);
  FlatIndex reopened = FlatIndex::Attach(disk.get(), index.descriptor());
  const uint64_t file_bytes = std::filesystem::file_size(path);

  info << "# " << dataset.elements.size() << " neuron elements, "
       << queries.size() << " SN range queries, " << file_bytes
       << " file bytes, backend "
       << (disk->mmap_backed() ? "mmap" : "pread") << ", " << repeats
       << " cold repeats\n";

  const ColdRun run =
      RunColdPass(reopened, disk.get(), queries, expected, repeats);

  std::error_code ec;
  std::filesystem::remove(path, ec);

  const bool reads_match = run.page_reads == expected_reads;
  const double queries_per_s =
      run.best_seconds > 0 ? queries.size() / run.best_seconds : 0.0;

  if (json) {
    std::cout << "{\n"
              << "  \"bench\": \"cold_crawl\",\n"
              << "  \"workload\": \"fig13_sn_range_cold\",\n"
              << "  \"backend\": \""
              << (disk->mmap_backed() ? "mmap" : "pread") << "\",\n"
              << "  \"elements\": " << dataset.elements.size() << ",\n"
              << "  \"queries\": " << queries.size() << ",\n"
              << "  \"file_bytes\": " << file_bytes << ",\n"
              << "  \"page_reads\": " << expected_reads << ",\n"
              << "  \"run\": {\"seconds\": " << run.best_seconds
              << ", \"queries_per_s\": " << queries_per_s
              << ", \"page_reads\": " << run.page_reads
              << ", \"identical\": " << (run.identical ? "true" : "false")
              << "},\n"
              << "  \"reads_match_memory_backend\": "
              << (reads_match ? "true" : "false") << "\n"
              << "}\n";
  } else {
    Table table({"seconds", "queries/s", "page reads", "identical"});
    table.AddRow({FormatNumber(run.best_seconds, 4),
                  FormatNumber(queries_per_s, 0),
                  FormatNumber(static_cast<double>(run.page_reads), 0),
                  run.identical ? "yes" : "NO"});
    flags.csv() ? table.PrintCsv(std::cout) : table.Print(std::cout);
  }

  if (!run.identical || !reads_match) {
    std::cerr << "ERROR: disk backend diverged from the in-memory reference "
                 "(results or logical read counts)\n";
    return 1;
  }
  return 0;
}

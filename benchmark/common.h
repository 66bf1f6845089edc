// Shared pieces of flatbench: run options, the store shape every
// workload uses, pass timing, statistics, and the report that becomes the
// program's JSON output.
#ifndef FLATBENCH_COMMON_H_
#define FLATBENCH_COMMON_H_

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "geometry/aabb.h"
#include "geometry/box_kernels.h"
#include "shard/sharded_flat_store.h"
#include "storage/io_stats.h"
#include "counting_cache.h"
#include "tracer.h"

namespace flatbench {

enum class Kind { kSnSingle, kLssBatch, kViewportCount, kChurnMixed };

/// Data set: GenerateNeurons with a fixed seed, so every run of every
/// commit indexes the same elements; only the ops depend on --seed.
inline constexpr uint64_t kDataSeed = 42;
inline constexpr size_t kStaticElements = 2000000;
inline constexpr size_t kChurnElements = 250000;

/// Store shape. Client thread + 2 engine or build workers = 3 runnable
/// threads at most, below the 4 cores the benchmark is sized for.
inline constexpr size_t kShards = 4;
inline constexpr size_t kThreads = 2;
inline constexpr uint32_t kPageSize = 4096;

inline constexpr size_t kOracleSamples = 64;
/// Timed passes per run. The count is fixed, never set by elapsed time, so
/// two commits compared against each other run the same ops: churn's log
/// length, compactions and memory do not depend on how fast the code is.
inline constexpr size_t kTimedPasses = 11;
inline constexpr size_t kSmokeDivisor = 20;
/// Object pages copied for the geometry kernel loops.
inline constexpr size_t kKernelPages = 1024;
/// Spans written to the Chrome trace file (all spans feed the summaries).
inline constexpr size_t kMaxTraceEvents = 100000;

struct Options {
  Kind kind = Kind::kSnSingle;
  std::string workload;
  uint64_t seed = 1;
  size_t passes = kTimedPasses;
  std::string trace_path;  // empty: untraced run
  bool smoke = false;
  std::string work_dir = ".bench_build/work";

  bool traced() const { return !trace_path.empty(); }
  size_t Scaled(size_t full) const {
    return smoke ? std::max<size_t>(1, full / kSmokeDivisor) : full;
  }
};

flat::ShardedFlatStore::Options StoreOptions();

/// A per-process scratch directory under --work-dir for store files,
/// removed when the run ends.
class WorkDir {
 public:
  explicit WorkDir(const Options& options);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Set-up measurements, one entry per repetition.
struct Setup {
  std::vector<double> setup_s, save_s, load_s;
  std::vector<double> split_s, build_s, partition_s, neighbor_s, write_s;
  void AddBuild(const flat::ShardedFlatStore::BuildStats& stats);
  /// Set-up repeats at least 3 times and until 2 s of it have been
  /// measured (at most 15 times), so a set-up of a tenth of a second still
  /// yields a steady median.
  bool WantsMore() const;
};

/// What one pass measured.
struct PassStats {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t ops = 0;      // store operations issued
  uint64_t queries = 0;  // read queries among them
  uint64_t reads = 0;    // IoStats::TotalReads over the queries
  uint64_t results = 0;  // ids returned (or counted)
  uint64_t failed = 0;   // non-kOk statuses other than kRejected
  uint64_t rejected = 0;
  uint64_t thrown = 0;
  std::vector<double> latency_us;  // one sample per latency-timed call
};

/// Runs `count` timed passes. `prepare` runs untimed before each pass.
std::vector<PassStats> TimedPasses(size_t count,
                                   const std::function<void()>& prepare,
                                   const std::function<void(PassStats*)>& run);

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> values, double p);
double CpuSeconds();
double PeakRssMiB();
uint64_t DirectoryBytes(const std::filesystem::path& dir);
uint64_t HashIds(const std::vector<uint64_t>& ids);
bool SameIo(const flat::IoStats& a, const flat::IoStats& b);
/// Radius of the ball whose volume is the SN query volume in `universe`.
double SnBallRadius(const flat::Aabb& universe);

/// ns per box of the three gate kernels over real object pages, with the
/// workload's query boxes and balls.
struct KernelTimes {
  double intersects_ns = 0.0;
  double contains_ns = 0.0;
  double sphere_ns = 0.0;
};
KernelTimes TimeKernels(const std::vector<flat::SoaBoxes>& pages,
                        const std::vector<flat::Aabb>& boxes,
                        const std::vector<flat::Vec3>& centers, double radius);

/// Sum of the durations of spans named `name`, per op id.
std::map<uint64_t, int64_t> PerOpNs(const Tracer& tracer, const char* name);
/// Total and mean duration of the spans named `name` in a summary (0 when
/// there are none).
double SpanTotalNs(const std::map<std::string, LayerTime>& spans,
                   const char* name);
double SpanMeanNs(const std::map<std::string, LayerTime>& spans,
                  const char* name);

struct Gate {
  std::string name;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  std::string note;
};

/// Everything one run reports; printed as flatbench's JSON object.
struct Report {
  Options options;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  uint64_t thrown = 0;
  std::vector<Gate> gates;
  std::vector<std::pair<std::string, double>> config;
  std::vector<std::pair<std::string, double>> samples;
  std::vector<std::pair<std::string, std::vector<double>>> per_pass;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::map<std::string, LayerTime> spans;
  int64_t trace_events = 0;

  void AddPasses(const PassStats& pass);
  uint64_t GateMismatches() const;
  bool correct() const {
    return failed + rejected + thrown + GateMismatches() == 0;
  }
};

/// Fills the store-level metrics and per-pass series shared by every
/// workload. `batches` selects lss_batch's latency metrics (batch_p50_ms,
/// and batch_p90_ms pooled over all passes' batches) instead of p50_us and
/// p99_us per call.
void FillEndToEnd(const std::vector<PassStats>& passes, const Setup& setup,
                  double disk_bytes_per_element, double peak_rss_mib,
                  bool batches, Report* report);

/// Fills the per-layer metrics every workload derives the same way: the
/// set-up phases, and the geometry and storage layers of the traced run.
/// `counters` cover `decomposed` queries; `io` covers `io_queries` store
/// queries.
void FillSetupLayers(const Setup& setup, Report* report);
void FillReadLayers(const ReadCounters& counters, uint64_t decomposed,
                    const KernelTimes& kernels, const flat::IoStats& io,
                    uint64_t io_queries, Report* report);

/// Writes the Chrome trace (if requested) and the span summary.
void FinishTrace(const std::vector<const Tracer*>& tracers, Report* report);

Report RunStatic(const Options& options);
Report RunChurn(const Options& options);

}  // namespace flatbench

#endif  // FLATBENCH_COMMON_H_

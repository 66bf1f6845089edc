// flatbench: one program for the end-to-end and per-layer benchmark of the
// sharded FLAT store (benchmark/README.md has the workloads, the metrics and
// the reason for each choice).
//
//   flatbench --workload=NAME --seed=N [--passes=P] [--trace=FILE]
//             [--smoke] [--work-dir=DIR]
//
// NAME is sn_single, lss_batch, viewport_count or churn_mixed. The data set
// is fixed (GenerateNeurons, seed 42); queries and update ops come from
// --seed. After set-up, one untimed warm-up pass is followed by P timed
// passes (default 11) over the same op list; every timing metric is the
// median of its per-pass values. --trace adds a traced pass of store
// calls and a pass that re-executes each op as its public per-layer parts,
// reports the per-layer metrics, and writes the spans to FILE as Chrome
// trace-event JSON. --smoke runs at 1/20 size.
//
// Prints one JSON object on stdout. Exits 1 if an operation fails or any
// correctness gate diverges, 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <numbers>
#include <string>
#include <system_error>
#include <thread>

#include "benchutil/experiment.h"
#include "common.h"

#ifndef FLATBENCH_BUILD_TYPE
#define FLATBENCH_BUILD_TYPE "unknown"
#endif

namespace flatbench {

namespace fs = std::filesystem;
using flat::Aabb;
using flat::IoStats;
using flat::ShardedFlatStore;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Order and units of the JSON output. kEndToEnd is everything an untraced
// run measures at the store's API; BENCHMARK.json bounds the four of them
// that hold its 10% bound on a shared host (setup_s, page_reads_per_query,
// disk_bytes_per_element, peak_rss_mb) and lists the timing ones with the
// unbounded per-layer metrics.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "ops/s"},
    {"p50_us", "us"},
    {"p99_us", "us"},
    {"batch_p50_ms", "ms"},
    {"batch_p90_ms", "ms"},
    {"cpu_us_per_op", "us"},
    {"page_reads_per_query", "reads"},
    {"disk_bytes_per_element", "B"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"geometry.intersects_soa_ns_per_box", "ns/box"},
    {"geometry.contains_soa_ns_per_box", "ns/box"},
    {"geometry.sphere_gate_ns_per_box", "ns/box"},
    {"geometry.boxes_gated_per_query", "boxes"},
    {"storage.read_calls_per_query", "calls"},
    {"storage.miss_ratio", "ratio"},
    {"storage.read_ns", "ns"},
    {"storage.reads_seed_internal_per_query", "reads"},
    {"storage.reads_seed_leaf_per_query", "reads"},
    {"storage.reads_object_per_query", "reads"},
    {"storage.save_s", "s"},
    {"storage.load_s", "s"},
    {"storage.checkpoint_ms", "ms"},
    {"core.seed_us", "us"},
    {"core.crawl_us", "us"},
    {"core.crawl_ns_per_object_page", "ns"},
    {"core.count_us", "us"},
    {"core.sphere_us", "us"},
    {"core.covered_shards_per_query", "shards"},
    {"core.results_per_query", "ids"},
    {"core.reads_per_result", "reads"},
    {"core.partition_s", "s"},
    {"core.neighbor_s", "s"},
    {"core.write_s", "s"},
    {"shard.shards_per_query", "shards"},
    {"shard.route_us", "us"},
    {"shard.scatter_gather_us", "us"},
    {"shard.split_s", "s"},
    {"shard.build_s", "s"},
    {"shard.compactions", "count"},
    {"shard.compact_s", "s"},
    {"shard.compact_rewritten_elements", "elements"},
    {"engine.busy_ratio", "ratio"},
    {"engine.sub_queries_per_batch", "count"},
    {"delta.pin_us", "us"},
    {"delta.window_ops_at_pin", "ops"},
    {"delta.overlay_probes_per_query", "probes"},
    {"delta.overlay_merge_us", "us"},
    {"delta.insert_ns", "ns"},
    {"delta.erase_ns", "ns"},
    {"trace.ops_per_s_ratio", "ratio"},
};

volatile uint64_t g_kernel_sink = 0;

std::string Num(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Str(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const MetricSpec* specs, size_t count,
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < count; ++i) {
    const auto it = values.find(specs[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    out += (i == 0 ? "\n    " : ",\n    ") + Str(specs[i].name) +
           ": {\"value\": " + Num(value) + ", \"unit\": " +
           Str(specs[i].unit) + "}";
  }
  return out + "\n  }";
}

std::string ReportJson(const Report& r) {
  std::string out = "{\n";
  out += "  \"workload\": " + Str(r.options.workload) + ",\n";
  out += "  \"seed\": " + std::to_string(r.options.seed) + ",\n";
  out += std::string("  \"smoke\": ") + (r.options.smoke ? "true" : "false") +
         ",\n";
  out += std::string("  \"traced\": ") +
         (r.options.traced() ? "true" : "false") + ",\n";
  out += std::string("  \"correct\": ") + (r.correct() ? "true" : "false") +
         ",\n";
  out += "  \"attempted\": " + std::to_string(r.attempted) + ",\n";
  out += "  \"failed\": " +
         std::to_string(r.failed + r.rejected + r.thrown + r.GateMismatches()) +
         ",\n";
  out += "  \"failures\": {\"failed\": " + std::to_string(r.failed) +
         ", \"rejected\": " + std::to_string(r.rejected) +
         ", \"thrown\": " + std::to_string(r.thrown) +
         ", \"gate_mismatches\": " + std::to_string(r.GateMismatches()) +
         "},\n";
  out += "  \"gates\": [";
  for (size_t i = 0; i < r.gates.size(); ++i) {
    const Gate& g = r.gates[i];
    out += (i == 0 ? "\n    " : ",\n    ") + std::string("{\"name\": ") +
           Str(g.name) + ", \"checked\": " + std::to_string(g.checked) +
           ", \"mismatches\": " + std::to_string(g.mismatches) +
           ", \"note\": " + Str(g.note) + "}";
  }
  out += "\n  ],\n";
  out += "  \"machine\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"isa\": " + Str(flat::BoxKernelIsa()) +
         ", \"compiler\": " + Str(__VERSION__) +
         ", \"build_type\": " + Str(FLATBENCH_BUILD_TYPE) + "},\n";
  const auto pairs = [](const std::vector<std::pair<std::string, double>>& v) {
    std::string s = "{";
    for (size_t i = 0; i < v.size(); ++i) {
      s += (i == 0 ? "" : ", ") + Str(v[i].first) + ": " + Num(v[i].second);
    }
    return s + "}";
  };
  out += "  \"config\": " + pairs(r.config) + ",\n";
  out += "  \"samples\": " + pairs(r.samples) + ",\n";
  out += "  \"per_pass\": {";
  for (size_t i = 0; i < r.per_pass.size(); ++i) {
    out += (i == 0 ? "\n    " : ",\n    ") + Str(r.per_pass[i].first) + ": [";
    const std::vector<double>& values = r.per_pass[i].second;
    for (size_t j = 0; j < values.size(); ++j) {
      out += (j == 0 ? "" : ", ") + Num(values[j]);
    }
    out += "]";
  }
  out += "\n  },\n";
  out += "  \"end_to_end\": " +
         MetricsJson(kEndToEnd, std::size(kEndToEnd), r.end_to_end) + ",\n";
  if (r.options.traced()) {
    out += "  \"per_layer\": " +
           MetricsJson(kPerLayer, std::size(kPerLayer), r.per_layer) + ",\n";
    out += "  \"trace_file\": " + Str(r.options.trace_path) + ",\n";
    out += "  \"trace_events_written\": " + std::to_string(r.trace_events) +
           ",\n";
    out += "  \"spans\": {";
    bool first = true;
    for (const auto& [name, layer] : r.spans) {
      out += (first ? "\n    " : ",\n    ") + Str(name) +
             ": {\"count\": " + std::to_string(layer.count) +
             ", \"total_ms\": " + Num(layer.total_ns / 1e6) +
             ", \"self_ms\": " + Num(layer.self_ns / 1e6) + "}";
      first = false;
    }
    out += "\n  },\n";
  }
  out += "  \"schema\": \"flatbench/1\"\n}";
  return out;
}

bool ParseKind(const std::string& name, Kind* kind) {
  if (name == "sn_single") {
    *kind = Kind::kSnSingle;
  } else if (name == "lss_batch") {
    *kind = Kind::kLssBatch;
  } else if (name == "viewport_count") {
    *kind = Kind::kViewportCount;
  } else if (name == "churn_mixed") {
    *kind = Kind::kChurnMixed;
  } else {
    return false;
  }
  return true;
}

bool ParseOptions(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--workload") {
        if (!ParseKind(value, &options->kind)) return false;
        options->workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        options->seed = std::stoull(value);
      } else if (key == "--passes") {
        const long long passes = std::stoll(value);
        if (passes < 1) return false;
        options->passes = static_cast<size_t>(passes);
      } else if (key == "--trace") {
        if (value.empty()) return false;
        options->trace_path = value;
      } else if (key == "--smoke" && value.empty()) {
        options->smoke = true;
      } else if (key == "--work-dir") {
        if (value.empty()) return false;
        options->work_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload;
}

}  // namespace

flat::ShardedFlatStore::Options StoreOptions() {
  ShardedFlatStore::Options options;
  options.num_shards = kShards;
  options.num_threads = kThreads;
  options.page_size = kPageSize;
  options.aggregate_counts = true;
  return options;
}

WorkDir::WorkDir(const Options& options)
    : path_(fs::path(options.work_dir) /
            (options.workload + "-" + std::to_string(::getpid()))) {
  fs::remove_all(path_);
  fs::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ignored;
  fs::remove_all(path_, ignored);
}

void Setup::AddBuild(const ShardedFlatStore::BuildStats& stats) {
  split_s.push_back(stats.split_seconds);
  build_s.push_back(stats.build_seconds);
  double partition = 0.0, neighbor = 0.0, write = 0.0;
  for (const flat::FlatIndex::BuildStats& shard : stats.per_shard) {
    partition += shard.partition_seconds;
    neighbor += shard.neighbor_seconds;
    write += shard.write_seconds;
  }
  partition_s.push_back(partition);
  neighbor_s.push_back(neighbor);
  write_s.push_back(write);
}

bool Setup::WantsMore() const {
  double total = 0.0;
  for (const double s : setup_s) total += s;
  return setup_s.size() < 3 || (total < 2.0 && setup_s.size() < 15);
}

std::vector<PassStats> TimedPasses(size_t count,
                                   const std::function<void()>& prepare,
                                   const std::function<void(PassStats*)>& run) {
  std::vector<PassStats> passes;
  while (passes.size() < count) {
    prepare();
    PassStats pass;
    const double cpu = CpuSeconds();
    const int64_t t0 = NowNs();
    run(&pass);
    pass.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    pass.cpu_s = CpuSeconds() - cpu;
    passes.push_back(std::move(pass));
  }
  return passes;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DirectoryBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

uint64_t HashIds(const std::vector<uint64_t>& ids) {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a over the id values
  for (const uint64_t id : ids) {
    hash ^= id;
    hash *= 1099511628211ull;
  }
  return hash ^ ids.size();
}

bool SameIo(const IoStats& a, const IoStats& b) {
  for (int c = 0; c < flat::kNumPageCategories; ++c) {
    const auto category = static_cast<flat::PageCategory>(c);
    if (a.ReadsIn(category) != b.ReadsIn(category)) return false;
  }
  return a.OverlayProbes() == b.OverlayProbes();
}

double SnBallRadius(const Aabb& universe) {
  const double volume = flat::kSnVolumeFraction * universe.Volume();
  return std::cbrt(3.0 * volume / (4.0 * std::numbers::pi));
}

KernelTimes TimeKernels(const std::vector<flat::SoaBoxes>& pages,
                        const std::vector<Aabb>& boxes,
                        const std::vector<flat::Vec3>& centers,
                        double radius) {
  KernelTimes times;
  if (pages.empty() || boxes.empty() || centers.empty()) return times;
  size_t widest = 0;
  for (const flat::SoaBoxes& page : pages) {
    widest = std::max(widest, page.padded_count());
  }
  std::vector<uint8_t> hits(widest);
  // Each repetition sweeps the pages (query i gates page i) for at least
  // 2 ms; the median of five repetitions is reported.
  const auto time = [&](const auto& kernel) {
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
      uint64_t gated = 0;
      uint64_t sink = 0;
      const int64_t start = NowNs();
      do {
        for (size_t p = 0; p < pages.size(); ++p) {
          kernel(pages[p], p, hits.data());
          sink += hits[0];
          gated += pages[p].count();
        }
      } while (NowNs() - start < 2000000);
      reps.push_back(static_cast<double>(NowNs() - start) /
                     static_cast<double>(gated));
      g_kernel_sink = g_kernel_sink + sink;
    }
    return Median(reps);
  };
  times.intersects_ns =
      time([&](const flat::SoaBoxes& soa, size_t p, uint8_t* out) {
        flat::IntersectsSoa(soa, boxes[p % boxes.size()], out);
      });
  times.contains_ns =
      time([&](const flat::SoaBoxes& soa, size_t p, uint8_t* out) {
        flat::ContainsSoa(soa, boxes[p % boxes.size()], out);
      });
  times.sphere_ns =
      time([&](const flat::SoaBoxes& soa, size_t p, uint8_t* out) {
        flat::SphereGateSoa(soa, centers[p % centers.size()], radius, out);
      });
  return times;
}

std::map<uint64_t, int64_t> PerOpNs(const Tracer& tracer, const char* name) {
  std::map<uint64_t, int64_t> out;
  for (const Tracer::Span& span : tracer.spans()) {
    if (std::strcmp(span.name, name) == 0) {
      out[span.op] += span.end_ns - span.start_ns;
    }
  }
  return out;
}

double SpanTotalNs(const std::map<std::string, LayerTime>& spans,
                   const char* name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.total_ns;
}

double SpanMeanNs(const std::map<std::string, LayerTime>& spans,
                  const char* name) {
  const auto it = spans.find(name);
  if (it == spans.end() || it->second.count == 0) return 0.0;
  return it->second.total_ns / static_cast<double>(it->second.count);
}

void Report::AddPasses(const PassStats& pass) {
  attempted += pass.ops;
  failed += pass.failed;
  rejected += pass.rejected;
  thrown += pass.thrown;
}

uint64_t Report::GateMismatches() const {
  uint64_t total = 0;
  for (const Gate& gate : gates) total += gate.mismatches;
  return total;
}

void FillEndToEnd(const std::vector<PassStats>& passes, const Setup& setup,
                  double disk_bytes_per_element, double peak_rss_mib,
                  bool batches, Report* report) {
  std::vector<double> ops_per_s, p50, p99, cpu, reads, pooled;
  for (const PassStats& pass : passes) {
    ops_per_s.push_back(static_cast<double>(pass.ops) / pass.wall_s);
    p50.push_back(Percentile(pass.latency_us, 50));
    p99.push_back(Percentile(pass.latency_us, 99));
    cpu.push_back(pass.cpu_s * 1e6 / static_cast<double>(pass.ops));
    reads.push_back(static_cast<double>(pass.reads) /
                    static_cast<double>(std::max<uint64_t>(1, pass.queries)));
    pooled.insert(pooled.end(), pass.latency_us.begin(),
                  pass.latency_us.end());
  }
  // A pass holds only 10 batches, too few for a per-pass tail, so the
  // batch tail is the p90 of all passes' batches (110: 11 beyond it).
  const double tail_percentile = batches ? 90.0 : 99.0;
  std::map<std::string, double>& e2e = report->end_to_end;
  e2e["setup_s"] = Median(setup.setup_s);
  e2e["ops_per_s"] = Median(ops_per_s);
  if (batches) {
    e2e["batch_p50_ms"] = Median(p50) / 1e3;
    e2e["batch_p90_ms"] = Percentile(pooled, tail_percentile) / 1e3;
  } else {
    e2e["p50_us"] = Median(p50);
    e2e["p99_us"] = Median(p99);
  }
  e2e["cpu_us_per_op"] = Median(cpu);
  e2e["page_reads_per_query"] = Median(reads);
  e2e["disk_bytes_per_element"] = disk_bytes_per_element;
  e2e["peak_rss_mb"] = peak_rss_mib;

  const size_t per_pass = passes.empty() ? 0 : passes[0].latency_us.size();
  const double tail_population = static_cast<double>(
      batches ? pooled.size() : per_pass);
  report->samples = {
      {"passes", static_cast<double>(passes.size())},
      {"ops_per_pass",
       passes.empty() ? 0.0 : static_cast<double>(passes[0].ops)},
      {"latency_samples_per_pass", static_cast<double>(per_pass)},
      {"tail_percentile", tail_percentile},
      {"tail_pooled_over_passes", batches ? 1.0 : 0.0},
      {"tail_samples_beyond",
       std::floor(tail_population * (100.0 - tail_percentile) / 100.0)},
      {"setup_repetitions", static_cast<double>(setup.setup_s.size())},
  };
  report->per_pass = {{"ops_per_s", ops_per_s},
                      {"p50_us", p50},
                      {"p99_us", p99},
                      {"cpu_us_per_op", cpu},
                      {"page_reads_per_query", reads},
                      {"setup_s", setup.setup_s}};
}

void FillSetupLayers(const Setup& setup, Report* report) {
  std::map<std::string, double>& layer = report->per_layer;
  layer["storage.save_s"] = Median(setup.save_s);
  layer["storage.load_s"] = Median(setup.load_s);
  layer["core.partition_s"] = Median(setup.partition_s);
  layer["core.neighbor_s"] = Median(setup.neighbor_s);
  layer["core.write_s"] = Median(setup.write_s);
  layer["shard.split_s"] = Median(setup.split_s);
  layer["shard.build_s"] = Median(setup.build_s);
}

void FillReadLayers(const ReadCounters& counters, uint64_t decomposed,
                    const KernelTimes& kernels, const IoStats& io,
                    uint64_t io_queries, Report* report) {
  const auto per = [](double value, uint64_t count) {
    return value / static_cast<double>(std::max<uint64_t>(1, count));
  };
  std::map<std::string, double>& layer = report->per_layer;
  layer["geometry.intersects_soa_ns_per_box"] = kernels.intersects_ns;
  layer["geometry.contains_soa_ns_per_box"] = kernels.contains_ns;
  layer["geometry.sphere_gate_ns_per_box"] = kernels.sphere_ns;
  layer["geometry.boxes_gated_per_query"] =
      per(static_cast<double>(counters.object_boxes), decomposed);
  layer["storage.read_calls_per_query"] =
      per(static_cast<double>(counters.calls), decomposed);
  layer["storage.miss_ratio"] =
      per(static_cast<double>(counters.misses), counters.calls);
  layer["storage.read_ns"] =
      per(static_cast<double>(counters.timed_ns), counters.timed_calls);
  layer["storage.reads_seed_internal_per_query"] = per(
      static_cast<double>(io.ReadsIn(flat::PageCategory::kSeedInternal)),
      io_queries);
  layer["storage.reads_seed_leaf_per_query"] = per(
      static_cast<double>(io.ReadsIn(flat::PageCategory::kSeedLeaf)),
      io_queries);
  layer["storage.reads_object_per_query"] = per(
      static_cast<double>(io.ReadsIn(flat::PageCategory::kObject)), io_queries);
}

void FinishTrace(const std::vector<const Tracer*>& tracers, Report* report) {
  report->spans = Summarize(tracers);
  const fs::path path(report->options.trace_path);
  if (path.has_parent_path()) fs::create_directories(path.parent_path());
  report->trace_events = WriteChromeTrace(path.string(), tracers,
                                          kMaxTraceEvents);
  report->gates.push_back(
      {"trace_file", 1, report->trace_events < 0 ? 1u : 0u,
       "Chrome trace-event JSON written"});
}

}  // namespace flatbench

int main(int argc, char** argv) {
  flatbench::Options options;
  if (!flatbench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: flatbench --workload=sn_single|lss_batch|"
                 "viewport_count|churn_mixed --seed=N [--passes=P] "
                 "[--trace=FILE] [--smoke] [--work-dir=DIR]\n");
    return 2;
  }
  try {
    const flatbench::Report report =
        options.kind == flatbench::Kind::kChurnMixed
            ? flatbench::RunChurn(options)
            : flatbench::RunStatic(options);
    std::printf("%s\n", flatbench::ReportJson(report).c_str());
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flatbench: %s\n", e.what());
    return 1;
  }
}

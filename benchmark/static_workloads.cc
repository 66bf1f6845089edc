// The three workloads on the static, disk-loaded 2M-element store:
// sn_single (interactive RangeQuery lookups), lss_batch (RunBatch analysis
// jobs) and viewport_count (RangeCount density queries).
#include <algorithm>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "benchutil/experiment.h"
#include "common.h"
#include "core/crawl_scratch.h"
#include "counting_cache.h"
#include "data/neuron_generator.h"
#include "data/query_generator.h"
#include "engine/query_engine.h"

namespace flatbench {

namespace fs = std::filesystem;
using flat::Aabb;
using flat::IoStats;
using flat::PageCategory;
using flat::Query;
using flat::QueryResult;
using flat::ShardedFlatStore;

namespace {

constexpr size_t kSnQueriesPerPass = 20000;
constexpr size_t kLssBatchesPerPass = 10;
constexpr size_t kLssBatchSize = 100;
constexpr size_t kViewportQueriesPerPass = 1000;
constexpr double kViewportFractions[3] = {0.01, 0.1, 0.5};

/// The fixed, seeded op list of one static workload.
struct StaticOps {
  std::vector<Aabb> boxes;  // one per query
  size_t batch_size = 1;    // queries per store call
  std::vector<std::vector<Query>> batches;  // lss_batch only
  size_t calls() const { return boxes.size() / batch_size; }
};

StaticOps MakeOps(const Options& options, const flat::Dataset& data) {
  StaticOps ops;
  flat::RangeWorkloadParams params;
  params.seed = options.seed;
  switch (options.kind) {
    case Kind::kSnSingle:
      params.count = options.Scaled(kSnQueriesPerPass);
      params.volume_fraction = flat::kSnVolumeFraction;
      ops.boxes = flat::GenerateRangeWorkload(data.bounds, params);
      break;
    case Kind::kLssBatch: {
      ops.batch_size = options.Scaled(kLssBatchSize);
      params.count = kLssBatchesPerPass * ops.batch_size;
      params.volume_fraction = flat::kLssVolumeFraction;
      ops.boxes = flat::GenerateRangeWorkload(data.bounds, params);
      for (size_t b = 0; b < kLssBatchesPerPass; ++b) {
        std::vector<Query>& batch = ops.batches.emplace_back();
        for (size_t i = 0; i < ops.batch_size; ++i) {
          batch.push_back(Query::Range(ops.boxes[b * ops.batch_size + i]));
        }
      }
      break;
    }
    case Kind::kViewportCount: {
      // Volume fractions cycle through kViewportFractions query by query.
      const size_t count = options.Scaled(kViewportQueriesPerPass);
      std::vector<std::vector<Aabb>> by_fraction;
      for (size_t f = 0; f < 3; ++f) {
        params.count = (count + 2) / 3;
        params.volume_fraction = kViewportFractions[f];
        params.seed = options.seed * 3 + f;
        by_fraction.push_back(flat::GenerateRangeWorkload(data.bounds, params));
      }
      for (size_t i = 0; i < count; ++i) {
        ops.boxes.push_back(by_fraction[i % 3][i / 3]);
      }
      break;
    }
    case Kind::kChurnMixed:
      break;
  }
  return ops;
}

/// Build + Save + Load, repeated (Setup::WantsMore); returns the last store.
ShardedFlatStore SetupStore(const flat::Dataset& data, const fs::path& dir,
                            Setup* setup) {
  ShardedFlatStore loaded;
  while (setup->WantsMore()) {
    // Release the previous repetition's mapping before its files are
    // rewritten.
    loaded = ShardedFlatStore();
    std::vector<flat::RTreeEntry> elements = data.elements;
    ShardedFlatStore::BuildStats stats;
    const int64_t t0 = NowNs();
    ShardedFlatStore built =
        ShardedFlatStore::Build(std::move(elements), StoreOptions(), &stats);
    const int64_t t1 = NowNs();
    built.Save(dir.string());
    const int64_t t2 = NowNs();
    loaded = ShardedFlatStore::Load(dir.string(), kThreads);
    const int64_t t3 = NowNs();
    setup->setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    setup->save_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    setup->load_s.push_back(static_cast<double>(t3 - t2) / 1e9);
    setup->AddBuild(stats);
  }
  return loaded;
}

struct QueryRecord {
  uint64_t hash = 0;
  uint64_t count = 0;
  IoStats io;
};

/// What a recorded (warm-up or traced) pass keeps per query and call.
struct Recording {
  std::vector<QueryRecord> queries;
  std::vector<int64_t> call_ns;
  std::vector<bool> keep_ids;  // oracle samples
  std::map<size_t, std::vector<uint64_t>> ids;
  Tracer* tracer = nullptr;
};

void Record(Recording* rec, size_t q, const std::vector<uint64_t>& ids,
            uint64_t count, const IoStats& io) {
  rec->queries[q] = QueryRecord{HashIds(ids), count, io};
  if (rec->keep_ids[q]) rec->ids[q] = ids;
}

void CountStatus(const QueryResult& result, PassStats* stats) {
  if (result.status == flat::QueryStatus::kRejected) {
    ++stats->rejected;
  } else if (!result.ok()) {
    ++stats->failed;
  }
}

/// One pass of store calls. `rec` (optional) records results and spans.
void StorePass(Kind kind, const ShardedFlatStore& store, const StaticOps& ops,
               PassStats* stats, Recording* rec) {
  Tracer* tracer = rec != nullptr ? rec->tracer : nullptr;
  if (rec != nullptr) rec->queries.assign(ops.boxes.size(), QueryRecord{});
  stats->latency_us.reserve(ops.calls());
  for (size_t c = 0; c < ops.calls(); ++c) {
    IoStats io;
    std::vector<uint64_t> ids;
    std::vector<QueryResult> results;
    uint64_t count = 0;
    const int64_t t0 = NowNs();
    try {
      switch (kind) {
        case Kind::kSnSingle: {
          ScopedSpan span(tracer, "store.range_query", c);
          ids = store.RangeQuery(ops.boxes[c], &io);
          break;
        }
        case Kind::kLssBatch: {
          ScopedSpan span(tracer, "store.run_batch", c);
          results = store.RunBatch(ops.batches[c]);
          break;
        }
        case Kind::kViewportCount: {
          ScopedSpan span(tracer, "store.range_count", c);
          count = store.RangeCount(ops.boxes[c], &io);
          break;
        }
        case Kind::kChurnMixed:
          break;
      }
    } catch (const std::exception&) {
      ++stats->thrown;
      stats->ops += ops.batch_size;
      continue;
    }
    const int64_t t1 = NowNs();
    stats->latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    stats->ops += ops.batch_size;
    stats->queries += ops.batch_size;
    if (rec != nullptr) rec->call_ns.push_back(t1 - t0);
    if (kind == Kind::kLssBatch) {
      for (size_t j = 0; j < results.size(); ++j) {
        const QueryResult& r = results[j];
        CountStatus(r, stats);
        stats->reads += r.io.TotalReads();
        stats->results += r.count;
        if (rec != nullptr) Record(rec, c * ops.batch_size + j, r.ids, r.count, r.io);
      }
      continue;
    }
    if (kind == Kind::kSnSingle) count = ids.size();
    stats->reads += io.TotalReads();
    stats->results += count;
    if (rec != nullptr) Record(rec, c, ids, count, io);
  }
}

/// Per-layer work of the decomposed pass.
struct Decomposition {
  std::vector<QueryRecord> queries;
  std::vector<size_t> sub_queries;  // per query
  ReadCounters counters;
  uint64_t crawl_object_reads = 0;
  uint64_t touched_shards = 0;
  uint64_t covered_shards = 0;
};

/// Re-executes every query as its public parts: routing on the catalog
/// bounds, then per touched shard Seed + Crawl (or RangeCount) through a
/// counted cold cache — one recycled BufferPool per shard, cleared per
/// sub-query, as the engine's cold-per-query mode does. Shards whose bounds
/// the count box covers are answered from the catalog, as the store does.
void DecomposedPass(Kind kind, const ShardedFlatStore& store,
                    const StaticOps& ops, Tracer* tracer, Decomposition* out) {
  const flat::ShardCatalog& catalog = store.catalog();
  const size_t shards = catalog.shards.size();
  IoStats unused;
  std::vector<std::unique_ptr<flat::BufferPool>> pools;
  for (size_t s = 0; s < shards; ++s) {
    pools.push_back(
        std::make_unique<flat::BufferPool>(&store.shard_file(s), &unused));
  }
  flat::CrawlScratch scratch;
  out->queries.assign(ops.boxes.size(), QueryRecord{});
  out->sub_queries.assign(ops.boxes.size(), 0);
  out->counters.sample_limit = kKernelPages;
  for (size_t q = 0; q < ops.boxes.size(); ++q) {
    const Aabb& box = ops.boxes[q];
    QueryRecord& rec = out->queries[q];
    ScopedSpan query_span(tracer, "decomposed.query", q);
    std::vector<size_t> routed;
    {
      ScopedSpan span(tracer, "shard.route", q);
      for (size_t s = 0; s < shards; ++s) {
        const flat::ShardCatalogEntry& shard = catalog.shards[s];
        if (!shard.bounds.Intersects(box)) continue;
        ++out->touched_shards;
        if (kind == Kind::kViewportCount &&
            store.shard_index(s).has_aggregates() &&
            box.Contains(shard.bounds)) {
          rec.count += shard.element_count;
          ++out->covered_shards;
          continue;
        }
        routed.push_back(s);
      }
    }
    std::vector<uint64_t> ids;
    for (const size_t s : routed) {
      ++out->sub_queries[q];
      const flat::FlatIndex& index = store.shard_index(s);
      pools[s]->Clear();
      pools[s]->set_stats(&rec.io);
      CountingCache cache(pools[s].get(), &out->counters);
      if (kind == Kind::kViewportCount) {
        ScopedSpan span(tracer, "core.count", q);
        rec.count += index.RangeCount(&cache, box, &scratch);
        continue;
      }
      std::optional<flat::RecordRef> start;
      {
        ScopedSpan span(tracer, "core.seed", q);
        start = index.Seed(&cache, box);
      }
      if (!start.has_value()) continue;
      const uint64_t objects = rec.io.ReadsIn(PageCategory::kObject);
      {
        ScopedSpan span(tracer, "core.crawl", q);
        index.Crawl(&cache, box, *start, &ids,
                    flat::FlatIndex::CrawlGuard::kPartitionMbr, &scratch);
      }
      out->crawl_object_reads += rec.io.ReadsIn(PageCategory::kObject) - objects;
    }
    if (kind != Kind::kViewportCount) {
      std::sort(ids.begin(), ids.end());
      rec.count = ids.size();
      rec.hash = HashIds(ids);
    } else {
      rec.hash = HashIds({});
    }
  }
}

/// Traced run: a traced pass of store calls, then the decomposed pass, the
/// geometry kernel loops, and the per-layer metrics; the decomposition must
/// reproduce every query's ids (or count) and IoStats.
void TracedRun(Kind kind, const ShardedFlatStore& store, const StaticOps& ops,
               double untraced_ops_per_s, Report* report) {
  Tracer tracer(1);
  Recording traced;
  traced.tracer = &tracer;
  traced.keep_ids.assign(ops.boxes.size(), false);
  PassStats traced_stats;
  const int64_t t0 = NowNs();
  StorePass(kind, store, ops, &traced_stats, &traced);
  const double traced_s = static_cast<double>(NowNs() - t0) / 1e9;
  report->AddPasses(traced_stats);

  Decomposition dec;
  DecomposedPass(kind, store, ops, &tracer, &dec);

  Gate identity{"decomposition", ops.boxes.size(), 0,
                "decomposed ids/count and per-category IoStats equal the "
                "store's, query by query"};
  IoStats io;
  uint64_t results = 0;
  for (size_t q = 0; q < ops.boxes.size(); ++q) {
    const QueryRecord& a = traced.queries[q];
    const QueryRecord& b = dec.queries[q];
    if (a.hash != b.hash || a.count != b.count || !SameIo(a.io, b.io)) {
      ++identity.mismatches;
    }
    io += b.io;
    results += b.count;
  }
  report->gates.push_back(identity);

  // Per-call part sums for the scatter-gather residual and engine load.
  const std::map<uint64_t, int64_t> route = PerOpNs(tracer, "shard.route");
  std::vector<double> work_ns(ops.calls(), 0.0), route_ns(ops.calls(), 0.0);
  std::vector<size_t> subs(ops.calls(), 0);
  for (const char* part : {"core.seed", "core.crawl", "core.count"}) {
    for (const auto& [q, ns] : PerOpNs(tracer, part)) {
      work_ns[q / ops.batch_size] += static_cast<double>(ns);
    }
  }
  for (const auto& [q, ns] : route) {
    route_ns[q / ops.batch_size] += static_cast<double>(ns);
  }
  for (size_t q = 0; q < ops.boxes.size(); ++q) {
    subs[q / ops.batch_size] += dec.sub_queries[q];
  }
  double residual_ns = 0.0, wall_ns = 0.0, busy_ns = 0.0;
  uint64_t sub_total = 0;
  for (size_t c = 0; c < ops.calls() && c < traced.call_ns.size(); ++c) {
    const double lanes =
        static_cast<double>(std::max<size_t>(1, std::min(kThreads, subs[c])));
    residual_ns += static_cast<double>(traced.call_ns[c]) - route_ns[c] -
                   work_ns[c] / lanes;
    wall_ns += static_cast<double>(traced.call_ns[c]);
    busy_ns += work_ns[c];
    sub_total += subs[c];
  }

  std::vector<flat::Vec3> centers;
  for (const Aabb& box : ops.boxes) centers.push_back(box.Center());
  const KernelTimes kernels =
      TimeKernels(dec.counters.sampled_pages, ops.boxes, centers,
                  SnBallRadius(store.catalog().universe));

  FinishTrace({&tracer}, report);
  const std::map<std::string, LayerTime>& spans = report->spans;
  const double n = static_cast<double>(ops.boxes.size());
  const double calls = static_cast<double>(ops.calls());
  FillReadLayers(dec.counters, ops.boxes.size(), kernels, io,
                 ops.boxes.size(), report);
  std::map<std::string, double>& layer = report->per_layer;
  layer["core.seed_us"] = SpanTotalNs(spans, "core.seed") / n / 1e3;
  layer["core.crawl_us"] = SpanTotalNs(spans, "core.crawl") / n / 1e3;
  layer["core.crawl_ns_per_object_page"] =
      SpanTotalNs(spans, "core.crawl") /
      static_cast<double>(std::max<uint64_t>(1, dec.crawl_object_reads));
  layer["core.count_us"] = SpanTotalNs(spans, "core.count") / n / 1e3;
  layer["core.covered_shards_per_query"] =
      static_cast<double>(dec.covered_shards) / n;
  layer["core.results_per_query"] = static_cast<double>(results) / n;
  layer["core.reads_per_result"] =
      static_cast<double>(io.TotalReads()) /
      static_cast<double>(std::max<uint64_t>(1, results));
  layer["shard.shards_per_query"] =
      static_cast<double>(dec.touched_shards) / n;
  layer["shard.route_us"] = SpanTotalNs(spans, "shard.route") / n / 1e3;
  layer["shard.scatter_gather_us"] = residual_ns / calls / 1e3;
  layer["engine.busy_ratio"] =
      busy_ns / (static_cast<double>(kThreads) * std::max(1.0, wall_ns));
  layer["engine.sub_queries_per_batch"] =
      static_cast<double>(sub_total) / calls;
  const double traced_ops_per_s =
      static_cast<double>(traced_stats.ops) / traced_s;
  layer["trace.ops_per_s_ratio"] = traced_ops_per_s / untraced_ops_per_s;
}

}  // namespace

Report RunStatic(const Options& options) {
  Report report;
  report.options = options;
  WorkDir work(options);

  flat::NeuronParams params;
  params.total_elements = options.Scaled(kStaticElements);
  params.seed = kDataSeed;
  const flat::Dataset data = flat::GenerateNeurons(params);

  Setup setup;
  const fs::path store_dir = work.path() / "store";
  const ShardedFlatStore store = SetupStore(data, store_dir, &setup);
  const double disk_bytes_per_element =
      static_cast<double>(DirectoryBytes(store_dir)) /
      static_cast<double>(data.size());
  const StaticOps ops = MakeOps(options, data);
  const Kind kind = options.kind;

  // Warm-up: untimed; records every query for the gates.
  Recording warm;
  warm.keep_ids.assign(ops.boxes.size(), false);
  std::vector<size_t> samples;
  for (size_t k = 0; k < kOracleSamples; ++k) {
    const size_t q = k * ops.boxes.size() / kOracleSamples;
    if (samples.empty() || samples.back() != q) samples.push_back(q);
  }
  for (const size_t q : samples) warm.keep_ids[q] = true;
  PassStats warm_stats;
  StorePass(kind, store, ops, &warm_stats, &warm);
  report.AddPasses(warm_stats);

  const std::vector<PassStats> passes = TimedPasses(
      options.passes, [] {},
      [&](PassStats* pass) { StorePass(kind, store, ops, pass, nullptr); });
  for (const PassStats& pass : passes) report.AddPasses(pass);
  FillEndToEnd(passes, setup, disk_bytes_per_element, PeakRssMiB(),
               kind == Kind::kLssBatch, &report);

  // Gate: every timed pass read exactly the pages and returned exactly the
  // results of the warm-up pass (the static store is deterministic).
  Gate repeat{"pass_identity", passes.size(), 0,
              "each timed pass matches the warm-up pass's total reads and "
              "results"};
  for (const PassStats& pass : passes) {
    if (pass.reads != warm_stats.reads || pass.results != warm_stats.results) {
      ++repeat.mismatches;
    }
  }
  report.gates.push_back(repeat);

  if (options.traced()) {
    TracedRun(kind, store, ops, report.end_to_end["ops_per_s"], &report);
    FillSetupLayers(setup, &report);
  }

  // Gate: sampled queries against the brute-force oracle.
  Gate oracle{"oracle", samples.size(), 0,
              "sampled queries equal Dataset::BruteForceRange (or its size)"};
  for (const size_t q : samples) {
    std::vector<uint64_t> expected = data.BruteForceRange(ops.boxes[q]);
    std::sort(expected.begin(), expected.end());
    const bool ok = kind == Kind::kViewportCount
                        ? warm.queries[q].count == expected.size()
                        : warm.ids[q] == expected;
    if (!ok) ++oracle.mismatches;
  }
  report.gates.push_back(oracle);

  report.config = {
      {"elements", static_cast<double>(data.size())},
      {"shards", static_cast<double>(store.shard_count())},
      {"threads", static_cast<double>(kThreads)},
      {"page_size", static_cast<double>(kPageSize)},
      {"queries_per_pass", static_cast<double>(ops.boxes.size())},
      {"batch_size", static_cast<double>(ops.batch_size)},
      {"data_seed", static_cast<double>(kDataSeed)},
  };
  return report;
}

}  // namespace flatbench

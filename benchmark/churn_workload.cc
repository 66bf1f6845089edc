// churn_mixed: reads beside writes on a 250k-element in-memory store. Each
// pass is a fixed mix of snapshot sphere reads, move-upserts, fresh inserts
// and erases; a background thread compacts whenever the overlay window
// reaches a threshold, and the client saves a checkpoint after each new
// generation.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "core/crawl_scratch.h"
#include "core/overlay_merge.h"
#include "counting_cache.h"
#include "data/neuron_generator.h"
#include "delta/delta_log.h"
#include "delta/overlay_view.h"
#include "geometry/rng.h"

namespace flatbench {

namespace fs = std::filesystem;
using flat::Aabb;
using flat::DeltaLog;
using flat::DeltaOp;
using flat::IoStats;
using flat::RTreeEntry;
using flat::ShardedFlatStore;
using flat::Vec3;

namespace {

constexpr size_t kOpsPerPass = 10000;
/// Compact() moves the floor to the log size at its start, so compactions
/// start exactly this many writes apart. Equal to the writes of one pass,
/// every pass holds one compaction at the same point; a threshold that
/// does not divide the pass (e.g. 4096) lets the compaction phase drift
/// from pass to pass, and the per-pass latencies cycle with it.
constexpr uint64_t kCompactThreshold = kOpsPerPass / 2;
constexpr size_t kOracleSamplesPerPass = 8;
constexpr double kMoveShiftUm = 0.1;    // move-upserts shift a box <= this
constexpr double kInsertShiftUm = 1.0;  // fresh inserts land near live data

struct ChurnOp {
  enum class Kind : uint8_t { kRead, kMove, kInsert, kErase };
  Kind kind = Kind::kRead;
  uint64_t id = 0;
  Aabb box;          // kMove / kInsert
  Vec3 center;       // kRead: ball center
  int64_t sample = -1;  // kRead: index of its oracle expectation, if sampled
};

/// Generates the seeded op stream pass by pass and is, at the same time, the
/// client's oracle mirror: an unordered_map of the live elements, updated as
/// each op is generated. Sampled reads get their expected result from it by
/// brute force, at the point in the stream where they will run. Every write
/// is also appended to `mirror`, a DeltaLog whose positions equal the
/// store's log positions (the client is the only writer).
class ChurnGenerator {
 public:
  ChurnGenerator(const flat::Dataset& data, uint64_t seed, double radius,
                 DeltaLog* mirror)
      : rng_(seed), radius_(radius), mirror_(mirror) {
    live_.reserve(data.size() * 2);
    ids_.reserve(data.size() * 2);
    for (const RTreeEntry& e : data.elements) {
      Add(e.id, e.box);
      next_id_ = std::max(next_id_, e.id + 1);
    }
  }

  size_t live_count() const { return ids_.size(); }

  std::vector<ChurnOp> NextPass(size_t ops, size_t samples,
                                std::vector<std::vector<uint64_t>>* expected) {
    const size_t reads = ops / 2, moves = ops / 4, inserts = ops / 8;
    std::vector<ChurnOp::Kind> kinds(ops, ChurnOp::Kind::kErase);
    std::fill_n(kinds.begin(), reads, ChurnOp::Kind::kRead);
    std::fill_n(kinds.begin() + reads, moves, ChurnOp::Kind::kMove);
    std::fill_n(kinds.begin() + reads + moves, inserts,
                ChurnOp::Kind::kInsert);
    std::shuffle(kinds.begin(), kinds.end(), rng_.engine());
    const size_t stride = std::max<size_t>(1, reads / std::max<size_t>(1, samples));

    std::vector<ChurnOp> out(ops);
    size_t read_ordinal = 0;
    for (size_t i = 0; i < ops; ++i) {
      ChurnOp& op = out[i];
      op.kind = kinds[i];
      switch (op.kind) {
        case ChurnOp::Kind::kRead:
          op.center = live_[RandomLiveId()].box.Center();
          if (read_ordinal++ % stride == 0 && read_ordinal <= stride * samples) {
            op.sample = static_cast<int64_t>(expected->size());
            expected->push_back(BruteForceSphere(op.center));
          }
          break;
        case ChurnOp::Kind::kMove:
          op.id = RandomLiveId();
          op.box = Shifted(live_[op.id].box, kMoveShiftUm);
          live_[op.id].box = op.box;
          Append(DeltaOp::Kind::kInsert, op.id, op.box);
          break;
        case ChurnOp::Kind::kInsert:
          op.id = next_id_++;
          op.box = Shifted(live_[RandomLiveId()].box, kInsertShiftUm);
          Add(op.id, op.box);
          Append(DeltaOp::Kind::kInsert, op.id, op.box);
          break;
        case ChurnOp::Kind::kErase:
          op.id = RandomLiveId();
          Remove(op.id);
          Append(DeltaOp::Kind::kDelete, op.id, Aabb());
          break;
      }
    }
    return out;
  }

  std::vector<uint64_t> SortedLiveIds() const {
    std::vector<uint64_t> ids = ids_;
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  struct Slot {
    Aabb box;
    size_t position = 0;  // index in ids_
  };

  void Add(uint64_t id, const Aabb& box) {
    live_[id] = Slot{box, ids_.size()};
    ids_.push_back(id);
  }

  void Remove(uint64_t id) {
    const size_t position = live_[id].position;
    ids_[position] = ids_.back();
    live_[ids_[position]].position = position;
    ids_.pop_back();
    live_.erase(id);
  }

  uint64_t RandomLiveId() {
    return ids_[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(ids_.size()) - 1))];
  }

  Aabb Shifted(const Aabb& box, double max_shift) {
    const Vec3 shift = rng_.UnitVector() * rng_.Uniform(0.0, max_shift);
    return Aabb(box.lo() + shift, box.hi() + shift);
  }

  void Append(DeltaOp::Kind kind, uint64_t id, const Aabb& box) {
    DeltaOp op;
    op.kind = kind;
    op.entry = RTreeEntry{box, id};
    mirror_->Append(op);
  }

  std::vector<uint64_t> BruteForceSphere(const Vec3& center) const {
    std::vector<uint64_t> ids;
    for (const auto& [id, slot] : live_) {
      if (slot.box.IntersectsSphere(center, radius_)) ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  flat::Rng rng_;
  double radius_;
  DeltaLog* mirror_;
  std::unordered_map<uint64_t, Slot> live_;
  std::vector<uint64_t> ids_;
  uint64_t next_id_ = 0;
};

/// Background compaction: compacts whenever the overlay window holds at
/// least `threshold` ops, and records each generation's log floor (the
/// window a snapshot of that generation folds starts there).
class Compactor {
 public:
  Compactor(ShardedFlatStore* store, uint64_t threshold)
      : store_(store), threshold_(threshold), thread_([this] { Loop(); }) {}
  ~Compactor() { Stop(); }
  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// Spans of later compactions go to `tracer`, which only the compactor
  /// thread touches until Stop() returns.
  void set_tracer(Tracer* tracer) { tracer_.store(tracer); }

  std::optional<uint64_t> FloorOf(uint64_t generation) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = floors_.find(generation);
    if (it == floors_.end()) return std::nullopt;
    return it->second;
  }

  std::vector<ShardedFlatStore::CompactionStats> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

  uint64_t failures() const { return failures_.load(); }

 private:
  void Loop() {
    while (!stop_.load()) {
      if (store_->overlay_op_count() < threshold_) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      try {
        ShardedFlatStore::CompactionStats stats;
        {
          ScopedSpan span(tracer_.load(), "shard.compact", compactions_++);
          stats = store_->Compact();
        }
        std::lock_guard<std::mutex> lock(mu_);
        floors_[stats.generation] =
            floors_[stats.generation - 1] + stats.folded_ops;
        events_.push_back(stats);
      } catch (const std::exception&) {
        ++failures_;
        return;
      }
    }
  }

  ShardedFlatStore* store_;
  uint64_t threshold_;
  std::atomic<bool> stop_{false};
  std::atomic<Tracer*> tracer_{nullptr};
  std::atomic<uint64_t> failures_{0};
  uint64_t compactions_ = 0;  // compactor thread only
  mutable std::mutex mu_;
  std::map<uint64_t, uint64_t> floors_{{1, 0}};  // guarded by mu_
  std::vector<ShardedFlatStore::CompactionStats> events_;  // guarded by mu_
  std::thread thread_;  // last: starts after the members it uses
};

/// Client-side state across passes.
struct Client {
  ShardedFlatStore* store = nullptr;
  double radius = 0.0;
  fs::path checkpoint_dir;
  uint64_t saved_generation = 1;
  size_t live = 0;
  std::vector<double> checkpoint_ms;
  std::vector<double> checkpoint_bytes_per_element;
  std::vector<std::vector<uint64_t>> sampled_results;
};

/// The traced pass's decomposition of snapshot reads.
struct ChurnTrace {
  Tracer* tracer = nullptr;
  const Compactor* compactor = nullptr;
  const DeltaLog* mirror = nullptr;
  ReadCounters counters;
  flat::CrawlScratch scratch;
  uint64_t next_op = 0;
  uint64_t reads = 0;
  uint64_t decomposed = 0;
  uint64_t skipped = 0;
  uint64_t mismatches = 0;
  uint64_t touched_shards = 0;
  uint64_t results = 0;
  double window_ops = 0.0;
  IoStats store_io;
  std::vector<uint64_t> decomposed_ops;
};

/// Re-executes one snapshot sphere read as its public parts: base-only
/// sphere queries on the routed shards (fresh cold pool each, as the
/// snapshot path does) plus the overlay fold and merge rebuilt from the
/// client's mirror log. Skipped when the snapshot's base is no longer the
/// store's current one (a compaction landed in between), because the parts
/// can only reach the current base.
void DecomposeRead(ShardedFlatStore& store,
                   const ShardedFlatStore::Snapshot& snapshot,
                   const Vec3& center, double radius,
                   const std::vector<uint64_t>& store_ids,
                   const IoStats& store_io, uint64_t op, ChurnTrace* t) {
  ScopedSpan read_span(t->tracer, "decomposed.read", op);
  const uint64_t generation = snapshot.generation();
  const std::optional<uint64_t> floor = t->compactor->FloorOf(generation);
  std::vector<Aabb> bounds;
  std::vector<const flat::FlatIndex*> indexes;
  std::vector<const flat::PageStore*> files;
  {
    ScopedSpan span(t->tracer, "shard.route", op);
    const flat::ShardCatalog& catalog = store.catalog();
    for (size_t s = 0; s < catalog.shards.size(); ++s) {
      bounds.push_back(catalog.shards[s].bounds);
      indexes.push_back(&store.shard_index(s));
      files.push_back(&store.shard_file(s));
    }
  }
  // Generations only grow, so an unchanged generation here means every
  // handle above came from the snapshot's base, which the snapshot keeps
  // alive.
  if (!floor.has_value() || store.generation() != generation) {
    ++t->skipped;
    return;
  }
  t->window_ops += static_cast<double>(snapshot.epoch() - *floor);
  std::shared_ptr<const flat::OverlayView> view;
  {
    ScopedSpan span(t->tracer, "delta.fold", op);
    view = flat::OverlayView::Build(*t->mirror, *floor, snapshot.epoch(),
                                    bounds);
  }
  const Aabb gate =
      Aabb::FromCenterHalfExtents(center, Vec3(radius, radius, radius));
  IoStats io;
  std::vector<uint64_t> ids;
  for (size_t s = 0; s < bounds.size(); ++s) {
    if (!bounds[s].Intersects(gate)) continue;
    ++t->touched_shards;
    std::vector<uint64_t> sub;
    {
      ScopedSpan span(t->tracer, "core.sphere", op);
      flat::BufferPool pool(files[s], &io);
      CountingCache cache(&pool, &t->counters);
      indexes[s]->SphereQuery(&cache, center, radius, &sub, &t->scratch);
    }
    if (view != nullptr) {
      ScopedSpan span(t->tracer, "delta.merge", op);
      flat::FilterOverlayMasked(*view, &sub);
      io.RecordOverlayProbes(flat::AppendOverlaySphereMatches(
          *view, s, center, radius, &sub, &t->scratch));
    }
    ids.insert(ids.end(), sub.begin(), sub.end());
  }
  if (view != nullptr) {
    ScopedSpan span(t->tracer, "delta.merge", op);
    io.RecordOverlayProbes(flat::AppendOverlaySphereMatches(
        *view, view->spill_bucket(), center, radius, &ids, &t->scratch));
  }
  std::sort(ids.begin(), ids.end());
  ++t->decomposed;
  t->decomposed_ops.push_back(op);
  if (ids != store_ids || !SameIo(io, store_io)) ++t->mismatches;
}

void ChurnPass(Client* client, const std::vector<ChurnOp>& ops,
               PassStats* stats, ChurnTrace* trace) {
  ShardedFlatStore& store = *client->store;
  Tracer* tracer = trace != nullptr ? trace->tracer : nullptr;
  stats->latency_us.reserve(ops.size() / 2);
  for (const ChurnOp& op : ops) {
    const uint64_t op_id = trace != nullptr ? trace->next_op++ : 0;
    ++stats->ops;
    try {
      switch (op.kind) {
        case ChurnOp::Kind::kRead: {
          ShardedFlatStore::Snapshot snapshot;
          IoStats io;
          std::vector<uint64_t> ids;
          const int64_t t0 = NowNs();
          {
            ScopedSpan span(tracer, "delta.pin", op_id);
            snapshot = store.PinSnapshot();
          }
          {
            ScopedSpan span(tracer, "shard.snapshot_query", op_id);
            ids = snapshot.SphereQuery(op.center, client->radius, &io);
          }
          const int64_t t1 = NowNs();
          stats->latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
          ++stats->queries;
          stats->reads += io.TotalReads();
          stats->results += ids.size();
          if (op.sample >= 0) client->sampled_results[op.sample] = ids;
          if (trace != nullptr) {
            ++trace->reads;
            trace->results += ids.size();
            trace->store_io += io;
            DecomposeRead(store, snapshot, op.center, client->radius, ids, io,
                          op_id, trace);
          }
          break;
        }
        case ChurnOp::Kind::kMove:
        case ChurnOp::Kind::kInsert: {
          ScopedSpan span(tracer, "delta.insert", op_id);
          store.Insert(RTreeEntry{op.box, op.id});
          break;
        }
        case ChurnOp::Kind::kErase: {
          ScopedSpan span(tracer, "delta.erase", op_id);
          store.Erase(op.id);
          break;
        }
      }
      if (op.kind == ChurnOp::Kind::kInsert) ++client->live;
      if (op.kind == ChurnOp::Kind::kErase) --client->live;
      const uint64_t generation = store.generation();
      if (generation != client->saved_generation) {
        const int64_t t0 = NowNs();
        {
          ScopedSpan span(tracer, "storage.save", op_id);
          store.Save(client->checkpoint_dir.string());
        }
        client->checkpoint_ms.push_back(static_cast<double>(NowNs() - t0) /
                                        1e6);
        client->checkpoint_bytes_per_element.push_back(
            static_cast<double>(DirectoryBytes(client->checkpoint_dir)) /
            static_cast<double>(client->live));
        client->saved_generation = generation;
      }
    } catch (const std::exception&) {
      ++stats->thrown;
    }
  }
}

}  // namespace

Report RunChurn(const Options& options) {
  Report report;
  report.options = options;
  WorkDir work(options);

  flat::NeuronParams params;
  params.total_elements = options.Scaled(kChurnElements);
  params.seed = kDataSeed;
  const flat::Dataset data = flat::GenerateNeurons(params);

  // Set-up: elements in hand -> in-memory store ready (Build only).
  Setup setup;
  ShardedFlatStore store;
  while (setup.WantsMore()) {
    store = ShardedFlatStore();
    std::vector<RTreeEntry> elements = data.elements;
    ShardedFlatStore::BuildStats stats;
    const int64_t t0 = NowNs();
    store = ShardedFlatStore::Build(std::move(elements), StoreOptions(), &stats);
    setup.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup.AddBuild(stats);
  }

  const double radius = SnBallRadius(data.bounds);
  DeltaLog mirror;
  ChurnGenerator generator(data, options.seed, radius, &mirror);
  std::vector<std::vector<uint64_t>> expected;
  Client client;
  client.store = &store;
  client.radius = radius;
  client.checkpoint_dir = work.path() / "checkpoint";
  client.live = generator.live_count();

  const size_t ops_per_pass = options.Scaled(kOpsPerPass);
  std::vector<ChurnOp> ops;
  const auto prepare = [&] {
    ops = generator.NextPass(ops_per_pass, kOracleSamplesPerPass, &expected);
    client.sampled_results.resize(expected.size());
  };

  Tracer client_tracer(1);
  Tracer compactor_tracer(2);
  ChurnTrace trace;
  std::vector<PassStats> passes;
  PassStats traced_stats;
  double traced_s = 0.0;
  size_t total_passes = 0;
  std::vector<ShardedFlatStore::CompactionStats> events;
  uint64_t compactor_failures = 0;
  {
    Compactor compactor(&store, options.Scaled(kCompactThreshold));
    prepare();
    PassStats warm;
    ChurnPass(&client, ops, &warm, nullptr);
    report.AddPasses(warm);

    passes = TimedPasses(options.passes, prepare, [&](PassStats* pass) {
      ChurnPass(&client, ops, pass, nullptr);
    });
    for (const PassStats& pass : passes) report.AddPasses(pass);
    total_passes = 1 + passes.size();
    const double peak_rss = PeakRssMiB();

    if (options.traced()) {
      prepare();
      trace.tracer = &client_tracer;
      trace.compactor = &compactor;
      trace.mirror = &mirror;
      trace.counters.sample_limit = kKernelPages;
      compactor.set_tracer(&compactor_tracer);
      const int64_t t0 = NowNs();
      ChurnPass(&client, ops, &traced_stats, &trace);
      traced_s = static_cast<double>(NowNs() - t0) / 1e9;
      compactor.set_tracer(nullptr);
      report.AddPasses(traced_stats);
      ++total_passes;
    }
    compactor.Stop();
    events = compactor.events();
    compactor_failures = compactor.failures();

    if (client.checkpoint_bytes_per_element.empty()) {
      store.Save(client.checkpoint_dir.string());
      client.checkpoint_bytes_per_element.push_back(
          static_cast<double>(DirectoryBytes(client.checkpoint_dir)) /
          static_cast<double>(client.live));
    }
    FillEndToEnd(passes, setup, Median(client.checkpoint_bytes_per_element),
                 peak_rss, /*batches=*/false, &report);
  }

  Gate oracle{"oracle", expected.size(), 0,
              "sampled snapshot reads equal the client's oracle mirror"};
  for (size_t i = 0; i < expected.size(); ++i) {
    if (client.sampled_results[i] != expected[i]) ++oracle.mismatches;
  }
  report.gates.push_back(oracle);

  const Aabb everything(Vec3(-1e18, -1e18, -1e18), Vec3(1e18, 1e18, 1e18));
  report.gates.push_back(
      {"final_state", 1,
       store.RangeQuery(everything) == generator.SortedLiveIds() ? 0u : 1u,
       "after the passes the store holds exactly the oracle's live ids"});
  report.gates.push_back({"compactor", events.size() + compactor_failures,
                          compactor_failures,
                          "background compactions completed without error"});

  if (options.traced()) {
    report.gates.push_back(
        {"decomposition", trace.decomposed, trace.mismatches,
         "decomposed ids and per-category IoStats (incl. overlay probes) "
         "equal the snapshot query's; " +
             std::to_string(trace.skipped) +
             " reads skipped because a compaction swapped the base "
             "in between"});

    std::vector<Aabb> boxes;
    std::vector<Vec3> centers;
    for (const ChurnOp& op : ops) {
      if (op.kind != ChurnOp::Kind::kRead) continue;
      centers.push_back(op.center);
      boxes.push_back(Aabb::FromCenterHalfExtents(
          op.center, Vec3(radius, radius, radius)));
    }
    const KernelTimes kernels =
        TimeKernels(trace.counters.sampled_pages, boxes, centers, radius);

    // Snapshot query minus its base-only shard queries, per decomposed read.
    const std::map<uint64_t, int64_t> query_ns =
        PerOpNs(client_tracer, "shard.snapshot_query");
    const std::map<uint64_t, int64_t> sphere_ns =
        PerOpNs(client_tracer, "core.sphere");
    double merge_ns = 0.0;
    for (const uint64_t op : trace.decomposed_ops) {
      const auto q = query_ns.find(op);
      const auto s = sphere_ns.find(op);
      merge_ns += static_cast<double>(q == query_ns.end() ? 0 : q->second) -
                  static_cast<double>(s == sphere_ns.end() ? 0 : s->second);
    }

    FinishTrace({&client_tracer, &compactor_tracer}, &report);
    FillSetupLayers(setup, &report);
    const std::map<std::string, LayerTime>& spans = report.spans;
    const double reads = static_cast<double>(std::max<uint64_t>(1, trace.reads));
    const double decomposed =
        static_cast<double>(std::max<uint64_t>(1, trace.decomposed));
    FillReadLayers(trace.counters, trace.decomposed, kernels, trace.store_io,
                   trace.reads, &report);
    std::map<std::string, double>& layer = report.per_layer;
    // Churn's set-up has no save or load; its saves are checkpoints.
    layer["storage.save_s"] = 0.0;
    layer["storage.load_s"] = 0.0;
    layer["storage.checkpoint_ms"] = Median(client.checkpoint_ms);
    layer["core.sphere_us"] =
        SpanTotalNs(spans, "core.sphere") / decomposed / 1e3;
    layer["core.results_per_query"] =
        static_cast<double>(trace.results) / reads;
    layer["core.reads_per_result"] =
        static_cast<double>(trace.store_io.TotalReads()) /
        static_cast<double>(std::max<uint64_t>(1, trace.results));
    layer["shard.shards_per_query"] =
        static_cast<double>(trace.touched_shards) / decomposed;
    layer["shard.route_us"] = SpanMeanNs(spans, "shard.route") / 1e3;
    double compact_s = 0.0, rewritten = 0.0;
    for (const ShardedFlatStore::CompactionStats& e : events) {
      compact_s += e.seconds;
      rewritten += static_cast<double>(e.merged_elements);
    }
    const double compactions = static_cast<double>(std::max<size_t>(1, events.size()));
    layer["shard.compactions"] = static_cast<double>(events.size()) /
                                 static_cast<double>(total_passes);
    layer["shard.compact_s"] = compact_s / compactions;
    layer["shard.compact_rewritten_elements"] = rewritten / compactions;
    layer["delta.pin_us"] = SpanMeanNs(spans, "delta.pin") / 1e3;
    layer["delta.window_ops_at_pin"] = trace.window_ops / decomposed;
    layer["delta.overlay_probes_per_query"] =
        static_cast<double>(trace.store_io.OverlayProbes()) / reads;
    layer["delta.overlay_merge_us"] = merge_ns / decomposed / 1e3;
    layer["delta.insert_ns"] = SpanMeanNs(spans, "delta.insert");
    layer["delta.erase_ns"] = SpanMeanNs(spans, "delta.erase");
    // Traced throughput counts the store calls only, not the decomposition.
    const double decomposition_s =
        SpanTotalNs(spans, "decomposed.read") / 1e9;
    layer["trace.ops_per_s_ratio"] =
        static_cast<double>(traced_stats.ops) / (traced_s - decomposition_s) /
        report.end_to_end["ops_per_s"];
  }

  report.config = {
      {"elements", static_cast<double>(data.size())},
      {"shards", static_cast<double>(store.shard_count())},
      {"threads", static_cast<double>(kThreads)},
      {"page_size", static_cast<double>(kPageSize)},
      {"ops_per_pass", static_cast<double>(ops_per_pass)},
      {"compact_threshold",
       static_cast<double>(options.Scaled(kCompactThreshold))},
      {"sphere_radius_um", radius},
      {"data_seed", static_cast<double>(kDataSeed)},
      {"compactions", static_cast<double>(events.size())},
      {"checkpoints", static_cast<double>(client.checkpoint_ms.size())},
  };
  return report;
}

}  // namespace flatbench

// Aggregate pruning (rtree/aggregates.h): page reads for RangeCount with the
// subtree-count sidecar vs. the exact non-pruned path, on the Fig-12 neuron
// data set at 512-byte pages (small pages deepen the seed hierarchy, the
// regime the paper's page-read accounting cares about).
//
// Two workloads, both random location and aspect ratio like Figure 12:
//   * "sn": the SN boxes (volume fraction 5e-6) — far below partition size,
//     so covered-node pruning rarely triggers; the gate here is exactness.
//   * "viewport": large boxes (75% and 90% of the universe volume) — the
//     covered regime the aggregates exist for, where interior subtrees
//     contribute stored counts without a single page read below them.
//
// --json emits the BENCH_aggregate.json baseline and self-validates
// (non-zero exit on violation):
//   * pruned RangeCount equals the non-pruned count on every query of both
//     workloads, and RangeQueryViaSeedScan returns identical id sequences
//     (the covered batch-copy path must be bit-identical, not just set-equal);
//   * the pruned build never reads more pages than the plain build on the
//     viewport workload, and its total reads there shrink >= 3x;
//   * sharded stores (K=4) agree with the non-pruned store before, during,
//     and after overlay churn, and again after compaction;
//   * a store reloaded from disk keeps its sidecars: per-shard aggregates
//     are present and a universe count answers from the catalog alone —
//     zero page reads.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "benchutil/experiment.h"
#include "benchutil/flags.h"
#include "benchutil/sweep.h"
#include "core/flat_index.h"
#include "data/query_generator.h"
#include "geometry/rng.h"
#include "shard/sharded_flat_store.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"
#include "storage/page_file.h"

namespace {

using namespace flat;

// Small pages (the smallest that fits the neuron metadata fan-out): ~31
// entries per object page, so the 800k-element point has a fine partition
// grid and viewport boxes span dozens of partitions per axis —
// interior/boundary ratios large enough to measure.
constexpr uint32_t kPageSize = 1024;

struct RunStats {
  uint64_t total_reads = 0;
  uint64_t seed_internal_reads = 0;
  uint64_t seed_leaf_reads = 0;
  uint64_t object_reads = 0;
  std::vector<uint64_t> counts;
};

RunStats RunCounts(const FlatIndex& index, const PageFile& file,
                   const std::vector<Aabb>& queries) {
  IoStats io;
  BufferPool pool(&file, &io);
  RunStats run;
  run.counts.reserve(queries.size());
  for (const Aabb& q : queries) {
    pool.Clear();  // cold cache per query, as in the paper
    run.counts.push_back(index.RangeCount(&pool, q));
  }
  run.total_reads = io.TotalReads();
  run.seed_internal_reads = io.ReadsIn(PageCategory::kSeedInternal);
  run.seed_leaf_reads = io.ReadsIn(PageCategory::kSeedLeaf);
  run.object_reads = io.ReadsIn(PageCategory::kObject);
  return run;
}

bool SeedScanIdsIdentical(const FlatIndex& plain, const PageFile& plain_file,
                          const FlatIndex& pruned, const PageFile& pruned_file,
                          const std::vector<Aabb>& queries) {
  IoStats io;
  BufferPool plain_pool(&plain_file, &io);
  BufferPool pruned_pool(&pruned_file, &io);
  std::vector<uint64_t> want, got;
  for (const Aabb& q : queries) {
    want.clear();
    got.clear();
    plain.RangeQueryViaSeedScan(&plain_pool, q, &want);
    pruned.RangeQueryViaSeedScan(&pruned_pool, q, &got);
    if (want != got) return false;
  }
  return true;
}

void PrintReads(const char* key, const RunStats& run, const char* tail) {
  std::cout << "     \"" << key << "\": {\"total_reads\": " << run.total_reads
            << ", \"seed_internal_reads\": " << run.seed_internal_reads
            << ", \"seed_leaf_reads\": " << run.seed_leaf_reads
            << ", \"object_reads\": " << run.object_reads << "}" << tail;
}

/// The sharded oracle: pruned vs. plain store counts on every query, at one
/// lifecycle stage. Returns false on the first divergence.
bool ShardedCountsAgree(const ShardedFlatStore& pruned,
                        const ShardedFlatStore& plain,
                        const std::vector<Aabb>& queries) {
  for (const Aabb& q : queries) {
    if (pruned.RangeCount(q) != plain.RangeCount(q)) return false;
    if (pruned.RangeQuery(q) != plain.RangeQuery(q)) return false;
  }
  return true;
}

int RunGates(const BenchFlags& flags) {
  const size_t elements = flags.Scaled(800000);
  const size_t n_queries = std::max<size_t>(flags.queries() / 2, 8);
  std::cerr << "# aggregate pruning, " << elements << " elements, "
            << n_queries << " SN + " << n_queries
            << " viewport queries, cold cache per query\n";

  Dataset dataset = NeuronDatasetAt(elements, flags.seed());

  RangeWorkloadParams sn;
  sn.count = n_queries;
  sn.volume_fraction = kSnVolumeFraction;
  sn.seed = flags.seed() + 1;
  const std::vector<Aabb> sn_queries =
      GenerateRangeWorkload(dataset.bounds, sn);

  // Viewport boxes at two large volume fractions; a final box covering every
  // element exercises the O(height) extreme (the union of element MBRs can
  // poke past dataset.bounds, so cover that union, not the nominal bounds).
  RangeWorkloadParams big;
  big.count = n_queries / 2;
  big.volume_fraction = 0.75;
  big.seed = flags.seed() + 2;
  std::vector<Aabb> viewport = GenerateRangeWorkload(dataset.bounds, big);
  big.count = n_queries - big.count - 1;
  big.volume_fraction = 0.9;
  big.seed = flags.seed() + 3;
  for (const Aabb& q : GenerateRangeWorkload(dataset.bounds, big)) {
    viewport.push_back(q);
  }
  Aabb universe;
  for (const RTreeEntry& e : dataset.elements) {
    universe.ExpandToInclude(e.box);
  }
  universe = Aabb(universe.lo() - Vec3(1, 1, 1), universe.hi() + Vec3(1, 1, 1));
  viewport.push_back(universe);

  PageFile plain_file(kPageSize), pruned_file(kPageSize);
  FlatIndex::BuildOptions with;
  with.aggregate_counts = true;
  const FlatIndex plain = FlatIndex::Build(&plain_file, dataset.elements);
  const FlatIndex pruned =
      FlatIndex::Build(&pruned_file, dataset.elements, with);
  if (!pruned.has_aggregates()) {
    std::cerr << "ERROR: aggregate build produced no sidecar\n";
    return 1;
  }

  const RunStats sn_plain = RunCounts(plain, plain_file, sn_queries);
  const RunStats sn_pruned = RunCounts(pruned, pruned_file, sn_queries);
  const RunStats vp_plain = RunCounts(plain, plain_file, viewport);
  const RunStats vp_pruned = RunCounts(pruned, pruned_file, viewport);

  const bool counts_identical = sn_plain.counts == sn_pruned.counts &&
                                vp_plain.counts == vp_pruned.counts;
  const bool seedscan_identical =
      SeedScanIdsIdentical(plain, plain_file, pruned, pruned_file,
                           sn_queries) &&
      SeedScanIdsIdentical(plain, plain_file, pruned, pruned_file, viewport);
  const bool reads_bounded = vp_pruned.total_reads <= vp_plain.total_reads;
  const double viewport_reduction =
      vp_pruned.total_reads > 0
          ? static_cast<double>(vp_plain.total_reads) / vp_pruned.total_reads
          : 0.0;

  // Sharded lifecycle oracle at a smaller density point: pruned vs. plain
  // store through overlay churn, compaction, and a disk round-trip.
  const size_t shard_elements = flags.Scaled(60000);
  Dataset shard_dataset = NeuronDatasetAt(shard_elements, flags.seed() + 4);
  RangeWorkloadParams shard_workload;
  shard_workload.count = std::max<size_t>(n_queries / 2, 8);
  shard_workload.volume_fraction = 0.1;
  shard_workload.seed = flags.seed() + 5;
  std::vector<Aabb> shard_queries =
      GenerateRangeWorkload(shard_dataset.bounds, shard_workload);
  Aabb shard_universe;
  for (const RTreeEntry& e : shard_dataset.elements) {
    shard_universe.ExpandToInclude(e.box);
  }
  shard_universe = Aabb(shard_universe.lo() - Vec3(1, 1, 1),
                        shard_universe.hi() + Vec3(1, 1, 1));
  shard_queries.push_back(shard_universe);

  ShardedFlatStore::Options pruned_options;
  pruned_options.num_shards = 4;
  pruned_options.page_size = kPageSize;
  pruned_options.aggregate_counts = true;
  ShardedFlatStore sharded_pruned =
      ShardedFlatStore::Build(shard_dataset.elements, pruned_options);
  ShardedFlatStore::Options plain_options;
  plain_options.num_shards = 4;
  plain_options.page_size = kPageSize;
  ShardedFlatStore sharded_plain =
      ShardedFlatStore::Build(shard_dataset.elements, plain_options);

  bool sharded_identical =
      ShardedCountsAgree(sharded_pruned, sharded_plain, shard_queries);

  // Churn: inserts across the volume plus erases of existing ids open an
  // overlay window, which must disable the covered-shard shortcut without
  // disturbing exactness.
  Rng rng(flags.seed() + 6);
  for (size_t i = 0; i < 200; ++i) {
    const Vec3 corner = rng.PointIn(shard_dataset.bounds);
    const RTreeEntry fresh{
        Aabb(corner, corner + Vec3(0.5f, 0.5f, 0.5f)),
        10000000 + i};
    sharded_pruned.Insert(fresh);
    sharded_plain.Insert(fresh);
    const uint64_t victim = shard_dataset.elements[i * 97].id;
    sharded_pruned.Erase(victim);
    sharded_plain.Erase(victim);
  }
  sharded_identical =
      sharded_identical &&
      ShardedCountsAgree(sharded_pruned, sharded_plain, shard_queries);
  sharded_pruned.Compact();
  sharded_plain.Compact();
  sharded_identical =
      sharded_identical &&
      ShardedCountsAgree(sharded_pruned, sharded_plain, shard_queries);

  // Disk round-trip: sidecars must survive Save/Load and keep the shortcut.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "bench_agg_pruning";
  fs::remove_all(dir);
  sharded_pruned.Save(dir.string());
  bool loaded_identical = true;
  uint64_t loaded_universe_reads = 0;
  {
    ShardedFlatStore loaded =
        ShardedFlatStore::Load(dir.string(), /*num_threads=*/1);
    for (size_t s = 0; s < loaded.shard_count(); ++s) {
      loaded_identical =
          loaded_identical && loaded.shard_index(s).has_aggregates();
    }
    for (const Aabb& q : shard_queries) {
      loaded_identical =
          loaded_identical && loaded.RangeCount(q) == sharded_plain.RangeCount(q);
    }
    IoStats io;
    loaded.RangeCount(shard_universe, &io);
    loaded_universe_reads = io.TotalReads();
  }
  fs::remove_all(dir);

  std::cout << "{\n"
            << "  \"bench\": \"agg_pruning\",\n"
            << "  \"workload\": \"sn_and_viewport_range_counts\",\n"
            << "  \"elements\": " << dataset.elements.size() << ",\n"
            << "  \"page_size\": " << kPageSize << ",\n"
            << "  \"queries_per_workload\": " << n_queries << ",\n"
            << "  \"sn\": {\n";
  PrintReads("plain", sn_plain, ",\n");
  PrintReads("pruned", sn_pruned, "\n");
  std::cout << "  },\n"
            << "  \"viewport\": {\n";
  PrintReads("plain", vp_plain, ",\n");
  PrintReads("pruned", vp_pruned, "\n");
  std::cout << "  },\n"
            << "  \"viewport_read_reduction\": " << viewport_reduction << ",\n"
            << "  \"counts_identical\": "
            << (counts_identical ? "true" : "false") << ",\n"
            << "  \"seedscan_ids_identical\": "
            << (seedscan_identical ? "true" : "false") << ",\n"
            << "  \"pruned_reads_bounded\": "
            << (reads_bounded ? "true" : "false") << ",\n"
            << "  \"sharded_lifecycle_identical\": "
            << (sharded_identical ? "true" : "false") << ",\n"
            << "  \"loaded_sidecars_identical\": "
            << (loaded_identical ? "true" : "false") << ",\n"
            << "  \"loaded_universe_reads\": " << loaded_universe_reads << "\n"
            << "}\n";

  if (!counts_identical) {
    std::cerr << "ERROR: pruned RangeCount diverged from the exact path\n";
    return 1;
  }
  if (!seedscan_identical) {
    std::cerr << "ERROR: seed-scan ids diverged between the builds\n";
    return 1;
  }
  if (!reads_bounded) {
    std::cerr << "ERROR: the pruned build read more viewport pages than the "
                 "plain build\n";
    return 1;
  }
  if (viewport_reduction < 3.0) {
    std::cerr << "ERROR: viewport read reduction " << viewport_reduction
              << "x below the 3x gate\n";
    return 1;
  }
  if (!sharded_identical) {
    std::cerr << "ERROR: sharded pruned store diverged over the overlay "
                 "lifecycle\n";
    return 1;
  }
  if (!loaded_identical) {
    std::cerr << "ERROR: disk round-trip lost or corrupted the aggregate "
                 "sidecars\n";
    return 1;
  }
  if (loaded_universe_reads != 0) {
    std::cerr << "ERROR: loaded store read " << loaded_universe_reads
              << " pages for a fully covered count (want 0)\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flat;
  BenchFlags flags(argc, argv);
  const int status = RunGates(flags);
  if (flags.GetInt("json", 0) == 0) {
    // The human-readable run shares the gate path; the JSON above doubles as
    // the report.
    std::cerr << (status == 0 ? "aggregate pruning gates: OK\n"
                              : "aggregate pruning gates: FAILED\n");
  }
  return status;
}

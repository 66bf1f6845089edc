// Demo: sharding one microcircuit data set into a multi-volume FLAT store —
// the horizontal layer for data sets larger than one PageFile (or spread
// across many circuits). The store STR-splits the elements into K spatial
// shards, bulk-builds each shard's FlatIndex in parallel, routes queries
// through a shard catalog, and gathers per-shard results into one canonical
// (sorted) answer that is bit-identical to an unsharded index.
//
// Also shows the persistence side: Save() writes the shard PageFiles plus a
// versioned catalog into a directory; Load() reopens the store and answers
// the same queries with the same I/O. A reopened store takes inserts and
// saves back into the directory its shards are served from.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <vector>

#include "core/flat_index.h"
#include "data/neuron_generator.h"
#include "engine/query_engine.h"
#include "geometry/rng.h"
#include "shard/sharded_flat_store.h"
#include "storage/page.h"

int main() {
  using namespace flat;

  NeuronParams params;
  params.total_elements = 40000;
  params.seed = 42;
  Dataset dataset = GenerateNeurons(params);
  std::cout << "Data set: " << dataset.elements.size()
            << " cylinder MBRs in " << dataset.bounds << "\n";

  // Build a 4-shard store, fanning the shard builds over 4 workers.
  ShardedFlatStore::BuildStats build_stats;
  ShardedFlatStore store = ShardedFlatStore::Build(
      dataset.elements, {.num_shards = 4, .num_threads = 4}, &build_stats);
  std::cout << "Built " << store.shard_count() << " shards in "
            << (build_stats.split_seconds + build_stats.build_seconds) * 1e3
            << " ms (split " << build_stats.split_seconds * 1e3 << " ms)\n";
  for (size_t s = 0; s < store.shard_count(); ++s) {
    const ShardCatalogEntry& entry = store.catalog().shards[s];
    std::cout << "  shard " << s << ": " << entry.element_count
              << " elements, " << store.shard_file(s).page_count()
              << " pages, bounds " << entry.bounds << "\n";
  }

  // Scatter-gather a batch: each query fans out to the shards its box
  // overlaps, all sub-queries share one engine batch whose workers claim
  // them one at a time, and per query the shard results merge into
  // ascending id order.
  Rng rng(7);
  std::vector<Query> batch;
  for (int i = 0; i < 40; ++i) {
    const Vec3 center = rng.PointIn(dataset.bounds);
    if (i % 2 == 0) {
      batch.push_back(
          Query::Range(Aabb::FromCenterHalfExtents(center, Vec3(6, 6, 6))));
    } else {
      batch.push_back(Query::RangeCount(
          Aabb::FromCenterHalfExtents(center, Vec3(6, 6, 6))));
    }
  }
  BatchStats stats;
  std::vector<QueryResult> results = store.RunBatch(batch, &stats);
  std::cout << "Batch of " << batch.size() << " queries on " << stats.threads
            << " threads: " << stats.result_elements << " result elements, "
            << stats.io.TotalReads() << " page reads in "
            << stats.wall_seconds * 1e3 << " ms\n";

  // One query spanning every shard still returns one deduplicated,
  // canonically ordered id list.
  IoStats all_io;
  std::vector<uint64_t> all = store.RangeQuery(dataset.bounds, &all_io);
  std::cout << "Full-volume query: " << all.size() << " ids across "
            << store.shard_count() << " shards, " << all_io.TotalReads()
            << " page reads\n";

  // Persist and reopen: the catalog + shard PageFiles are the whole store.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flat_sharded_store_example";
  std::filesystem::remove_all(dir);
  store.Save(dir.string());
  uint64_t bytes = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    bytes += std::filesystem::file_size(file);
  }
  std::cout << "Saved store to " << dir << " (" << bytes / 1024 << " KiB)\n";

  ShardedFlatStore reopened =
      ShardedFlatStore::Load(dir.string(), /*num_threads=*/4);
  std::vector<uint64_t> again = reopened.RangeQuery(dataset.bounds);
  std::cout << "Reopened store answers identically: "
            << (again == all ? "yes" : "NO") << "\n";

  // Insert into the reopened store and save it back into its own
  // directory. Save replaces the page files the store maps, so the store
  // keeps answering from the files it opened, and a second reopen answers
  // like the updated store.
  uint64_t next_id = 0;
  for (const RTreeEntry& e : dataset.elements) {
    next_id = std::max(next_id, e.id + 1);
  }
  for (int i = 0; i < 5; ++i) {
    const Vec3 corner = rng.PointIn(dataset.bounds);
    reopened.Insert(
        RTreeEntry{Aabb(corner, corner + Vec3(1, 1, 1)), next_id + i});
  }
  const std::vector<uint64_t> updated = reopened.RangeQuery(dataset.bounds);
  reopened.Save(dir.string());
  ShardedFlatStore resaved =
      ShardedFlatStore::Load(dir.string(), /*num_threads=*/4);
  const bool updates_persist =
      updated.size() == all.size() + 5 &&
      reopened.RangeQuery(dataset.bounds) == updated &&
      resaved.RangeQuery(dataset.bounds) == updated;
  std::cout << "Inserted 5 elements, saved in place and reopened: "
            << (updates_persist ? "identical" : "DIFFERENT") << "\n";
  std::filesystem::remove_all(dir);
  return again == all && updates_persist ? 0 : 1;
}

// Ablation: why must the crawl be gated on the tile (the paper: the
// partition MBR, which contains it) rather than the page MBR? Section VI
// (Figures 8/9) argues the page-MBR guard can stop the BFS early and lose
// results. This bench runs both guards on clustered
// (concave) data and reports recall and I/O; the page-MBR guard is cheaper
// precisely because it is wrong. Its reads/q column counts its crawl only:
// it starts from the first record whose page meets the query, found by an
// uncharged walk of the seed tree.
#include <iostream>
#include <vector>

#include "benchutil/flags.h"
#include "benchutil/table.h"
#include "core/flat_index.h"
#include "data/nbody_generator.h"
#include "data/query_generator.h"
#include "storage/buffer_pool.h"

int main(int argc, char** argv) {
  using namespace flat;
  BenchFlags flags(argc, argv);

  // Strongly clustered particles: lots of empty space inside query ranges,
  // the regime where page MBRs leave gaps.
  NBodyParams params;
  params.count = flags.Scaled(120000);
  params.clusters = 40;
  params.background_fraction = 0.0;
  params.cluster_scale = 0.015;
  params.seed = flags.seed();
  Dataset dataset = GenerateNBody(params);

  PageFile file;
  FlatIndex index = FlatIndex::Build(&file, dataset.elements);
  IoStats stats;
  BufferPool pool(&file, &stats);

  std::cout << "Ablation: crawl guard = tile (correct) vs page MBR "
               "(Figure 8/9 failure)\n\n";
  Table table({"query volume frac", "queries", "recall(tile)",
               "recall(page)", "reads/q(tile)", "reads/q(page)"});
  for (double fraction : {1e-5, 1e-4, 1e-3, 1e-2}) {
    RangeWorkloadParams wp;
    wp.count = flags.queries();
    wp.volume_fraction = fraction;
    wp.min_aspect = 0.05;  // elongated queries cross cluster gaps
    wp.max_aspect = 20.0;
    wp.seed = flags.seed() + 1;
    auto queries = GenerateRangeWorkload(dataset.bounds, wp);

    uint64_t oracle_total = 0, partition_total = 0, page_total = 0;
    IoStats partition_io, page_io;
    for (const Aabb& q : queries) {
      oracle_total += dataset.BruteForceRange(q).size();
      std::vector<uint64_t> got;
      IoStats before = stats;
      pool.Clear();
      index.RangeQuery(&pool, q, &got);
      partition_io += stats.DeltaSince(before);
      partition_total += got.size();

      // The page-MBR crawl needs a start whose page meets the query: the
      // tile directory's start may lie in a gap between pages. Its reads
      // count the crawl only (the candidate walk is uncharged).
      got.clear();
      before = stats;
      pool.Clear();
      const std::vector<RecordRef> starts = index.FindAllCandidateRecords(q);
      if (!starts.empty()) {
        index.Crawl(&pool, q, starts.front(), &got,
                    FlatIndex::CrawlGuard::kPageMbr);
      }
      page_io += stats.DeltaSince(before);
      page_total += got.size();
    }
    auto recall = [&](uint64_t got) {
      return oracle_total > 0
                 ? FormatNumber(100.0 * got / oracle_total, 2) + "%"
                 : "n/a";
    };
    table.AddRow({FormatNumber(fraction, 6),
                  FormatNumber(static_cast<double>(queries.size()), 0),
                  recall(partition_total), recall(page_total),
                  FormatNumber(static_cast<double>(partition_io.TotalReads()) /
                                   queries.size(), 1),
                  FormatNumber(static_cast<double>(page_io.TotalReads()) /
                                   queries.size(), 1)});
  }
  flags.csv() ? table.PrintCsv(std::cout) : table.Print(std::cout);
  std::cout << "\nExpected: the tile guard always reaches 100% recall; the "
               "page-MBR guard\nloses results on at least some query "
               "sizes.\n";
  return 0;
}

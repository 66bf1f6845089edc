#include "benchutil/experiment.h"

#include "benchutil/sweep.h"
#include "data/query_generator.h"
#include "storage/disk_model.h"

namespace flat {

std::vector<DensityPoint> RunDensitySweep(const BenchFlags& flags,
                                          const SweepOptions& options) {
  std::vector<DensityPoint> points;
  DiskModel disk;

  for (size_t count : DensitySweepCounts(flags)) {
    Dataset dataset = NeuronDatasetAt(count, flags.seed());

    std::vector<Aabb> queries;
    if (options.volume_fraction > 0.0) {
      if (options.point_queries) {
        for (const Vec3& p : GeneratePointWorkload(
                 dataset.bounds, flags.queries(), flags.seed() + 1)) {
          queries.push_back(Aabb::FromPoint(p));
        }
      } else {
        RangeWorkloadParams wp;
        wp.count = flags.queries();
        wp.volume_fraction = options.volume_fraction;
        wp.seed = flags.seed() + 1;
        queries = GenerateRangeWorkload(dataset.bounds, wp);
      }
    }

    DensityPoint point;
    point.elements = count;
    for (IndexKind kind : options.kinds) {
      Contender contender = BuildContender(kind, dataset.elements);
      KindResult result;
      result.build_seconds = contender.build_seconds;
      result.size_bytes = contender.size_bytes();
      for (int c = 0; c < kNumPageCategories; ++c) {
        result.pages_in[c] =
            contender.file->PageCountIn(static_cast<PageCategory>(c));
      }
      if (kind == IndexKind::kFlat) {
        result.flat_stats = contender.flat.build_stats();
      } else {
        result.tree_stats = contender.rtree.ComputeStats();
      }
      if (!queries.empty()) {
        result.workload = RunWorkload(contender, queries, disk);
      }
      point.by_kind[kind] = result;
    }
    points.push_back(std::move(point));
  }
  return points;
}

}  // namespace flat

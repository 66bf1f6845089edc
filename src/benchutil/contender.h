#ifndef FLAT_BENCHUTIL_CONTENDER_H_
#define FLAT_BENCHUTIL_CONTENDER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/flat_index.h"
#include "geometry/aabb.h"
#include "rtree/bulkload.h"
#include "rtree/rstar_tree.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_model.h"
#include "storage/io_stats.h"
#include "storage/page_file.h"

namespace flat {

/// The index variants the benches compare.
enum class IndexKind {
  kHilbert,
  kStr,
  kMorton,
  kPrTree,
  kTgs,
  kRStar,
  kFlat,
  /// FLAT built with BuildOptions::compressed_seed_pages: quantized
  /// interior seed pages (rtree/node.h), same query results.
  kFlatCompressed,
};

const char* IndexKindName(IndexKind kind);

/// The paper's standard lineup: the three bulkloaded R-Trees plus FLAT.
inline const IndexKind kPaperLineup[] = {IndexKind::kFlat, IndexKind::kPrTree,
                                         IndexKind::kStr, IndexKind::kHilbert};

/// One built index over its own simulated disk; uniform query interface.
struct Contender {
  IndexKind kind;
  std::unique_ptr<PageFile> file;
  RTree rtree;          // valid for all R-Tree kinds
  FlatIndex flat;       // valid for kFlat / kFlatCompressed
  double build_seconds = 0.0;

  /// Runs a range query through `pool`, appending result ids.
  void RangeQuery(BufferPool* pool, const Aabb& query,
                  std::vector<uint64_t>* out) const {
    if (kind == IndexKind::kFlat || kind == IndexKind::kFlatCompressed) {
      flat.RangeQuery(pool, query, out);
    } else {
      rtree.RangeQuery(pool, query, out);
    }
  }

  uint64_t total_pages() const { return file->page_count(); }
  uint64_t size_bytes() const { return file->SizeBytes(); }
};

/// Builds one contender over (a copy of) `elements`. Build time is recorded
/// as wall-clock, matching the paper's Figure 10 methodology.
Contender BuildContender(IndexKind kind,
                         const std::vector<RTreeEntry>& elements,
                         uint32_t page_size = kDefaultPageSize);

/// Aggregate outcome of a query workload.
struct WorkloadResult {
  IoStats io;
  uint64_t result_elements = 0;
  /// Simulated elapsed time per the DiskModel.
  double simulated_ms = 0.0;
};

/// Executes all `queries` against `contender`. Per the paper's methodology
/// the cache is cleared before *each* query ("Before each query is executed,
/// the OS caches and disk buffers are cleared"); within one query the
/// buffer pool is unbounded.
WorkloadResult RunWorkload(const Contender& contender,
                           const std::vector<Aabb>& queries,
                           const DiskModel& disk_model);

}  // namespace flat

#endif  // FLAT_BENCHUTIL_CONTENDER_H_

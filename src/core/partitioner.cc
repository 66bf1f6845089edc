#include "core/partitioner.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/grid_join.h"
#include "core/metadata.h"
#include "parallel/parallel_sort.h"
#include "parallel/thread_pool.h"
#include "rtree/pack.h"

namespace flat {
namespace {

// Boundary between two adjacent chunks on `axis`: midway between the last
// center of the left chunk and the first center of the right chunk. Using
// element centers keeps every element's center inside its own tile.
double ChunkBoundary(const std::vector<RTreeEntry>& elements, size_t left_last,
                     size_t right_first, int axis) {
  return 0.5 * (elements[left_last].box.Center()[axis] +
                elements[right_first].box.Center()[axis]);
}

// Splits [begin, end) into chunks of `chunk_size` and reports, for chunk k,
// its [lo, hi] interval on `axis` such that consecutive chunks share
// boundaries and the outermost chunks extend to [axis_lo, axis_hi].
struct Chunk {
  size_t begin;
  size_t end;
  double lo;
  double hi;
};

std::vector<Chunk> MakeChunks(const std::vector<RTreeEntry>& elements,
                              size_t begin, size_t end, size_t chunk_size,
                              int axis, double axis_lo, double axis_hi) {
  std::vector<Chunk> chunks;
  double lo = axis_lo;
  for (size_t s = begin; s < end; s += chunk_size) {
    const size_t e = std::min(end, s + chunk_size);
    double hi = e < end ? ChunkBoundary(elements, e - 1, e, axis) : axis_hi;
    // Guard against non-monotone boundaries when many centers coincide.
    hi = std::max(hi, lo);
    chunks.push_back({s, e, lo, hi});
    lo = hi;
  }
  if (!chunks.empty()) chunks.back().hi = std::max(axis_hi, chunks.back().lo);
  return chunks;
}

}  // namespace

std::vector<PartitionInfo> StrPartition(std::vector<RTreeEntry>* elements,
                                        uint32_t page_capacity,
                                        const Aabb& universe,
                                        ThreadPool* pool) {
  assert(page_capacity >= 1);
  std::vector<PartitionInfo> partitions;
  const size_t n = elements->size();
  if (n == 0) return partitions;

  // pn = cbrt(size / pagesize) partitions per dimension (Algorithm 1).
  const size_t total_pages = (n + page_capacity - 1) / page_capacity;
  const size_t sx = CeilCbrt(total_pages);
  const size_t x_chunk = (n + sx - 1) / sx;

  ParallelSort(pool, elements->begin(), elements->end(), EntryCenterOrder{0});
  const std::vector<Chunk> x_chunks = MakeChunks(
      *elements, 0, n, x_chunk, 0, universe.lo().x, universe.hi().x);

  // y pass: the x-slabs are independent ranges, sorted in parallel.
  ParallelFor(pool, x_chunks.size(), /*grain=*/1, [&](size_t, size_t s) {
    std::sort(elements->begin() + x_chunks[s].begin,
              elements->begin() + x_chunks[s].end, EntryCenterOrder{1});
  });

  // Collect every y-run (with its owning x-slab) so the z pass can sort all
  // runs in one parallel sweep.
  struct Run {
    size_t x_index;
    Chunk y;
  };
  std::vector<Run> runs;
  for (size_t s = 0; s < x_chunks.size(); ++s) {
    const Chunk& xc = x_chunks[s];
    const size_t m = xc.end - xc.begin;
    const size_t slab_pages = (m + page_capacity - 1) / page_capacity;
    const size_t sy = CeilSqrt(slab_pages);
    const size_t y_chunk = (m + sy - 1) / sy;
    for (const Chunk& yc : MakeChunks(*elements, xc.begin, xc.end, y_chunk, 1,
                                      universe.lo().y, universe.hi().y)) {
      runs.push_back({s, yc});
    }
  }

  // z pass: sort each run, split it into page-sized z-chunks, and emit the
  // run's partitions (tile, page MBR, stretched partition MBR). Runs write
  // into their own slot, then concatenate in run order, so the partition
  // sequence matches the serial construction exactly.
  std::vector<std::vector<PartitionInfo>> per_run(runs.size());
  ParallelFor(pool, runs.size(), /*grain=*/1, [&](size_t, size_t r) {
    const Chunk& xc = x_chunks[runs[r].x_index];
    const Chunk& yc = runs[r].y;
    std::sort(elements->begin() + yc.begin, elements->begin() + yc.end,
              EntryCenterOrder{2});
    const std::vector<Chunk> z_chunks =
        MakeChunks(*elements, yc.begin, yc.end, page_capacity, 2,
                   universe.lo().z, universe.hi().z);
    per_run[r].reserve(z_chunks.size());
    for (const Chunk& zc : z_chunks) {
      PartitionInfo partition;
      partition.first = static_cast<uint32_t>(zc.begin);
      partition.count = static_cast<uint32_t>(zc.end - zc.begin);
      partition.tile =
          Aabb(Vec3(xc.lo, yc.lo, zc.lo), Vec3(xc.hi, yc.hi, zc.hi));
      Aabb page_mbr;
      for (size_t i = zc.begin; i < zc.end; ++i) {
        page_mbr.ExpandToInclude((*elements)[i].box);
      }
      partition.page_mbr = page_mbr;
      partition.partition_mbr = partition.tile;
      partition.partition_mbr.ExpandToInclude(page_mbr);  // stretch
      per_run[r].push_back(std::move(partition));
    }
  });
  for (std::vector<PartitionInfo>& run_partitions : per_run) {
    for (PartitionInfo& partition : run_partitions) {
      partitions.push_back(std::move(partition));
    }
  }
  return partitions;
}

void ComputeNeighbors(std::vector<PartitionInfo>* partitions,
                      ThreadPool* pool) {
  const size_t n = partitions->size();
  std::vector<Aabb> stretched(n);
  std::vector<Aabb> tiles(n);
  std::vector<Aabb> pages(n);
  for (size_t i = 0; i < n; ++i) {
    const PartitionInfo& p = (*partitions)[i];
    stretched[i] = p.partition_mbr;
    tiles[i] = PackedAabb::FromAabb(p.tile).ToAabb();
    pages[i] = PackedAabb::FromAabb(p.page_mbr).ToAabb();
  }
  // Algorithm 1 inserts all partition MBRs "into a temporary R-Tree, used
  // solely to compute the neighborhood information"; the grid join finds
  // the same intersecting pairs without a tree build on the critical path.
  // Those pairs are a superset of the relation (a partition MBR encloses
  // its tile and page MBR), so filtering them yields the relation exactly.
  std::vector<std::vector<uint32_t>> neighbors;
  GridIntersectionJoin(stretched, pool, &neighbors);
  ParallelFor(pool, n, /*grain=*/0, [&](size_t, size_t i) {
    std::erase_if(neighbors[i], [&](uint32_t j) {
      return !tiles[i].Intersects(tiles[j]) &&
             !pages[i].Intersects(tiles[j]) && !tiles[i].Intersects(pages[j]);
    });
    (*partitions)[i].neighbors = std::move(neighbors[i]);
  });
}

uint64_t TotalNeighborPointers(const std::vector<PartitionInfo>& partitions) {
  uint64_t total = 0;
  for (const PartitionInfo& p : partitions) total += p.neighbors.size();
  return total;
}

}  // namespace flat

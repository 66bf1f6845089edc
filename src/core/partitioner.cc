#include "core/partitioner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/metadata.h"
#include "parallel/thread_pool.h"
#include "rtree/pack.h"

namespace flat {
namespace {

// One chunk of an STR pass and its tile interval [lo, hi] on the pass axis.
struct Chunk {
  size_t begin;
  size_t end;
  double lo;
  double hi;
};

// The chunks of `range` once SelectChunks has put them in place. Adjacent
// chunks share the boundary midway between the left chunk's largest center
// and the right chunk's first (smallest) one, which keeps every element's
// center inside its own tile; the outermost chunks extend to
// [axis_lo, axis_hi]. Boundaries are cut from finite centers only:
// EntryCenterOrder puts NaN centers last, so the chunks holding a finite
// center come first, and the last of them runs to axis_hi. The chunks after
// it, whose centers are all NaN, get an empty interval (and so an empty
// tile); a range with no finite center at all keeps one chunk spanning the
// axis, so the tiles still cover the universe.
std::vector<Chunk> MakeChunks(const std::vector<RTreeEntry>& elements,
                              const ChunkedRange& range, int axis,
                              double axis_lo, double axis_hi) {
  const EntryCenterOrder order{axis};
  const auto finite_center = [&](size_t i) {
    return !std::isnan(order.CenterOn(elements[i].box));
  };
  // Every chunk after the first holds its smallest center at its first
  // slot, so the finite chunks end at the first such slot holding NaN.
  size_t finite_end = range.begin + range.chunk;
  while (finite_end < range.end && finite_center(finite_end)) {
    finite_end += range.chunk;
  }
  finite_end = std::min(finite_end, range.end);
  std::vector<Chunk> chunks;
  double lo = axis_lo;
  for (size_t s = range.begin; s < range.end; s += range.chunk) {
    const size_t e = std::min(range.end, s + range.chunk);
    if (s >= finite_end) {
      chunks.push_back({s, e, std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()});
      continue;
    }
    double hi = axis_hi;
    if (e < finite_end) {
      const Aabb& left_max =
          std::max_element(elements.begin() + s, elements.begin() + e, order)
              ->box;
      hi = 0.5 * (order.CenterOn(left_max) + order.CenterOn(elements[e].box));
    }
    // Guard against non-monotone boundaries when many centers coincide.
    hi = std::max(hi, lo);
    chunks.push_back({s, e, lo, hi});
    lo = hi;
  }
  return chunks;
}

// Uniform grid of ~one box per cell over a set of boxes, with the box
// indexes of every cell in CSR form.
class BoxGrid {
 public:
  explicit BoxGrid(const std::vector<Aabb>& boxes) {
    Aabb bounds;
    for (const Aabb& box : boxes) bounds.ExpandToInclude(box);
    lo_ = bounds.lo();
    const size_t per_axis = std::max<size_t>(
        1, static_cast<size_t>(std::cbrt(static_cast<double>(boxes.size()))));
    const Vec3 extent = bounds.Extents();
    for (int axis = 0; axis < 3; ++axis) {
      dims_[axis] = extent[axis] > 0.0 ? per_axis : 1;
      inv_[axis] = extent[axis] > 0.0 ? dims_[axis] / extent[axis] : 0.0;
    }
    const size_t cells = dims_[0] * dims_[1] * dims_[2];
    start_.assign(cells + 1, 0);
    for (const Aabb& box : boxes) {
      ForEachCell(box, [&](size_t cell) { ++start_[cell + 1]; });
    }
    for (size_t cell = 0; cell < cells; ++cell) {
      start_[cell + 1] += start_[cell];
    }
    items_.resize(start_[cells]);
    std::vector<uint32_t> fill(start_.begin(), start_.end() - 1);
    for (size_t i = 0; i < boxes.size(); ++i) {
      ForEachCell(boxes[i], [&](size_t cell) {
        items_[fill[cell]++] = static_cast<uint32_t>(i);
      });
    }
  }

  // Calls fn(j) for every box j sharing a cell with `probe`, once per
  // shared cell. Every box that intersects `probe` is among them.
  template <typename Fn>
  void ForEachCandidate(const Aabb& probe, const Fn& fn) const {
    ForEachCell(probe, [&](size_t cell) {
      for (uint32_t k = start_[cell]; k < start_[cell + 1]; ++k) fn(items_[k]);
    });
  }

 private:
  // Monotone in `value` (clamped to the grid), so two boxes sharing a point
  // share that point's cell.
  size_t CellCoord(double value, int axis) const {
    const double scaled = (value - lo_[axis]) * inv_[axis];
    if (!(scaled > 0.0)) return 0;  // also catches NaN
    if (scaled >= static_cast<double>(dims_[axis])) return dims_[axis] - 1;
    return static_cast<size_t>(scaled);
  }

  template <typename Fn>
  void ForEachCell(const Aabb& box, const Fn& fn) const {
    if (box.IsEmpty()) return;
    size_t cell_lo[3];
    size_t cell_hi[3];
    for (int axis = 0; axis < 3; ++axis) {
      cell_lo[axis] = CellCoord(box.lo()[axis], axis);
      cell_hi[axis] = CellCoord(box.hi()[axis], axis);
    }
    for (size_t iz = cell_lo[2]; iz <= cell_hi[2]; ++iz) {
      for (size_t iy = cell_lo[1]; iy <= cell_hi[1]; ++iy) {
        for (size_t ix = cell_lo[0]; ix <= cell_hi[0]; ++ix) {
          fn((iz * dims_[1] + iy) * dims_[0] + ix);
        }
      }
    }
  }

  Vec3 lo_;
  double inv_[3];
  size_t dims_[3];
  std::vector<uint32_t> start_;
  std::vector<uint32_t> items_;
};

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
  const ChunkedRange all{0, n, (n + sx - 1) / sx};
  SelectChunks(elements, {all}, 0, pool);
  const std::vector<Chunk> x_chunks =
      MakeChunks(*elements, all, 0, universe.lo().x, universe.hi().x);

  // y pass: cut every x-slab into runs, and collect the runs (with their
  // owning slab) for the z pass.
  std::vector<ChunkedRange> slabs;
  for (const Chunk& xc : x_chunks) {
    const size_t m = xc.end - xc.begin;
    const size_t sy = CeilSqrt((m + page_capacity - 1) / page_capacity);
    slabs.push_back({xc.begin, xc.end, (m + sy - 1) / sy});
  }
  SelectChunks(elements, slabs, 1, pool);
  struct Run {
    size_t x_index;
    Chunk y;
  };
  std::vector<Run> runs;
  std::vector<ChunkedRange> run_pages;
  for (size_t s = 0; s < slabs.size(); ++s) {
    for (const Chunk& yc : MakeChunks(*elements, slabs[s], 1,
                                      universe.lo().y, universe.hi().y)) {
      runs.push_back({s, yc});
      run_pages.push_back({yc.begin, yc.end, page_capacity});
    }
  }

  // z pass: cut every run into page-sized chunks and emit the run's
  // partitions (tile, page MBR, stretched partition MBR). Runs write into
  // their own slot, then concatenate in run order, so the partition
  // sequence is the same for any thread count.
  SelectChunks(elements, run_pages, 2, pool);
  std::vector<std::vector<PartitionInfo>> per_run(runs.size());
  ParallelFor(pool, runs.size(), /*grain=*/1, [&](size_t, size_t r) {
    const Chunk& xc = x_chunks[runs[r].x_index];
    const Chunk& yc = runs[r].y;
    const std::vector<Chunk> z_chunks = MakeChunks(
        *elements, run_pages[r], 2, universe.lo().z, universe.hi().z);
    per_run[r].reserve(z_chunks.size());
    for (const Chunk& zc : z_chunks) {
      PartitionInfo partition;
      partition.first = static_cast<uint32_t>(zc.begin);
      partition.count = static_cast<uint32_t>(zc.end - zc.begin);
      partition.slab = static_cast<uint32_t>(runs[r].x_index);
      partition.run = static_cast<uint32_t>(r);
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
  // Probing the tile grid with A's tile and page MBR finds every B with
  // tile_A ∩ tile_B or page_A ∩ tile_B. A worker's `seen` array holds the
  // last A each B was tested for, so each pair is tested once.
  const BoxGrid grid(tiles);
  std::vector<std::vector<uint32_t>> found(n);
  std::vector<std::vector<uint32_t>> seen(
      WorkerCount(pool), std::vector<uint32_t>(n, UINT32_MAX));
  ParallelFor(pool, n, /*grain=*/0, [&](size_t worker, size_t i) {
    std::vector<uint32_t>& tested_for = seen[worker];
    for (const Aabb* probe : {&tiles[i], &pages[i]}) {
      grid.ForEachCandidate(*probe, [&](uint32_t j) {
        if (tested_for[j] == i) return;
        tested_for[j] = static_cast<uint32_t>(i);
        if (j != i &&
            (tiles[i].Intersects(tiles[j]) || pages[i].Intersects(tiles[j])) &&
            stretched[i].Intersects(stretched[j])) {
          found[i].push_back(j);
        }
      });
    }
  });
  // Symmetrize: B's page probe finding tile_A is A's tile_A ∩ page_B
  // clause.
  for (PartitionInfo& p : *partitions) p.neighbors.clear();
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t j : found[i]) {
      (*partitions)[i].neighbors.push_back(j);
      (*partitions)[j].neighbors.push_back(static_cast<uint32_t>(i));
    }
  }
  ParallelFor(pool, n, /*grain=*/0, [&](size_t, size_t i) {
    std::vector<uint32_t>& neighbors = (*partitions)[i].neighbors;
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  });
}

uint64_t TotalNeighborPointers(const std::vector<PartitionInfo>& partitions) {
  uint64_t total = 0;
  for (const PartitionInfo& p : partitions) total += p.neighbors.size();
  return total;
}

}  // namespace flat

#include "rtree/pack.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "parallel/thread_pool.h"
#include "rtree/node.h"

namespace flat {

size_t CeilCbrt(size_t value) {
  if (value <= 1) return value;
  size_t r = static_cast<size_t>(std::llround(std::cbrt(
      static_cast<double>(value))));
  while (r * r * r < value) ++r;
  while (r > 1 && (r - 1) * (r - 1) * (r - 1) >= value) --r;
  return r;
}

size_t CeilSqrt(size_t value) {
  if (value <= 1) return value;
  size_t r = static_cast<size_t>(std::llround(std::sqrt(
      static_cast<double>(value))));
  while (r * r < value) ++r;
  while (r > 1 && (r - 1) * (r - 1) >= value) --r;
  return r;
}

void SelectChunks(std::span<RTreeEntry> entries,
                  const std::vector<ChunkedRange>& ranges, int axis,
                  ThreadPool* pool) {
  // A task holds the boundaries origin + k * chunk, k in [k_lo, k_hi), all
  // inside [lo, hi). It places the middle one and leaves each side to the
  // next round; the tasks of a round own disjoint entries.
  struct Task {
    size_t lo, hi, origin, chunk, k_lo, k_hi;
  };
  std::vector<Task> tasks;
  for (const ChunkedRange& r : ranges) {
    const size_t chunks = (r.end - r.begin + r.chunk - 1) / r.chunk;
    if (chunks > 1) {
      tasks.push_back({r.begin, r.end, r.begin, r.chunk, 1, chunks});
    }
  }
  const auto first = entries.begin();
  const EntryCenterOrder order{axis};
  while (!tasks.empty()) {
    std::vector<Task> halves(2 * tasks.size());
    ParallelFor(pool, tasks.size(), /*grain=*/0, [&](size_t, size_t t) {
      const Task& task = tasks[t];
      const size_t k = task.k_lo + (task.k_hi - task.k_lo) / 2;
      const size_t cut = task.origin + k * task.chunk;
      std::nth_element(first + task.lo, first + cut, first + task.hi, order);
      halves[2 * t] = {task.lo, cut, task.origin, task.chunk, task.k_lo, k};
      halves[2 * t + 1] = {cut + 1,    task.hi, task.origin,
                           task.chunk, k + 1,   task.k_hi};
    });
    std::erase_if(halves, [](const Task& h) { return h.k_lo == h.k_hi; });
    tasks = std::move(halves);
  }
}

void StrOrder(std::vector<RTreeEntry>* entries, uint32_t node_capacity,
              ThreadPool* pool) {
  const size_t n = entries->size();
  if (n <= node_capacity) return;
  const size_t pages = (n + node_capacity - 1) / node_capacity;

  // Number of x-slabs: ceil(P^(1/3)); each slab then holds about P^(2/3)
  // pages and is tiled recursively in y and z.
  const size_t sx = CeilCbrt(pages);
  const size_t slab_size = (n + sx - 1) / sx;
  SelectChunks(*entries, {{0, n, slab_size}}, 0, pool);

  std::vector<ChunkedRange> slabs;
  for (size_t xs = 0; xs < n; xs += slab_size) {
    const size_t slab_n = std::min(n - xs, slab_size);
    const size_t sy = CeilSqrt((slab_n + node_capacity - 1) / node_capacity);
    slabs.push_back({xs, xs + slab_n, (slab_n + sy - 1) / sy});
  }
  SelectChunks(*entries, slabs, 1, pool);

  // Nodes pack consecutive entries across run ends, so every run needs the
  // full z order.
  struct Range {
    size_t begin;
    size_t end;
  };
  std::vector<Range> runs;
  for (const ChunkedRange& slab : slabs) {
    for (size_t ys = slab.begin; ys < slab.end; ys += slab.chunk) {
      runs.push_back({ys, std::min(slab.end, ys + slab.chunk)});
    }
  }
  ParallelFor(pool, runs.size(), /*grain=*/1, [&](size_t, size_t r) {
    std::sort(entries->begin() + runs[r].begin, entries->begin() + runs[r].end,
              EntryCenterOrder{2});
  });
}

std::vector<RTreeEntry> PackLevel(PageFile* file,
                                  const std::vector<RTreeEntry>& ordered,
                                  uint8_t level, PageCategory leaf_category,
                                  PageCategory internal_category,
                                  AggregateBuilder* aggregates) {
  const uint32_t capacity = NodeCapacity(file->page_size());
  const PageCategory category = level == 0 ? leaf_category : internal_category;

  std::vector<RTreeEntry> parents;
  parents.reserve(ordered.size() / capacity + 1);
  for (size_t start = 0; start < ordered.size(); start += capacity) {
    const size_t end = std::min(ordered.size(), start + capacity);
    PageId page = file->Allocate(category);
    Aabb bounds;
    for (size_t i = start; i < end; ++i) {
      bounds.ExpandToInclude(ordered[i].box);
    }
    NodeWriter writer(file->MutableData(page), file->page_size());
    writer.Init(level);
    for (size_t i = start; i < end; ++i) writer.Append(ordered[i]);
    if (aggregates != nullptr && level > 0) {
      // Roll the children's subtree totals up into this page's sidecar
      // entries and its own total. An undeclared child (only possible when
      // a caller seeded the builder partially) keeps this page's total
      // undeclared too, so incompleteness propagates to the root instead of
      // materializing a wrong count.
      AggEntry total{0, 1};  // the page itself
      bool complete = true;
      for (size_t i = start; i < end; ++i) {
        const AggEntry* child =
            aggregates->PageTotal(static_cast<PageId>(ordered[i].id));
        if (child == nullptr) {
          complete = false;
          continue;
        }
        aggregates->RecordSlot(page, static_cast<uint16_t>(i - start), *child);
        total.elements += child->elements;
        total.pages += child->pages;
      }
      if (complete) aggregates->SetPageTotal(page, total);
    }
    parents.push_back(RTreeEntry{bounds, page});
  }
  return parents;
}

RTree BuildUpperLevels(PageFile* file, std::vector<RTreeEntry> level_entries,
                       uint8_t level, LevelOrder order,
                       PageCategory internal_category, ThreadPool* pool,
                       AggregateBuilder* aggregates) {
  assert(!level_entries.empty());
  const uint32_t capacity = NodeCapacity(file->page_size());
  while (level_entries.size() > 1) {
    if (order == LevelOrder::kStr) {
      StrOrder(&level_entries, capacity, pool);
    }
    level_entries =
        PackLevel(file, level_entries, level, PageCategory::kRTreeLeaf,
                  internal_category, aggregates);
    ++level;
  }
  return RTree(file, static_cast<PageId>(level_entries.front().id), level);
}

RTree PackOrderedLeaves(PageFile* file, const std::vector<RTreeEntry>& ordered,
                        LevelOrder order, PageCategory leaf_category) {
  if (ordered.empty()) return RTree();
  std::vector<RTreeEntry> parents =
      PackLevel(file, ordered, /*level=*/0, leaf_category);
  if (parents.size() == 1) {
    return RTree(file, static_cast<PageId>(parents.front().id), 1);
  }
  return BuildUpperLevels(file, std::move(parents), /*level=*/1, order);
}

}  // namespace flat

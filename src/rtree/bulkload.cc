#include "rtree/bulkload.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>

#include "geometry/hilbert.h"
#include "geometry/morton.h"
#include "rtree/node.h"
#include "rtree/pack.h"

namespace flat {
namespace {

// Sorts entries by a space-filling-curve key of their MBR center.
template <typename KeyFn>
void SortByCurveKey(std::vector<RTreeEntry>* entries, KeyFn key_of) {
  std::vector<std::pair<uint64_t, uint32_t>> keyed(entries->size());
  for (size_t i = 0; i < entries->size(); ++i) {
    keyed[i] = {key_of((*entries)[i]), static_cast<uint32_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<RTreeEntry> sorted;
  sorted.reserve(entries->size());
  for (const auto& [key, idx] : keyed) sorted.push_back((*entries)[idx]);
  *entries = std::move(sorted);
}

}  // namespace

const char* BulkloadStrategyName(BulkloadStrategy strategy) {
  switch (strategy) {
    case BulkloadStrategy::kStr:
      return "STR";
    case BulkloadStrategy::kHilbert:
      return "Hilbert";
    case BulkloadStrategy::kMorton:
      return "Morton";
    case BulkloadStrategy::kPrTree:
      return "PR-Tree";
    case BulkloadStrategy::kTgs:
      return "TGS";
  }
  return "unknown";
}

RTree BulkloadStr(PageFile* file, std::vector<RTreeEntry> entries) {
  if (entries.empty()) return RTree();
  StrOrder(&entries, NodeCapacity(file->page_size()));
  return PackOrderedLeaves(file, entries, LevelOrder::kStr);
}

RTree BulkloadHilbert(PageFile* file, std::vector<RTreeEntry> entries) {
  if (entries.empty()) return RTree();
  const Aabb bounds = BoundsOf(entries);
  SortByCurveKey(&entries, [&bounds](const RTreeEntry& e) {
    return Hilbert3D::EncodePoint(e.box.Center(), bounds);
  });
  return PackOrderedLeaves(file, entries, LevelOrder::kSequential);
}

RTree BulkloadMorton(PageFile* file, std::vector<RTreeEntry> entries) {
  if (entries.empty()) return RTree();
  const Aabb bounds = BoundsOf(entries);
  SortByCurveKey(&entries, [&bounds](const RTreeEntry& e) {
    return Morton3D::EncodePoint(e.box.Center(), bounds);
  });
  return PackOrderedLeaves(file, entries, LevelOrder::kSequential);
}

namespace {

// --- Priority R-Tree -------------------------------------------------------
//
// One level of the PR construction, following the paper's own summary
// (Section VII-B): extract up to `cap` extreme entries per priority
// direction into dedicated nodes, median-split the remainder on a
// round-robin axis, recurse. Emits groups of <= cap entries; each group
// becomes one node of the level being built.
class PrLevelBuilder {
 public:
  PrLevelBuilder(uint32_t cap, std::vector<std::vector<RTreeEntry>>* groups)
      : cap_(cap), groups_(groups) {}

  void Build(std::vector<RTreeEntry>&& set, int depth) {
    if (set.empty()) return;
    if (set.size() <= cap_) {
      groups_->push_back(std::move(set));
      return;
    }

    // Six priority groups: minimal lo() per axis, maximal hi() per axis.
    for (int axis = 0; axis < 3 && set.size() > cap_; ++axis) {
      ExtractExtreme(&set, axis, /*take_max=*/false);
    }
    for (int axis = 0; axis < 3 && set.size() > cap_; ++axis) {
      ExtractExtreme(&set, axis, /*take_max=*/true);
    }
    if (set.size() <= cap_) {
      if (!set.empty()) groups_->push_back(std::move(set));
      return;
    }

    const int axis = depth % 3;
    const size_t mid = set.size() / 2;
    std::nth_element(set.begin(), set.begin() + mid, set.end(),
                     [axis](const RTreeEntry& a, const RTreeEntry& b) {
                       return a.box.Center()[axis] < b.box.Center()[axis];
                     });
    std::vector<RTreeEntry> right(set.begin() + mid, set.end());
    set.resize(mid);
    Build(std::move(set), depth + 1);
    Build(std::move(right), depth + 1);
  }

 private:
  // Moves the `cap_` most extreme entries on `axis` into a new group.
  void ExtractExtreme(std::vector<RTreeEntry>* set, int axis, bool take_max) {
    const size_t k = std::min<size_t>(cap_, set->size());
    auto cmp = [axis, take_max](const RTreeEntry& a, const RTreeEntry& b) {
      if (take_max) return a.box.hi()[axis] > b.box.hi()[axis];
      return a.box.lo()[axis] < b.box.lo()[axis];
    };
    std::nth_element(set->begin(), set->begin() + (k - 1), set->end(), cmp);
    groups_->emplace_back(set->begin(), set->begin() + k);
    set->erase(set->begin(), set->begin() + k);
  }

  uint32_t cap_;
  std::vector<std::vector<RTreeEntry>>* groups_;
};

}  // namespace

RTree BulkloadPrTree(PageFile* file, std::vector<RTreeEntry> entries) {
  if (entries.empty()) return RTree();
  const uint32_t capacity = NodeCapacity(file->page_size());

  uint8_t level = 0;
  while (true) {
    std::vector<std::vector<RTreeEntry>> groups;
    PrLevelBuilder builder(capacity, &groups);
    builder.Build(std::move(entries), /*depth=*/0);

    const PageCategory category =
        level == 0 ? PageCategory::kRTreeLeaf : PageCategory::kRTreeInternal;
    std::vector<RTreeEntry> parents;
    parents.reserve(groups.size());
    for (const std::vector<RTreeEntry>& group : groups) {
      PageId page = file->Allocate(category);
      NodeWriter writer(file->MutableData(page), file->page_size());
      writer.Init(level);
      Aabb bounds;
      for (const RTreeEntry& e : group) {
        writer.Append(e);
        bounds.ExpandToInclude(e.box);
      }
      parents.push_back(RTreeEntry{bounds, page});
    }

    if (parents.size() == 1) {
      return RTree(file, static_cast<PageId>(parents.front().id), level + 1);
    }
    entries = std::move(parents);
    ++level;
  }
}

namespace {

// --- Top-down Greedy Split --------------------------------------------------
//
// Recursively splits the entry range in two at a page-aligned boundary,
// choosing the (axis, boundary) pair minimizing the sum of the two bounding
// volumes; leaves of the recursion are single pages. Pages are emitted in
// recursion order and upper levels are STR-packed.
void TgsSplit(std::vector<RTreeEntry>& entries, size_t begin, size_t end,
              uint32_t cap, std::vector<std::pair<size_t, size_t>>* pages) {
  const size_t n = end - begin;
  if (n <= cap) {
    pages->emplace_back(begin, end);
    return;
  }

  // Candidate boundaries are multiples of the page capacity so that all
  // pages except possibly the last stay full (full pages are what make
  // bulkloaded trees beat dynamically-built ones — Section VII).
  const size_t num_pages = (n + cap - 1) / cap;

  double best_cost = std::numeric_limits<double>::infinity();
  int best_axis = 0;
  size_t best_split = begin + (num_pages / 2) * cap;

  std::vector<RTreeEntry> scratch(entries.begin() + begin,
                                  entries.begin() + end);
  for (int axis = 0; axis < 3; ++axis) {
    std::sort(scratch.begin(), scratch.end(),
              [axis](const RTreeEntry& a, const RTreeEntry& b) {
                return a.box.Center()[axis] < b.box.Center()[axis];
              });
    // Prefix/suffix bounding boxes at page-aligned cuts.
    std::vector<Aabb> prefix(scratch.size());
    Aabb running;
    for (size_t i = 0; i < scratch.size(); ++i) {
      running.ExpandToInclude(scratch[i].box);
      prefix[i] = running;
    }
    Aabb suffix;
    std::vector<Aabb> suffixes(scratch.size());
    for (size_t i = scratch.size(); i-- > 0;) {
      suffix.ExpandToInclude(scratch[i].box);
      suffixes[i] = suffix;
    }
    for (size_t p = 1; p < num_pages; ++p) {
      const size_t cut = p * cap;
      if (cut >= scratch.size()) break;
      const double cost =
          prefix[cut - 1].Volume() + suffixes[cut].Volume();
      if (cost < best_cost) {
        best_cost = cost;
        best_axis = axis;
        best_split = begin + cut;
      }
    }
  }

  std::sort(entries.begin() + begin, entries.begin() + end,
            [best_axis](const RTreeEntry& a, const RTreeEntry& b) {
              return a.box.Center()[best_axis] < b.box.Center()[best_axis];
            });
  TgsSplit(entries, begin, best_split, cap, pages);
  TgsSplit(entries, best_split, end, cap, pages);
}

}  // namespace

RTree BulkloadTgs(PageFile* file, std::vector<RTreeEntry> entries) {
  if (entries.empty()) return RTree();
  const uint32_t capacity = NodeCapacity(file->page_size());

  std::vector<std::pair<size_t, size_t>> pages;
  TgsSplit(entries, 0, entries.size(), capacity, &pages);

  std::vector<RTreeEntry> parents;
  parents.reserve(pages.size());
  for (const auto& [begin, end] : pages) {
    PageId page = file->Allocate(PageCategory::kRTreeLeaf);
    NodeWriter writer(file->MutableData(page), file->page_size());
    writer.Init(/*level=*/0);
    Aabb bounds;
    for (size_t i = begin; i < end; ++i) {
      writer.Append(entries[i]);
      bounds.ExpandToInclude(entries[i].box);
    }
    parents.push_back(RTreeEntry{bounds, page});
  }
  if (parents.size() == 1) {
    return RTree(file, static_cast<PageId>(parents.front().id), 1);
  }
  return BuildUpperLevels(file, std::move(parents), /*level=*/1,
                          LevelOrder::kStr);
}

RTree Bulkload(PageFile* file, std::vector<RTreeEntry> entries,
               BulkloadStrategy strategy) {
  switch (strategy) {
    case BulkloadStrategy::kStr:
      return BulkloadStr(file, std::move(entries));
    case BulkloadStrategy::kHilbert:
      return BulkloadHilbert(file, std::move(entries));
    case BulkloadStrategy::kMorton:
      return BulkloadMorton(file, std::move(entries));
    case BulkloadStrategy::kPrTree:
      return BulkloadPrTree(file, std::move(entries));
    case BulkloadStrategy::kTgs:
      return BulkloadTgs(file, std::move(entries));
  }
  return RTree();
}

}  // namespace flat

#include "rtree/rstar_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "rtree/node.h"

namespace flat {
namespace {

// R* reinserts the 30 % of entries farthest from the node center.
constexpr double kReinsertFraction = 0.3;

std::vector<RTreeEntry> CollectEntries(const char* data) {
  NodeView node(data);
  std::vector<RTreeEntry> entries;
  entries.reserve(node.count());
  for (uint16_t i = 0; i < node.count(); ++i) {
    entries.push_back(node.EntryAt(i));
  }
  return entries;
}

void RewriteNode(char* data, uint32_t page_size, uint8_t level,
                 const std::vector<RTreeEntry>& entries) {
  NodeWriter writer(data, page_size);
  writer.Init(level);
  for (const RTreeEntry& e : entries) writer.Append(e);
}

}  // namespace

RStarTree::RStarTree(PageFile* file)
    : file_(file),
      capacity_(NodeCapacity(file->page_size())),
      min_fill_(std::max<uint32_t>(2, capacity_ * 2 / 5)) {}

Aabb RStarTree::NodeBounds(PageId page) const {
  return NodeView(file_->Data(page)).Bounds();
}

std::vector<RStarTree::PathStep> RStarTree::ChoosePath(const Aabb& box,
                                                       uint8_t target_level) {
  std::vector<PathStep> path;
  path.push_back({root_, -1});
  while (true) {
    NodeView node(file_->Data(path.back().page));
    if (node.level() == target_level) return path;

    int best = 0;
    if (node.level() == 1) {
      // Children are leaves: minimize overlap enlargement (ties: volume
      // enlargement, then volume).
      double best_overlap_delta = std::numeric_limits<double>::infinity();
      double best_enlargement = std::numeric_limits<double>::infinity();
      double best_volume = std::numeric_limits<double>::infinity();
      for (uint16_t i = 0; i < node.count(); ++i) {
        const Aabb child = node.BoxAt(i);
        const Aabb grown = Aabb::Union(child, box);
        double overlap_before = 0.0;
        double overlap_after = 0.0;
        for (uint16_t j = 0; j < node.count(); ++j) {
          if (j == i) continue;
          const Aabb other = node.BoxAt(j);
          overlap_before += child.OverlapVolume(other);
          overlap_after += grown.OverlapVolume(other);
        }
        const double overlap_delta = overlap_after - overlap_before;
        const double enlargement = child.Enlargement(box);
        const double volume = child.Volume();
        if (overlap_delta < best_overlap_delta ||
            (overlap_delta == best_overlap_delta &&
             (enlargement < best_enlargement ||
              (enlargement == best_enlargement && volume < best_volume)))) {
          best_overlap_delta = overlap_delta;
          best_enlargement = enlargement;
          best_volume = volume;
          best = i;
        }
      }
    } else {
      // Minimize volume enlargement (ties: volume).
      double best_enlargement = std::numeric_limits<double>::infinity();
      double best_volume = std::numeric_limits<double>::infinity();
      for (uint16_t i = 0; i < node.count(); ++i) {
        const Aabb child = node.BoxAt(i);
        const double enlargement = child.Enlargement(box);
        const double volume = child.Volume();
        if (enlargement < best_enlargement ||
            (enlargement == best_enlargement && volume < best_volume)) {
          best_enlargement = enlargement;
          best_volume = volume;
          best = i;
        }
      }
    }
    path.push_back({static_cast<PageId>(node.IdAt(best)), best});
  }
}

void RStarTree::Insert(const RTreeEntry& entry) {
  if (root_ == kInvalidPageId) {
    root_ = file_->Allocate(PageCategory::kRTreeLeaf);
    NodeWriter writer(file_->MutableData(root_), file_->page_size());
    writer.Init(/*level=*/0);
    writer.Append(entry);
    height_ = 1;
    size_ = 1;
    return;
  }
  reinserted_on_level_.assign(height_, false);
  InsertAtLevel(entry, /*target_level=*/0);
  ++size_;
}

void RStarTree::InsertAtLevel(const RTreeEntry& entry, uint8_t target_level) {
  std::vector<PathStep> path = ChoosePath(entry.box, target_level);
  const PageId page = path.back().page;
  NodeWriter writer(file_->MutableData(page), file_->page_size());
  if (!writer.Full()) {
    writer.Append(entry);
    AdjustUpward(path);
    return;
  }
  OverflowTreatment(std::move(path), entry, target_level);
}

void RStarTree::OverflowTreatment(std::vector<PathStep> path,
                                  const RTreeEntry& extra, uint8_t level) {
  const bool is_root = path.size() == 1;
  if (!is_root && level < reinserted_on_level_.size() &&
      !reinserted_on_level_[level]) {
    reinserted_on_level_[level] = true;
    ForcedReinsert(std::move(path), extra, level);
  } else {
    Split(std::move(path), extra, level);
  }
}

void RStarTree::ForcedReinsert(std::vector<PathStep> path,
                               const RTreeEntry& extra, uint8_t level) {
  const PageId page = path.back().page;
  std::vector<RTreeEntry> entries = CollectEntries(file_->Data(page));
  entries.push_back(extra);

  const Vec3 center = BoundsOf(entries).Center();
  std::sort(entries.begin(), entries.end(),
            [&center](const RTreeEntry& a, const RTreeEntry& b) {
              return (a.box.Center() - center).SquaredNorm() <
                     (b.box.Center() - center).SquaredNorm();
            });

  const size_t reinsert_count = std::max<size_t>(
      1, static_cast<size_t>(entries.size() * kReinsertFraction));
  std::vector<RTreeEntry> reinsert(entries.end() - reinsert_count,
                                   entries.end());
  entries.resize(entries.size() - reinsert_count);

  RewriteNode(file_->MutableData(page), file_->page_size(), level, entries);
  AdjustUpward(path);

  for (const RTreeEntry& e : reinsert) {
    InsertAtLevel(e, level);
  }
}

void RStarTree::Split(std::vector<PathStep> path, const RTreeEntry& extra,
                      uint8_t level) {
  const PageId page = path.back().page;
  std::vector<RTreeEntry> entries = CollectEntries(file_->Data(page));
  entries.push_back(extra);
  const size_t total = entries.size();

  // ChooseSplitAxis: the axis minimizing the margin sum over all candidate
  // distributions of both boundary sorts.
  int best_axis = 0;
  double best_margin_sum = std::numeric_limits<double>::infinity();
  for (int axis = 0; axis < 3; ++axis) {
    for (int use_hi = 0; use_hi < 2; ++use_hi) {
      std::sort(entries.begin(), entries.end(),
                [axis, use_hi](const RTreeEntry& a, const RTreeEntry& b) {
                  return use_hi ? a.box.hi()[axis] < b.box.hi()[axis]
                                : a.box.lo()[axis] < b.box.lo()[axis];
                });
      double margin_sum = 0.0;
      for (size_t k = min_fill_; k <= total - min_fill_; ++k) {
        Aabb left, right;
        for (size_t i = 0; i < k; ++i) left.ExpandToInclude(entries[i].box);
        for (size_t i = k; i < total; ++i) {
          right.ExpandToInclude(entries[i].box);
        }
        margin_sum += left.Margin() + right.Margin();
      }
      if (margin_sum < best_margin_sum) {
        best_margin_sum = margin_sum;
        best_axis = axis;
      }
    }
  }

  // ChooseSplitIndex on the winning axis (lo-sort; the classic algorithm
  // considers both sorts — using the lower boundary keeps this O(M log M)
  // and differs negligibly): minimum overlap, ties by minimum total volume.
  std::sort(entries.begin(), entries.end(),
            [best_axis](const RTreeEntry& a, const RTreeEntry& b) {
              return a.box.lo()[best_axis] < b.box.lo()[best_axis];
            });
  size_t best_split = min_fill_;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_volume = std::numeric_limits<double>::infinity();
  for (size_t k = min_fill_; k <= total - min_fill_; ++k) {
    Aabb left, right;
    for (size_t i = 0; i < k; ++i) left.ExpandToInclude(entries[i].box);
    for (size_t i = k; i < total; ++i) right.ExpandToInclude(entries[i].box);
    const double overlap = left.OverlapVolume(right);
    const double volume = left.Volume() + right.Volume();
    if (overlap < best_overlap ||
        (overlap == best_overlap && volume < best_volume)) {
      best_overlap = overlap;
      best_volume = volume;
      best_split = k;
    }
  }

  std::vector<RTreeEntry> left(entries.begin(), entries.begin() + best_split);
  std::vector<RTreeEntry> right(entries.begin() + best_split, entries.end());

  RewriteNode(file_->MutableData(page), file_->page_size(), level, left);
  const PageCategory category =
      level == 0 ? PageCategory::kRTreeLeaf : PageCategory::kRTreeInternal;
  const PageId new_page = file_->Allocate(category);
  RewriteNode(file_->MutableData(new_page), file_->page_size(), level, right);

  if (path.size() == 1) {
    // Root split: grow the tree.
    const PageId new_root = file_->Allocate(PageCategory::kRTreeInternal);
    NodeWriter writer(file_->MutableData(new_root), file_->page_size());
    writer.Init(static_cast<uint8_t>(level + 1));
    writer.Append(RTreeEntry{BoundsOf(left), page});
    writer.Append(RTreeEntry{BoundsOf(right), new_page});
    root_ = new_root;
    ++height_;
    reinserted_on_level_.resize(height_, true);
    return;
  }

  // Update the parent's slot for the shrunk node, then add the new sibling.
  path.pop_back();
  const PageId parent = path.back().page;
  {
    NodeWriter writer(file_->MutableData(parent), file_->page_size());
    // Find the slot pointing at `page` (the recorded slot index is stable,
    // but re-deriving it is robust against earlier sibling splits).
    for (uint16_t i = 0; i < writer.count(); ++i) {
      if (writer.EntryAt(i).id == page) {
        writer.SetEntry(i, RTreeEntry{BoundsOf(left), page});
        break;
      }
    }
  }
  AdjustUpward(path);

  NodeWriter parent_writer(file_->MutableData(parent), file_->page_size());
  const RTreeEntry sibling{BoundsOf(right), new_page};
  if (!parent_writer.Full()) {
    parent_writer.Append(sibling);
    AdjustUpward(path);
  } else {
    OverflowTreatment(std::move(path), sibling,
                      static_cast<uint8_t>(level + 1));
  }
}

void RStarTree::AdjustUpward(const std::vector<PathStep>& path) {
  for (size_t i = path.size(); i-- > 1;) {
    const PageId child = path[i].page;
    const PageId parent = path[i - 1].page;
    const Aabb bounds = NodeBounds(child);
    NodeWriter writer(file_->MutableData(parent), file_->page_size());
    for (uint16_t s = 0; s < writer.count(); ++s) {
      if (writer.EntryAt(s).id == child) {
        writer.SetEntry(s, RTreeEntry{bounds, child});
        break;
      }
    }
  }
}

}  // namespace flat

#include "core/tile_directory.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace flat {
namespace {

/// Byte 3 of every directory page, where node pages keep their NodeFormat
/// (0, exact; 1 is retired) and seed leaves their record format (4): no
/// reader of one can take it for another.
constexpr uint8_t kDirectoryFormat = 2;

/// Page header. `page_count` and `bounds` are meaningful on the root only.
struct DirectoryHeader {
  uint16_t slots = 0;  ///< slots in use on this page
  uint8_t level = 0;   ///< zero
  uint8_t format = kDirectoryFormat;
  uint32_t page_count = 0;  ///< pages in the directory, root first
  PackedAabb bounds{};      ///< union of the stored tiles
};
static_assert(sizeof(DirectoryHeader) == 32);

constexpr size_t kSlotSize = 8;  // f32 key + u32 value

// Capped so a page's slot count fits the header's u16.
uint32_t SlotsPerPage(uint32_t page_size) {
  return static_cast<uint32_t>(std::min<size_t>(
      (page_size - sizeof(DirectoryHeader)) / kSlotSize, UINT16_MAX));
}

struct Slot {
  float key;
  uint32_t value;
};

Slot SlotAt(const char* page, uint32_t i) {
  Slot slot;
  const char* at = page + sizeof(DirectoryHeader) + i * kSlotSize;
  std::memcpy(&slot.key, at, sizeof(slot.key));
  std::memcpy(&slot.value, at + sizeof(slot.key), sizeof(slot.value));
  return slot;
}

void SetSlot(char* page, uint32_t i, Slot slot) {
  char* at = page + sizeof(DirectoryHeader) + i * kSlotSize;
  std::memcpy(at, &slot.key, sizeof(slot.key));
  std::memcpy(at + sizeof(slot.key), &slot.value, sizeof(slot.value));
}

DirectoryHeader HeaderOf(const char* page) {
  DirectoryHeader header;
  std::memcpy(&header, page, sizeof(header));
  if (header.format != kDirectoryFormat) {
    throw std::runtime_error("tile directory: page is not a directory page");
  }
  return header;
}

[[noreturn]] void Corrupt() {
  throw std::runtime_error("tile directory: malformed group");
}

}  // namespace

PageId WriteTileDirectory(PageFile* file,
                          const std::vector<PartitionInfo>& partitions,
                          const std::vector<RecordRef>& refs) {
  // The slab group, then a run group per slab, then a page group per run
  // (from index `first_page_group` on). A slab's or run's value is first
  // the index of its child group, then that group's slot position.
  std::vector<std::vector<Slot>> groups(1);
  std::vector<std::vector<Slot>> page_groups;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  PackedAabb bounds = {{kInf, kInf, kInf}, {-kInf, -kInf, -kInf}};
  uint32_t slab = UINT32_MAX;
  uint32_t run = UINT32_MAX;
  for (size_t i = 0; i < partitions.size(); ++i) {
    const PartitionInfo& p = partitions[i];
    const PackedAabb tile = PackedAabb::FromAabb(p.tile);
    if (tile.ToAabb().IsEmpty()) continue;
    for (int axis = 0; axis < 3; ++axis) {
      bounds.lo[axis] = std::min(bounds.lo[axis], tile.lo[axis]);
      bounds.hi[axis] = std::max(bounds.hi[axis], tile.hi[axis]);
    }
    if (p.slab != slab) {
      groups.front().push_back(
          {tile.lo[0], static_cast<uint32_t>(groups.size())});
      groups.emplace_back();
      slab = p.slab;
    }
    if (p.run != run) {
      groups.back().push_back(
          {tile.lo[1], static_cast<uint32_t>(page_groups.size())});
      page_groups.emplace_back();
      run = p.run;
    }
    page_groups.back().push_back({tile.lo[2], PackNeighborRef(refs[i])});
  }
  // Run values become indexes into `groups`, where the page groups follow.
  const size_t first_page_group = groups.size();
  for (size_t g = 1; g < first_page_group; ++g) {
    for (Slot& slot : groups[g]) {
      slot.value += static_cast<uint32_t>(first_page_group);
    }
  }
  groups.insert(groups.end(), std::make_move_iterator(page_groups.begin()),
                std::make_move_iterator(page_groups.end()));

  // Slot positions: groups in order, each on the page where the previous
  // one ends unless it would straddle that page's end.
  const uint64_t per_page = SlotsPerPage(file->page_size());
  std::vector<uint64_t> at(groups.size());
  uint64_t pos = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    const uint64_t size = groups[g].size() + 1;
    if (size > per_page) {
      throw std::runtime_error(
          "FlatIndex::Build: a tile-directory group of " +
          std::to_string(size) + " slots outgrows a page of " +
          std::to_string(per_page) +
          "; use a larger page size or shard the data set");
    }
    if (pos % per_page + size > per_page) pos += per_page - pos % per_page;
    at[g] = pos;
    pos += size;
  }
  if (pos > UINT32_MAX) {
    throw std::runtime_error(
        "FlatIndex::Build: the tile directory outgrows its u32 slot "
        "positions; shard the data set");
  }
  for (size_t g = 0; g < first_page_group; ++g) {
    for (Slot& slot : groups[g]) {
      slot.value = static_cast<uint32_t>(at[slot.value]);
    }
  }

  const uint64_t pages = (pos + per_page - 1) / per_page;
  std::vector<PageId> ids(pages);
  for (PageId& id : ids) id = file->Allocate(PageCategory::kSeedInternal);
  DirectoryHeader root;
  root.page_count = static_cast<uint32_t>(pages);
  root.bounds = bounds;
  for (const PageId id : ids) {
    const DirectoryHeader header =
        id == ids.front() ? root : DirectoryHeader{};
    std::memcpy(file->MutableData(id), &header, sizeof(header));
  }
  // Groups go in ascending position, so the last one on a page sets the
  // page's slot count.
  for (size_t g = 0; g < groups.size(); ++g) {
    char* page = file->MutableData(ids[at[g] / per_page]);
    const auto first = static_cast<uint32_t>(at[g] % per_page);
    SetSlot(page, first, {0.0f, static_cast<uint32_t>(groups[g].size())});
    for (size_t i = 0; i < groups[g].size(); ++i) {
      SetSlot(page, first + 1 + static_cast<uint32_t>(i), groups[g][i]);
    }
    const auto used = static_cast<uint16_t>(first + 1 + groups[g].size());
    std::memcpy(page + offsetof(DirectoryHeader, slots), &used, sizeof(used));
  }
  return ids.front();
}

std::optional<RecordRef> LocateTile(PageCache* pool, const PageStore& file,
                                    PageId root, const Aabb& query) {
  const char* page = pool->Read(root);
  const DirectoryHeader top = HeaderOf(page);
  if (top.page_count == 0 || top.page_count > file.page_count() - root) {
    throw std::runtime_error("tile directory: page count outside the file");
  }
  const Aabb bounds = top.bounds.ToAabb();
  if (!query.Intersects(bounds)) return std::nullopt;
  Vec3 point;
  for (int axis = 0; axis < 3; ++axis) {
    point.At(axis) =
        std::midpoint(std::max(query.lo()[axis], bounds.lo()[axis]),
                      std::min(query.hi()[axis], bounds.hi()[axis]));
  }

  const uint64_t per_page = SlotsPerPage(file.page_size());
  uint16_t used = top.slots;
  PageId current = root;
  uint64_t pos = 0;
  for (int axis = 0;; ++axis) {
    const auto id = static_cast<PageId>(root + pos / per_page);
    if (id != current) {
      page = pool->Read(id);
      used = HeaderOf(page).slots;
      current = id;
    }
    const auto first = static_cast<uint32_t>(pos % per_page);
    const uint32_t n = SlotAt(page, first).value;
    if (n == 0 || first + uint64_t{n} >= used) Corrupt();
    // The last slot whose key is at most the point's coordinate; the first
    // when none is (a point below the bounds on this axis cannot occur).
    uint32_t lo = 1;
    uint32_t hi = n + 1;
    while (hi - lo > 1) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (SlotAt(page, first + mid).key <= point[axis]) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    const uint32_t value = SlotAt(page, first + lo).value;
    if (axis == 2) {
      const RecordRef ref = UnpackNeighborRef(value);
      if (ref.page >= file.page_count()) Corrupt();
      return ref;
    }
    pos = value;
    if (pos >= top.page_count * per_page) Corrupt();
  }
}

}  // namespace flat

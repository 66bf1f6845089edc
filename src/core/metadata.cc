#include "core/metadata.h"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

namespace flat {
namespace {

[[noreturn]] void ThrowBadSeedLeaf(PageId page, const std::string& what) {
  throw std::runtime_error("FlatIndex: seed leaf page " +
                           std::to_string(page) + " " + what);
}

}  // namespace

HintGrid::HintGrid(const Aabb& tile) : tile_(tile) {
  for (int axis = 0; axis < 3; ++axis) {
    const double lo = tile.lo()[axis];
    const double hi = tile.hi()[axis];
    const double extent = hi - lo;
    double* points = points_[axis];
    points[0] = lo;
    points[4] = hi;
    for (int k = 1; k < 4; ++k) {
      points[k] = std::isfinite(extent)
                      ? lo + extent * (0.25 * k)
                      : std::numeric_limits<double>::quiet_NaN();
    }
  }
}

uint16_t HintGrid::Encode(const Aabb& tile, const Aabb& page) const {
  const Aabb box = Aabb::Union(Aabb::Intersection(tile_, tile),
                               Aabb::Intersection(tile_, page));
  if (box.IsEmpty()) return kEmptyHint;
  // box lies in tile_, so points 4 and 0 always qualify: the upper index is
  // the smallest k >= 1 whose point is at or above the box, and the lower
  // the largest k <= min(3, upper) whose point is at or below it.
  uint16_t hint = 0;
  for (int axis = 0; axis < 3; ++axis) {
    const double* points = points_[axis];
    unsigned h = 1;
    while (h < 4 && !(points[h] >= box.hi()[axis])) ++h;
    unsigned l = h < 3 ? h : 3;
    while (l > 0 && !(points[l] <= box.lo()[axis])) --l;
    hint |= static_cast<uint16_t>((l | ((h - 1) << 2)) << (4 * axis));
  }
  return hint;
}

SeedLeafView::SeedLeafView(const char* data, uint32_t page_size, PageId page)
    : data_(data), page_size_(page_size), page_(page) {
  std::memcpy(&count_, data, sizeof(count_));
  const uint8_t format = static_cast<uint8_t>(data[3]);
  if (format != kSeedLeafFormat) {
    ThrowBadSeedLeaf(page, "has record format " + std::to_string(format) +
                               "; only format " +
                               std::to_string(kSeedLeafFormat) +
                               " is readable");
  }
}

MetadataRecordView SeedLeafView::RecordAt(uint16_t slot) const {
  const uint64_t directory_end =
      kSeedLeafHeaderSize + uint64_t{count_} * kSlotDirEntrySize;
  if (slot >= count_ || directory_end + kRecordFixedSize > page_size_) {
    ThrowBadSeedLeaf(page_, "has no record in slot " + std::to_string(slot) +
                                " (it holds " + std::to_string(count_) +
                                " records)");
  }
  uint16_t offset;
  std::memcpy(&offset, data_ + kSeedLeafHeaderSize + slot * kSlotDirEntrySize,
              sizeof(offset));
  if (offset < directory_end || offset + kRecordFixedSize > page_size_) {
    ThrowBadSeedLeaf(page_, "places record " + std::to_string(slot) +
                                " at byte " + std::to_string(offset) +
                                ", outside its record area");
  }
  const MetadataRecordView record(data_ + offset);
  if (offset + record.size() > page_size_) {
    ThrowBadSeedLeaf(page_, "record " + std::to_string(slot) +
                                " ends at byte " +
                                std::to_string(offset + record.size()) +
                                ", past the page size " +
                                std::to_string(page_size_));
  }
  return record;
}

void WriteSeedLeaf(char* data, uint32_t page_size,
                   const std::vector<MetadataRecordDraft>& records) {
  assert(records.size() < kMaxRecordsPerLeaf);
  const uint16_t count = static_cast<uint16_t>(records.size());
  std::memcpy(data, &count, sizeof(count));
  data[3] = static_cast<char>(kSeedLeafFormat);

  size_t offset = kSeedLeafHeaderSize + records.size() * kSlotDirEntrySize;
  for (size_t slot = 0; slot < records.size(); ++slot) {
    const MetadataRecordDraft& record = records[slot];
    assert(record.hints.size() == record.cross_leaf.size());
    const uint16_t off16 = static_cast<uint16_t>(offset);
    std::memcpy(data + kSeedLeafHeaderSize + slot * kSlotDirEntrySize, &off16,
                sizeof(off16));

    char* p = data + offset;
    const PackedAabb page_mbr = PackedAabb::FromAabb(record.page_mbr);
    const PackedAabb tile = PackedAabb::FromAabb(record.tile);
    std::memcpy(p, &page_mbr, sizeof(page_mbr));
    std::memcpy(p + sizeof(PackedAabb), &tile, sizeof(tile));
    const uint32_t object_page = record.object_page;
    std::memcpy(p + 2 * sizeof(PackedAabb), &object_page,
                sizeof(object_page));
    const uint16_t counts[2] = {
        static_cast<uint16_t>(record.same_leaf.size()),
        static_cast<uint16_t>(record.cross_leaf.size())};
    std::memcpy(p + 2 * sizeof(PackedAabb) + 4, counts, sizeof(counts));
    p += kRecordFixedSize;
    for (const uint16_t same : record.same_leaf) {
      assert(same < records.size());
      std::memcpy(p, &same, sizeof(same));
      p += kSameLeafRefSize;
    }
    for (const RecordRef& ref : record.cross_leaf) {
      assert(ref.page < kMaxSeedLeafPages);
      assert(ref.slot < kMaxRecordsPerLeaf);
      const uint32_t packed = PackNeighborRef(ref);
      std::memcpy(p, &packed, sizeof(packed));
      p += kNeighborRefSize;
    }
    auto* hints = reinterpret_cast<unsigned char*>(p);
    std::memset(hints, 0, HintBytes(record.hints.size()));
    for (size_t i = 0; i < record.hints.size(); ++i) {
      const unsigned hint = record.hints[i] & 0xfff;
      unsigned char* b = hints + 3 * (i / 2);
      if (i % 2 == 0) {
        b[0] = static_cast<unsigned char>(hint);
        b[1] |= static_cast<unsigned char>(hint >> 8);
      } else {
        b[1] |= static_cast<unsigned char>(hint << 4);
        b[2] = static_cast<unsigned char>(hint >> 4);
      }
    }
    offset += RecordFootprint(record.same_leaf.size(),
                              record.cross_leaf.size()) -
              kSlotDirEntrySize;
    assert(offset <= page_size);
  }
  (void)page_size;
}

}  // namespace flat

#include "core/metadata.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace flat {
namespace {

[[noreturn]] void ThrowBadSeedLeaf(PageId page, const std::string& what) {
  throw std::runtime_error("FlatIndex: seed leaf page " +
                           std::to_string(page) + " " + what);
}

void StoreU16Box(char* p, const GridBox& code) {
  const uint16_t v[6] = {
      static_cast<uint16_t>(code.lo[0]), static_cast<uint16_t>(code.lo[1]),
      static_cast<uint16_t>(code.lo[2]), static_cast<uint16_t>(code.hi[0]),
      static_cast<uint16_t>(code.hi[1]), static_cast<uint16_t>(code.hi[2])};
  std::memcpy(p, v, sizeof(v));
}

void StoreU8Box(char* p, const GridBox& code) {
  for (int axis = 0; axis < 3; ++axis) {
    p[axis] = static_cast<char>(code.lo[axis]);
    p[3 + axis] = static_cast<char>(code.hi[axis]);
  }
}

// The first k in [first, last] for which pred(k) holds, where pred is false
// and then true over the range and holds at `last`. Probes `guess` and its
// neighbor first, which settles the answer when the guess is right or one
// off, and bisects what remains otherwise.
template <typename Pred>
uint32_t FirstTrue(uint32_t first, uint32_t last, uint32_t guess,
                   const Pred& pred) {
  guess = std::clamp(guess, first, last);
  if (pred(guess)) {
    if (guess == first || !pred(guess - 1)) return guess;
    last = guess - 1;
  } else {
    first = guess + 1;
    if (pred(first)) return first;
  }
  while (first < last) {
    const uint32_t mid = first + (last - first) / 2;
    if (pred(mid)) {
      last = mid;
    } else {
      first = mid + 1;
    }
  }
  return first;
}

// Where `v` falls on a grid axis from `lo` with step extent / cells, as a
// guess for FirstTrue: any value works, a close one saves the bisection.
uint32_t GuessIndex(double v, double lo, double extent, uint32_t cells) {
  const double t = (v - lo) / extent * cells;
  return t >= 0 && t <= cells ? static_cast<uint32_t>(t) : 0;
}

}  // namespace

GridBox QuantGrid::Encode(const Aabb& box) const {
  const Aabb b = Aabb::Intersection(frame(), box);
  GridBox code;
  if (b.IsEmpty()) {
    for (int axis = 0; axis < 3; ++axis) {
      code.lo[axis] = cells_ - 1;
      code.hi[axis] = 1;
    }
    return code;
  }
  // b lies in the frame, so points `cells` and 0 always qualify, and the
  // inner points rise with k. The upper index is the smallest k >= 1 whose
  // point is at or above the box, and the lower the largest k <= min(cells
  // - 1, upper) whose point is at or below it (NaN inner points qualify for
  // neither).
  for (int axis = 0; axis < 3; ++axis) {
    const double hi = b.hi()[axis];
    const double lo = b.lo()[axis];
    const uint32_t upper = FirstTrue(
        1, cells_, GuessIndex(hi, lo_[axis], extent_[axis], cells_) + 1,
        [&](uint32_t k) { return k == cells_ || Point(axis, k) >= hi; });
    const uint32_t last = std::min(cells_ - 1, upper);
    code.hi[axis] = upper;
    code.lo[axis] =
        FirstTrue(1, last + 1,
                  GuessIndex(lo, lo_[axis], extent_[axis], cells_) + 1,
                  [&](uint32_t k) {
                    return k > last || !(Point(axis, k) <= lo);
                  }) -
        1;
  }
  return code;
}

uint16_t HintGrid::Encode(const Aabb& tile, const Aabb& page) const {
  const Aabb own = grid_.frame();
  const GridBox code = grid_.Encode(Aabb::Union(
      Aabb::Intersection(own, tile), Aabb::Intersection(own, page)));
  uint16_t hint = 0;
  for (int axis = 0; axis < 3; ++axis) {
    hint |= static_cast<uint16_t>((code.lo[axis] | ((code.hi[axis] - 1) << 2))
                                  << (4 * axis));
  }
  return hint;
}

void HalfPageBoxes(const RTreeEntry* entries, size_t n, Aabb halves[2]) {
  const size_t first = (n + 1) / 2;
  halves[0] = Aabb();
  halves[1] = Aabb();
  for (size_t i = 0; i < n; ++i) {
    if (CanMeet(entries[i].box)) {
      halves[i < first ? 0 : 1].ExpandToInclude(entries[i].box);
    }
  }
}

SeedLeafView::SeedLeafView(const char* data, uint32_t page_size, PageId page)
    : data_(data),
      page_size_(page_size),
      page_(page),
      frame_([data] {
        PackedAabb frame;
        std::memcpy(&frame, data + 8, sizeof(frame));
        return QuantGrid(frame.ToAabb(), kRecordCells);
      }()) {
  std::memcpy(&count_, data, sizeof(count_));
  std::memcpy(&first_object_, data + 4, sizeof(first_object_));
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
  const uint64_t fixed = kRecordFixedSize + BitmapBytes(count_);
  if (slot >= count_ || directory_end + fixed > page_size_) {
    ThrowBadSeedLeaf(page_, "has no record in slot " + std::to_string(slot) +
                                " (it holds " + std::to_string(count_) +
                                " records)");
  }
  uint16_t offset;
  std::memcpy(&offset, data_ + kSeedLeafHeaderSize + slot * kSlotDirEntrySize,
              sizeof(offset));
  if (offset < directory_end || offset + fixed > page_size_) {
    ThrowBadSeedLeaf(page_, "places record " + std::to_string(slot) +
                                " at byte " + std::to_string(offset) +
                                ", outside its record area");
  }
  const uint64_t object_page = uint64_t{first_object_} + slot;
  if (object_page >= kInvalidPageId) {
    ThrowBadSeedLeaf(page_, "puts record " + std::to_string(slot) +
                                "'s object page past the last PageId");
  }
  const MetadataRecordView record(data_ + offset, frame_, count_,
                                  static_cast<PageId>(object_page));
  if (offset + record.size() > page_size_) {
    ThrowBadSeedLeaf(page_, "record " + std::to_string(slot) +
                                " ends at byte " +
                                std::to_string(offset + record.size()) +
                                ", past the page size " +
                                std::to_string(page_size_));
  }
  // Only the bitmap's last byte can hold bits at or past the count.
  const unsigned tail = count_ % 8;
  if (tail != 0) {
    const auto last = static_cast<unsigned char>(
        data_[offset + kRecordFixedSize + BitmapBytes(count_) - 1]);
    if ((last >> tail) != 0) {
      ThrowBadSeedLeaf(page_, "record " + std::to_string(slot) +
                                  " links a same-leaf slot at or past the " +
                                  "record count " + std::to_string(count_));
    }
  }
  return record;
}

Aabb SeedLeafFrame(const std::vector<MetadataRecordDraft>& records) {
  Aabb frame;
  for (const MetadataRecordDraft& record : records) {
    frame.ExpandToInclude(PackedAabb::FromAabb(record.tile).ToAabb());
    frame.ExpandToInclude(PackedAabb::FromAabb(record.page_mbr).ToAabb());
  }
  return frame;
}

void WriteSeedLeaf(char* data, uint32_t page_size, PageId first_object_page,
                   const std::vector<MetadataRecordDraft>& records) {
  assert(records.size() < kMaxRecordsPerLeaf);
  const uint16_t count = static_cast<uint16_t>(records.size());
  std::memcpy(data, &count, sizeof(count));
  data[2] = 0;
  data[3] = static_cast<char>(kSeedLeafFormat);
  std::memcpy(data + 4, &first_object_page, sizeof(first_object_page));
  // Every frame value is an f32 already: store it as it is, not rounded
  // outward again.
  const Aabb frame_box = SeedLeafFrame(records);
  PackedAabb frame;
  for (int axis = 0; axis < 3; ++axis) {
    frame.lo[axis] = static_cast<float>(frame_box.lo()[axis]);
    frame.hi[axis] = static_cast<float>(frame_box.hi()[axis]);
  }
  std::memcpy(data + 8, &frame, sizeof(frame));
  const QuantGrid grid(frame.ToAabb(), kRecordCells);
  const size_t bitmap_bytes = BitmapBytes(records.size());

  size_t offset = kSeedLeafHeaderSize + records.size() * kSlotDirEntrySize;
  for (size_t slot = 0; slot < records.size(); ++slot) {
    const MetadataRecordDraft& record = records[slot];
    assert(record.hints.size() == record.cross_leaf.size());
    const uint16_t off16 = static_cast<uint16_t>(offset);
    std::memcpy(data + kSeedLeafHeaderSize + slot * kSlotDirEntrySize, &off16,
                sizeof(off16));

    char* p = data + offset;
    StoreU16Box(p, grid.Encode(PackedAabb::FromAabb(record.tile).ToAabb()));
    const GridBox page_code =
        grid.Encode(PackedAabb::FromAabb(record.page_mbr).ToAabb());
    StoreU16Box(p + 12, page_code);
    const QuantGrid half_grid(grid.Decode(page_code), kHalfCells);
    StoreU8Box(p + 24, half_grid.Encode(record.halves[0]));
    StoreU8Box(p + 30, half_grid.Encode(record.halves[1]));
    const uint16_t cross = static_cast<uint16_t>(record.cross_leaf.size());
    std::memcpy(p + 36, &cross, sizeof(cross));
    p += kRecordFixedSize;
    auto* bitmap = reinterpret_cast<unsigned char*>(p);
    std::memset(bitmap, 0, bitmap_bytes);
    for (const uint16_t same : record.same_leaf) {
      assert(same < records.size());
      bitmap[same / 8] |= static_cast<unsigned char>(1u << (same % 8));
    }
    p += bitmap_bytes;
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
    offset += RecordFootprint(records.size(), record.cross_leaf.size()) -
              kSlotDirEntrySize;
    assert(offset <= page_size);
  }
  (void)page_size;
}

}  // namespace flat

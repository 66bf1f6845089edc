#ifndef FLAT_CORE_METADATA_H_
#define FLAT_CORE_METADATA_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "geometry/aabb.h"
#include "rtree/entry.h"
#include "storage/page.h"

namespace flat {

/// Address of a metadata record: the seed-tree leaf page holding it plus the
/// slot within that page. Neighbor pointers are stored in this form, so
/// following a pointer is a single (usually cached) page read.
struct RecordRef {
  PageId page = kInvalidPageId;
  uint16_t slot = 0;

  bool valid() const { return page != kInvalidPageId; }

  /// Dense key for visited-set bookkeeping during the crawl.
  uint64_t Key() const { return (static_cast<uint64_t>(page) << 16) | slot; }

  bool operator==(const RecordRef& o) const {
    return page == o.page && slot == o.slot;
  }
};

/// On-page neighbor pointer: one u32 packed as page:20 | slot:12, the
/// seed-leaf PageId in the high 20 bits and the record slot in the low 12.
/// Bounds the seed tree to 2^20 leaf pages and 2^12 records per leaf;
/// plenty at any page size this library supports, and half the footprint
/// of a (u32, u16, pad) triple. Matching the paper's
/// space accounting (Section V-B.2 packs "as many records as possible" per
/// leaf) matters: metadata reads during the crawl scale inversely with
/// records-per-leaf.
inline constexpr size_t kNeighborRefSize = 4;
inline constexpr uint32_t kMaxSeedLeafPages = 1u << 20;
inline constexpr uint32_t kMaxRecordsPerLeaf = 1u << 12;

inline uint32_t PackNeighborRef(const RecordRef& ref) {
  return (ref.page << 12) | (ref.slot & 0xfff);
}

inline RecordRef UnpackNeighborRef(uint32_t packed) {
  return RecordRef{packed >> 12, static_cast<uint16_t>(packed & 0xfff)};
}

/// Metadata MBRs are stored as float32 ("for an MBR/axis aligned box it is 6
/// floats/doubles" — Section V-B.3); they are *rounded outward* on write so
/// every intersection decision made from the compressed form is
/// conservative: a float MBR may admit a spurious page read or neighbor
/// expansion but can never miss one. Element MBRs on object pages stay
/// double precision, so results are exact.
struct PackedAabb {
  float lo[3];
  float hi[3];

  static PackedAabb FromAabb(const Aabb& box) {
    PackedAabb p;
    for (int axis = 0; axis < 3; ++axis) {
      p.lo[axis] = std::nextafterf(static_cast<float>(box.lo()[axis]),
                                   -std::numeric_limits<float>::infinity());
      p.hi[axis] = std::nextafterf(static_cast<float>(box.hi()[axis]),
                                   std::numeric_limits<float>::infinity());
    }
    return p;
  }

  Aabb ToAabb() const {
    return Aabb(Vec3(lo[0], lo[1], lo[2]), Vec3(hi[0], hi[1], hi[2]));
  }
};

static_assert(sizeof(PackedAabb) == 24);

/// A box on a QuantGrid: per axis the grid indices of its bounds.
struct GridBox {
  uint32_t lo[3];  ///< grid index of the lower bound, 0..cells
  uint32_t hi[3];  ///< grid index of the upper bound; lo > hi is empty
};

inline constexpr uint32_t kRecordCells = 65535;  // u16 per bound
inline constexpr uint32_t kHalfCells = 255;      // u8 per bound
inline constexpr uint32_t kHintCells = 4;        // 2 bits per bound

/// The outward quantizer of seed-leaf boxes: a box on a grid of `cells`
/// cells per axis over a frame box, each bound rounded outward to a grid
/// point (the CR-tree's relative quantized MBR; Kim, Cha and Kwon, SIGMOD
/// 2001). Three grids use it: a record's tile and page MBR on its leaf's
/// frame (kRecordCells), the half-page boxes on the record's decoded page
/// MBR (kHalfCells), and a cross-leaf pointer's hint on the owner's decoded
/// tile (kHintCells). Grid point k of an axis, k = 0..cells, is the frame's
/// lower bound at 0, its upper bound at `cells` and lo + extent * (k *
/// (1 / cells)) between; an axis whose extent is not finite has no inner
/// points (they are NaN), so every box codes that whole axis. Encode and
/// Decode both go through Point, so a decoded box holds what was encoded
/// in the reader's own arithmetic.
class QuantGrid {
 public:
  QuantGrid(const Aabb& frame, uint32_t cells)
      : inv_cells_(1.0 / cells), cells_(cells) {
    for (int axis = 0; axis < 3; ++axis) {
      lo_[axis] = frame.lo()[axis];
      hi_[axis] = frame.hi()[axis];
      const double extent = hi_[axis] - lo_[axis];
      extent_[axis] = std::isfinite(extent)
                          ? extent
                          : std::numeric_limits<double>::quiet_NaN();
    }
  }

  double Point(int axis, uint32_t k) const {
    if (k == 0) return lo_[axis];
    if (k >= cells_) return hi_[axis];
    return lo_[axis] + extent_[axis] * (static_cast<double>(k) * inv_cells_);
  }

  Aabb frame() const {
    return Aabb(Vec3(lo_[0], lo_[1], lo_[2]), Vec3(hi_[0], hi_[1], hi_[2]));
  }

  /// The smallest grid box holding box ∩ frame, or the empty code (lower
  /// index cells - 1, upper 1 on every axis) when that is empty or NaN.
  GridBox Encode(const Aabb& box) const;

  Aabb Decode(const GridBox& code) const {
    double lo[3];
    double hi[3];
    for (int axis = 0; axis < 3; ++axis) {
      if (code.lo[axis] > code.hi[axis]) return Aabb();
      lo[axis] = Point(axis, code.lo[axis]);
      hi[axis] = Point(axis, code.hi[axis]);
    }
    return Aabb(Vec3(lo[0], lo[1], lo[2]), Vec3(hi[0], hi[1], hi[2]));
  }

 private:
  double lo_[3];
  double hi_[3];
  double extent_[3];  // NaN when not finite
  double inv_cells_;
  uint32_t cells_;
};

/// A cross-leaf neighbor pointer's hint: a box on the kHintCells grid of
/// the owning record's decoded tile, 2 bits per bound. Per axis a (bits
/// 4a..) the low two bits are the lower index l in 0..3 and the next two
/// hold h - 1 for the upper index h in 1..4. kEmptyHint is the empty code.
inline constexpr uint16_t kEmptyHint = 0x333;

/// The hint grid of a record with decoded tile `tile`: the QuantGrid at
/// kHintCells cells, with its five points per axis in a table, since the
/// crawl decodes every hint of a record it expands.
class HintGrid {
 public:
  explicit HintGrid(const Aabb& tile) : grid_(tile, kHintCells) {
    for (int axis = 0; axis < 3; ++axis) {
      for (uint32_t k = 0; k <= kHintCells; ++k) {
        points_[axis][k] = grid_.Point(axis, k);
      }
    }
  }

  /// The hint of a pointer to the record with decoded tile `tile` and
  /// decoded page MBR `page`: the smallest grid box holding (own tile ∩
  /// tile) ∪ (own tile ∩ page).
  uint16_t Encode(const Aabb& tile, const Aabb& page) const;

  Aabb Decode(uint16_t hint) const {
    double lo[3];
    double hi[3];
    for (int axis = 0; axis < 3; ++axis) {
      const unsigned code = hint >> (4 * axis);
      const unsigned l = code & 3;
      const unsigned h = ((code >> 2) & 3) + 1;
      if (l > h) return Aabb();
      lo[axis] = points_[axis][l];
      hi[axis] = points_[axis][h];
    }
    return Aabb(Vec3(lo[0], lo[1], lo[2]), Vec3(hi[0], hi[1], hi[2]));
  }

 private:
  QuantGrid grid_;
  double points_[3][kHintCells + 1];
};

/// Bytes of `cross` 12-bit hints, two per three bytes.
inline constexpr size_t HintBytes(size_t cross) {
  return (12 * cross + 7) / 8;
}

/// Bytes of a same-leaf bitmap on a leaf of `records` records.
inline constexpr size_t BitmapBytes(size_t records) {
  return (records + 7) / 8;
}

/// Fixed part of a v5 metadata record: tile (6 x u16) + page MBR (6 x u16)
/// on the leaf frame, two half-page boxes (6 x u8 each) on the decoded
/// page MBR, and the u16 cross-leaf count. The same-leaf bitmap follows.
inline constexpr size_t kRecordFixedSize = 12 + 12 + 2 * 6 + 2;

/// Per-record slot-directory cost in the leaf header.
inline constexpr size_t kSlotDirEntrySize = 2;

/// Leaf header: u16 record count, a zero byte, the format byte
/// kSeedLeafFormat, the u32 PageId of the leaf's first object page and the
/// leaf frame (PackedAabb).
inline constexpr size_t kSeedLeafHeaderSize = 8 + sizeof(PackedAabb);

/// Record format of every seed leaf (v5 records: boxes on the leaf grid,
/// half-page boxes, a same-leaf bitmap, cross-leaf refs with hints), in
/// header byte 3 as on node pages. Leaves of FLATPGF4 files held 4 there
/// and those of FLATPGF1/3 files 0; no reader decodes them any more.
inline constexpr uint8_t kSeedLeafFormat = 5;

/// Bytes a record with `cross` cross-leaf refs occupies on a seed leaf of
/// `records` records, its slot-directory entry and bitmap included.
inline constexpr size_t RecordFootprint(size_t records, size_t cross) {
  return kSlotDirEntrySize + kRecordFixedSize + BitmapBytes(records) +
         cross * kNeighborRefSize + HintBytes(cross);
}

/// True when an element with this box can meet a query: every bound is a
/// number and lower <= upper on every axis (an empty or NaN box meets
/// nothing).
inline bool CanMeet(const Aabb& box) {
  return box.lo().x <= box.hi().x && box.lo().y <= box.hi().y &&
         box.lo().z <= box.hi().z;
}

/// The two half-page boxes of an object page holding `n` entries in
/// stored order: the union of the first ceil(n / 2) entries' boxes that can
/// meet a query, and that of the rest's.
void HalfPageBoxes(const RTreeEntry* entries, size_t n, Aabb halves[2]);

/// Read-only view of one serialized v5 record, decoded on its leaf's
/// frame: same-leaf neighbors as a bitmap over the leaf's slots, cross-leaf
/// neighbors as refs with hints, and the object page its leaf implies.
class MetadataRecordView {
 public:
  MetadataRecordView(const char* data, const QuantGrid& frame,
                     uint16_t leaf_records, PageId object_page)
      : data_(data),
        frame_(frame),
        bitmap_bytes_(static_cast<uint32_t>(BitmapBytes(leaf_records))),
        object_page_(object_page) {
    uint16_t cross;
    std::memcpy(&cross, data_ + kCrossCountOffset, sizeof(cross));
    cross_ = cross;
  }

  /// The page MBR, decoded: it holds the f32 (PackedAabb) page MBR.
  Aabb page_mbr() const { return frame_.Decode(U16Box(kPageOffset)); }

  /// The box that gates neighbor expansion in the crawl: the partition's
  /// unstretched tile, decoded (docs/file_format.md §3).
  Aabb tile() const { return frame_.Decode(U16Box(kTileOffset)); }

  /// Half-page box `i` (0 or 1), decoded on the decoded page MBR's grid.
  Aabb half(int i) const {
    return QuantGrid(page_mbr(), kHalfCells).Decode(U8Box(i));
  }

  /// The one gate of every object-page read: the page MBR and at least one
  /// half-page box meet `gate`. False means no element on the page meets
  /// it.
  bool ObjectPageMeets(const Aabb& gate) const {
    const Aabb page = page_mbr();
    if (!page.Intersects(gate)) return false;
    const QuantGrid grid(page, kHalfCells);
    return grid.Decode(U8Box(0)).Intersects(gate) ||
           grid.Decode(U8Box(1)).Intersects(gate);
  }

  /// Record s of a leaf lives on the leaf's first object page + s.
  PageId object_page() const { return object_page_; }

  /// Calls fn(slot) for every same-leaf neighbor, ascending.
  template <typename Fn>
  void ForEachSameLeafSlot(const Fn& fn) const {
    const auto* bitmap =
        reinterpret_cast<const unsigned char*>(data_ + kRecordFixedSize);
    for (uint32_t byte = 0; byte < bitmap_bytes_; ++byte) {
      for (unsigned bits = bitmap[byte]; bits != 0; bits &= bits - 1) {
        fn(static_cast<uint16_t>(8 * byte + std::countr_zero(bits)));
      }
    }
  }

  uint32_t cross_leaf_count() const { return cross_; }

  /// Bytes from the record's start to its end (bitmap, refs and hints
  /// included).
  uint64_t size() const {
    return kRecordFixedSize + bitmap_bytes_ + uint64_t{cross_} *
                                                  kNeighborRefSize +
           HintBytes(cross_);
  }

  RecordRef CrossLeafRefAt(uint32_t i) const {
    uint32_t packed;
    std::memcpy(&packed, refs() + i * kNeighborRefSize, sizeof(packed));
    return UnpackNeighborRef(packed);
  }

  /// Hint i (HintGrid), of cross-leaf ref i. Hints 2j and 2j + 1 share
  /// bytes 3j..3j+2, low bits first.
  uint16_t HintAt(uint32_t i) const {
    const auto* b = reinterpret_cast<const unsigned char*>(
        refs() + cross_ * kNeighborRefSize + 3 * (i / 2));
    return i % 2 == 0 ? static_cast<uint16_t>(b[0] | ((b[1] & 0xf) << 8))
                      : static_cast<uint16_t>((b[1] >> 4) | (b[2] << 4));
  }

 private:
  static constexpr size_t kTileOffset = 0;
  static constexpr size_t kPageOffset = 12;
  static constexpr size_t kHalfOffset = 24;
  static constexpr size_t kCrossCountOffset = 36;

  GridBox U16Box(size_t offset) const {
    uint16_t v[6];
    std::memcpy(v, data_ + offset, sizeof(v));
    return GridBox{{v[0], v[1], v[2]}, {v[3], v[4], v[5]}};
  }

  GridBox U8Box(int i) const {
    const auto* v =
        reinterpret_cast<const unsigned char*>(data_ + kHalfOffset + 6 * i);
    return GridBox{{v[0], v[1], v[2]}, {v[3], v[4], v[5]}};
  }

  const char* refs() const {
    return data_ + kRecordFixedSize + bitmap_bytes_;
  }

  const char* data_;
  QuantGrid frame_;
  uint32_t bitmap_bytes_ = 0;
  uint32_t cross_ = 0;
  PageId object_page_ = kInvalidPageId;
};

/// Read-only view of a seed-tree leaf page: a slot directory over variable-
/// size metadata records behind the leaf header. `page` and `page_size` are
/// for the checks: the constructor throws std::runtime_error naming the
/// page when its format byte is not kSeedLeafFormat, and so does RecordAt
/// for a record that does not lie on the page.
class SeedLeafView {
 public:
  SeedLeafView(const char* data, uint32_t page_size, PageId page);

  uint16_t count() const { return count_; }

  /// The PageId of slot 0's object page; slot s's is this + s.
  PageId first_object_page() const { return first_object_; }

  /// Record `slot`. The one record decoder: throws std::runtime_error
  /// naming the page unless `slot` is below count(), the record starts past
  /// the slot directory, it ends (bitmap, refs and hints included) within
  /// the page, its bitmap sets no bit at or past count(), and its object
  /// page is a valid PageId.
  MetadataRecordView RecordAt(uint16_t slot) const;

 private:
  const char* data_;
  uint32_t page_size_;
  PageId page_;
  uint16_t count_ = 0;
  PageId first_object_ = kInvalidPageId;
  QuantGrid frame_;
};

/// In-memory form of a record while the seed index is being built.
struct MetadataRecordDraft {
  Aabb page_mbr;   ///< the page's MBR (stored f32, then on the leaf grid)
  Aabb tile;       ///< the unstretched tile (likewise)
  Aabb halves[2];  ///< HalfPageBoxes of the record's object page
  std::vector<uint16_t> same_leaf;    ///< slots on the record's own leaf
  std::vector<RecordRef> cross_leaf;  ///< records on other leaves
  std::vector<uint16_t> hints;        ///< one per cross_leaf ref
};

/// The frame of a leaf holding `records`: the union of their f32
/// (PackedAabb) tiles and page MBRs. Every value is an f32.
Aabb SeedLeafFrame(const std::vector<MetadataRecordDraft>& records);

/// The box a record on a leaf with frame `frame` stores for `box`: the f32
/// box coded outward on the frame's kRecordCells grid, decoded.
inline Aabb StoredRecordBox(const QuantGrid& frame, const Aabb& box) {
  return frame.Decode(frame.Encode(PackedAabb::FromAabb(box).ToAabb()));
}

/// Serializes `records` into one seed-leaf page image (`data`,
/// `page_size` bytes) whose slot 0's object page is `first_object_page`.
/// The caller guarantees the records fit (see RecordFootprint).
void WriteSeedLeaf(char* data, uint32_t page_size, PageId first_object_page,
                   const std::vector<MetadataRecordDraft>& records);

}  // namespace flat

#endif  // FLAT_CORE_METADATA_H_

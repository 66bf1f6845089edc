#ifndef FLAT_CORE_METADATA_H_
#define FLAT_CORE_METADATA_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "geometry/aabb.h"
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

/// A cross-leaf neighbor pointer's hint: a box on the quarter grid of the
/// owning record's stored tile, 2 bits per bound (the CR-tree's relative
/// quantized MBR; Kim, Cha and Kwon, SIGMOD 2001). Per axis a (bits 4a..)
/// the low two bits are the lower bound's grid index l in 0..3 and the next
/// two hold h - 1 for the upper bound's index h in 1..4; l > h on any axis
/// is the empty box. kEmptyHint is that code on every axis.
inline constexpr uint16_t kEmptyHint = 0x333;

/// The grid a record's hints are coded on: per axis the points k/4 of the
/// way from the stored tile's lower to its upper bound, k = 0..4, with k = 0
/// and k = 4 the bounds themselves. An axis whose extent is not finite has
/// no inner points (they are NaN), so every hint codes that whole axis.
/// Encode and Decode both read the one table the constructor fills, so a
/// decoded hint holds what was encoded in the crawl's own arithmetic.
class HintGrid {
 public:
  explicit HintGrid(const Aabb& tile);

  /// The hint of a pointer to the record with stored tile `tile` and stored
  /// page MBR `page`: the smallest grid box holding (own tile ∩ tile) ∪
  /// (own tile ∩ page), or kEmptyHint when both are empty.
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
  Aabb tile_;
  double points_[3][5];
};

/// Bytes of `cross` 12-bit hints, two per three bytes.
inline constexpr size_t HintBytes(size_t cross) {
  return (12 * cross + 7) / 8;
}

/// Fixed part of a metadata record: page MBR (24) + tile (24) + object
/// PageId (4) + neighbor counts (4: u16 same-leaf, u16 cross-leaf).
inline constexpr size_t kRecordFixedSize = 2 * sizeof(PackedAabb) + 8;

/// A same-leaf neighbor is its u16 slot.
inline constexpr size_t kSameLeafRefSize = 2;

/// Per-record slot-directory cost in the leaf header.
inline constexpr size_t kSlotDirEntrySize = 2;

/// Leaf header: u16 record count, a zero byte, the format byte
/// kSeedLeafFormat and zero padding to 8 bytes.
inline constexpr size_t kSeedLeafHeaderSize = 8;

/// Record format of every seed leaf (hinted records: same-leaf slots,
/// cross-leaf refs with hints), in header byte 3 as on node pages. Leaves
/// of FLATPGF1/3 files held 0 there; no reader decodes them any more.
inline constexpr uint8_t kSeedLeafFormat = 4;

/// Bytes a record with `same` same-leaf slots and `cross` cross-leaf
/// refs occupies on a seed leaf, including its slot-directory entry.
inline constexpr size_t RecordFootprint(size_t same, size_t cross) {
  return kSlotDirEntrySize + kRecordFixedSize + same * kSameLeafRefSize +
         cross * kNeighborRefSize + HintBytes(cross);
}

/// Read-only view of one serialized metadata record: same-leaf neighbors
/// as slots, cross-leaf neighbors as refs with hints.
class MetadataRecordView {
 public:
  explicit MetadataRecordView(const char* data) : data_(data) {
    uint16_t counts[2];
    std::memcpy(counts, data_ + kCountsOffset, sizeof(counts));
    same_ = counts[0];
    cross_ = counts[1];
  }

  Aabb page_mbr() const {
    PackedAabb p;
    std::memcpy(&p, data_, sizeof(p));
    return p.ToAabb();
  }

  /// The box that gates neighbor expansion in the crawl: the partition's
  /// unstretched tile (docs/file_format.md §3).
  Aabb tile() const {
    PackedAabb p;
    std::memcpy(&p, data_ + sizeof(PackedAabb), sizeof(p));
    return p.ToAabb();
  }

  PageId object_page() const {
    uint32_t v;
    std::memcpy(&v, data_ + 2 * sizeof(PackedAabb), sizeof(v));
    return v;
  }

  uint32_t same_leaf_count() const { return same_; }
  uint32_t cross_leaf_count() const { return cross_; }

  /// Bytes from the record's start to its end (refs and hints included).
  uint64_t size() const {
    return RecordFootprint(same_, cross_) - kSlotDirEntrySize;
  }

  /// The slot, on this record's own leaf, of same-leaf neighbor i.
  uint16_t SameLeafSlotAt(uint32_t i) const {
    uint16_t slot;
    std::memcpy(&slot, data_ + kRecordFixedSize + i * kSameLeafRefSize,
                sizeof(slot));
    return slot;
  }

  RecordRef CrossLeafRefAt(uint32_t i) const {
    uint32_t packed;
    std::memcpy(&packed, refs() + i * kNeighborRefSize, sizeof(packed));
    return UnpackNeighborRef(packed);
  }

  /// Hint i (HintGrid), of cross-leaf ref i. Hints 2j
  /// and 2j + 1 share bytes 3j..3j+2, low bits first.
  uint16_t HintAt(uint32_t i) const {
    const auto* b = reinterpret_cast<const unsigned char*>(
        refs() + cross_ * kNeighborRefSize + 3 * (i / 2));
    return i % 2 == 0 ? static_cast<uint16_t>(b[0] | ((b[1] & 0xf) << 8))
                      : static_cast<uint16_t>((b[1] >> 4) | (b[2] << 4));
  }

 private:
  static constexpr size_t kCountsOffset = 2 * sizeof(PackedAabb) + 4;

  const char* refs() const {
    return data_ + kRecordFixedSize + same_ * kSameLeafRefSize;
  }

  const char* data_;
  uint32_t same_ = 0;
  uint32_t cross_ = 0;
};

/// Read-only view of a seed-tree leaf page: a slot directory over variable-
/// size metadata records. `page` and `page_size` are for the checks: the
/// constructor throws std::runtime_error naming the page when its format
/// byte is not kSeedLeafFormat, and so does RecordAt for a record that does
/// not lie on the page.
class SeedLeafView {
 public:
  SeedLeafView(const char* data, uint32_t page_size, PageId page);

  uint16_t count() const { return count_; }

  /// Record `slot`. The one record decoder: throws std::runtime_error
  /// naming the page unless `slot` is below count(), the record starts past
  /// the slot directory, and it ends (refs and hints included) within the
  /// page.
  MetadataRecordView RecordAt(uint16_t slot) const;

 private:
  const char* data_;
  uint32_t page_size_;
  PageId page_;
  uint16_t count_ = 0;
};

/// In-memory form of a record while the seed index is being built.
struct MetadataRecordDraft {
  Aabb page_mbr;
  Aabb tile;
  PageId object_page = kInvalidPageId;
  std::vector<uint16_t> same_leaf;    ///< slots on the record's own leaf
  std::vector<RecordRef> cross_leaf;  ///< records on other leaves
  std::vector<uint16_t> hints;        ///< one per cross_leaf ref
};

/// Serializes `records` into one seed-leaf page image (`data`,
/// `page_size` bytes). The caller guarantees the records fit (see
/// RecordFootprint).
void WriteSeedLeaf(char* data, uint32_t page_size,
                   const std::vector<MetadataRecordDraft>& records);

}  // namespace flat

#endif  // FLAT_CORE_METADATA_H_

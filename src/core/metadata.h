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

/// Fixed part of a metadata record: page MBR (24) + tile (24) + object
/// PageId (4) + neighbor count (4).
inline constexpr size_t kRecordFixedSize = 2 * sizeof(PackedAabb) + 8;

/// Per-record slot-directory cost in the leaf header.
inline constexpr size_t kSlotDirEntrySize = 2;

/// Leaf header: u16 record count + padding to 8 bytes.
inline constexpr size_t kSeedLeafHeaderSize = 8;

/// Bytes a record with `neighbor_count` pointers occupies on a seed leaf,
/// including its slot-directory entry.
inline constexpr size_t RecordFootprint(size_t neighbor_count) {
  return kSlotDirEntrySize + kRecordFixedSize +
         neighbor_count * kNeighborRefSize;
}

/// Read-only view of one serialized metadata record.
class MetadataRecordView {
 public:
  explicit MetadataRecordView(const char* data) : data_(data) {}

  Aabb page_mbr() const {
    PackedAabb p;
    std::memcpy(&p, data_, sizeof(p));
    return p.ToAabb();
  }

  /// The box that gates neighbor expansion in the crawl: the partition's
  /// unstretched tile. FLATPGF1/2 files store the stretched partition MBR
  /// here instead, which contains the tile, so the crawl stays exact on
  /// them (docs/file_format.md §3).
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

  uint32_t neighbor_count() const {
    uint32_t v;
    std::memcpy(&v, data_ + 2 * sizeof(PackedAabb) + 4, sizeof(v));
    return v;
  }

  RecordRef NeighborAt(uint32_t i) const {
    uint32_t packed;
    std::memcpy(&packed, data_ + kRecordFixedSize + i * kNeighborRefSize,
                sizeof(packed));
    return UnpackNeighborRef(packed);
  }

 private:
  const char* data_;
};

/// Read-only view of a seed-tree leaf page: a slot directory over variable-
/// size metadata records.
class SeedLeafView {
 public:
  explicit SeedLeafView(const char* data) : data_(data) {}

  uint16_t count() const {
    uint16_t v;
    std::memcpy(&v, data_, sizeof(v));
    return v;
  }

  MetadataRecordView RecordAt(uint16_t slot) const {
    uint16_t offset;
    std::memcpy(&offset, data_ + kSeedLeafHeaderSize + slot * 2,
                sizeof(offset));
    return MetadataRecordView(data_ + offset);
  }

 private:
  const char* data_;
};

/// In-memory form of a record while the seed index is being built.
struct MetadataRecordDraft {
  Aabb page_mbr;
  Aabb tile;
  PageId object_page = kInvalidPageId;
  std::vector<RecordRef> neighbors;
};

/// Serializes `records` into one seed-leaf page image (`data`, `page_size`
/// bytes). The caller guarantees the records fit (see RecordFootprint).
void WriteSeedLeaf(char* data, uint32_t page_size,
                   const std::vector<MetadataRecordDraft>& records);

}  // namespace flat

#endif  // FLAT_CORE_METADATA_H_

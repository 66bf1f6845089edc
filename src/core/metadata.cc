#include "core/metadata.h"

#include <cassert>

namespace flat {

void WriteSeedLeaf(char* data, uint32_t page_size,
                   const std::vector<MetadataRecordDraft>& records) {
  assert(records.size() < kMaxRecordsPerLeaf);
  const uint16_t count = static_cast<uint16_t>(records.size());
  std::memcpy(data, &count, sizeof(count));

  size_t offset = kSeedLeafHeaderSize + records.size() * kSlotDirEntrySize;
  for (size_t slot = 0; slot < records.size(); ++slot) {
    const MetadataRecordDraft& record = records[slot];
    const uint16_t off16 = static_cast<uint16_t>(offset);
    std::memcpy(data + kSeedLeafHeaderSize + slot * 2, &off16, sizeof(off16));

    char* p = data + offset;
    const PackedAabb page_mbr = PackedAabb::FromAabb(record.page_mbr);
    const PackedAabb tile = PackedAabb::FromAabb(record.tile);
    std::memcpy(p, &page_mbr, sizeof(page_mbr));
    std::memcpy(p + sizeof(PackedAabb), &tile, sizeof(tile));
    const uint32_t object_page = record.object_page;
    std::memcpy(p + 2 * sizeof(PackedAabb), &object_page,
                sizeof(object_page));
    const uint32_t neighbor_count =
        static_cast<uint32_t>(record.neighbors.size());
    std::memcpy(p + 2 * sizeof(PackedAabb) + 4, &neighbor_count,
                sizeof(neighbor_count));
    char* refs = p + kRecordFixedSize;
    for (size_t i = 0; i < record.neighbors.size(); ++i) {
      assert(record.neighbors[i].page < kMaxSeedLeafPages);
      assert(record.neighbors[i].slot < kMaxRecordsPerLeaf);
      const uint32_t packed = PackNeighborRef(record.neighbors[i]);
      std::memcpy(refs + i * kNeighborRefSize, &packed, sizeof(packed));
    }
    offset += kRecordFixedSize + record.neighbors.size() * kNeighborRefSize;
    assert(offset <= page_size);
  }
  (void)page_size;
}

}  // namespace flat

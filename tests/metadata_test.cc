#include "core/metadata.h"

#include <gtest/gtest.h>

#include "storage/page_file.h"

namespace flat {
namespace {

MetadataRecordDraft MakeDraft(double base, PageId object_page,
                              std::vector<RecordRef> neighbors) {
  MetadataRecordDraft draft;
  draft.page_mbr = Aabb(Vec3(base, base, base),
                        Vec3(base + 1, base + 1, base + 1));
  draft.tile = Aabb(Vec3(base - 1, base - 1, base - 1),
                    Vec3(base + 2, base + 2, base + 2));
  draft.object_page = object_page;
  draft.neighbors = std::move(neighbors);
  return draft;
}

TEST(RecordRefTest, KeyIsInjectiveOverPageAndSlot) {
  RecordRef a{10, 1};
  RecordRef b{10, 2};
  RecordRef c{11, 1};
  EXPECT_NE(a.Key(), b.Key());
  EXPECT_NE(a.Key(), c.Key());
  EXPECT_NE(b.Key(), c.Key());
  EXPECT_EQ(a.Key(), (RecordRef{10, 1}).Key());
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(RecordRef{}.valid());
}

TEST(RecordFootprintTest, MatchesLayoutConstants) {
  EXPECT_EQ(kRecordFixedSize, 56u);
  EXPECT_EQ(RecordFootprint(0), 2u + 56u);
  EXPECT_EQ(RecordFootprint(10), 2u + 56u + 40u);
}

TEST(NeighborRefPackingTest, RoundTrips) {
  for (RecordRef ref : {RecordRef{0, 0}, RecordRef{1, 4095},
                        RecordRef{(1u << 20) - 1, 7}, RecordRef{123456, 99}}) {
    EXPECT_EQ(UnpackNeighborRef(PackNeighborRef(ref)), ref);
  }
}

TEST(PackedAabbTest, RoundsOutward) {
  // Float compression must never shrink a box: every double point inside the
  // original must remain inside the unpacked version.
  Aabb box(Vec3(0.1234567890123, -7.000000001, 1e-12),
           Vec3(0.1234567890124, -6.999999999, 2e-12));
  Aabb unpacked = PackedAabb::FromAabb(box).ToAabb();
  EXPECT_TRUE(unpacked.Contains(box));
}

TEST(SeedLeafTest, WriteReadRoundTripSingleRecord) {
  PageFile file;
  PageId page = file.Allocate(PageCategory::kSeedLeaf);
  std::vector<MetadataRecordDraft> drafts = {
      MakeDraft(5.0, 99, {{3, 4}, {7, 8}})};
  WriteSeedLeaf(file.MutableData(page), file.page_size(), drafts);

  SeedLeafView view(file.Data(page));
  ASSERT_EQ(view.count(), 1u);
  MetadataRecordView record = view.RecordAt(0);
  // MBRs are float-compressed with outward rounding: the stored box must
  // contain the original and be only marginally larger.
  EXPECT_TRUE(record.page_mbr().Contains(drafts[0].page_mbr));
  EXPECT_NEAR(record.page_mbr().Volume(), drafts[0].page_mbr.Volume(),
              1e-4 * drafts[0].page_mbr.Volume() + 1e-9);
  EXPECT_TRUE(record.tile().Contains(drafts[0].tile));
  EXPECT_EQ(record.object_page(), 99u);
  ASSERT_EQ(record.neighbor_count(), 2u);
  EXPECT_EQ(record.NeighborAt(0), (RecordRef{3, 4}));
  EXPECT_EQ(record.NeighborAt(1), (RecordRef{7, 8}));
}

TEST(SeedLeafTest, ManyRecordsWithVaryingNeighborCounts) {
  PageFile file;
  PageId page = file.Allocate(PageCategory::kSeedLeaf);
  std::vector<MetadataRecordDraft> drafts;
  size_t used = kSeedLeafHeaderSize;
  for (uint32_t i = 0; used + RecordFootprint(i) <= file.page_size(); ++i) {
    std::vector<RecordRef> neighbors;
    for (uint32_t n = 0; n < i; ++n) {
      neighbors.push_back(RecordRef{n, static_cast<uint16_t>(i)});
    }
    used += RecordFootprint(i);
    drafts.push_back(MakeDraft(i, i * 10, std::move(neighbors)));
  }
  ASSERT_GT(drafts.size(), 3u);
  WriteSeedLeaf(file.MutableData(page), file.page_size(), drafts);

  SeedLeafView view(file.Data(page));
  ASSERT_EQ(view.count(), drafts.size());
  for (uint16_t slot = 0; slot < view.count(); ++slot) {
    MetadataRecordView record = view.RecordAt(slot);
    EXPECT_EQ(record.object_page(), drafts[slot].object_page);
    ASSERT_EQ(record.neighbor_count(), drafts[slot].neighbors.size());
    for (uint32_t n = 0; n < record.neighbor_count(); ++n) {
      EXPECT_EQ(record.NeighborAt(n), drafts[slot].neighbors[n]);
    }
  }
}

TEST(SeedLeafTest, ZeroNeighborRecord) {
  PageFile file;
  PageId page = file.Allocate(PageCategory::kSeedLeaf);
  std::vector<MetadataRecordDraft> drafts = {MakeDraft(1.0, 5, {})};
  WriteSeedLeaf(file.MutableData(page), file.page_size(), drafts);
  SeedLeafView view(file.Data(page));
  EXPECT_EQ(view.RecordAt(0).neighbor_count(), 0u);
}

}  // namespace
}  // namespace flat

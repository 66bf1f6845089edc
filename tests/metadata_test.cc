#include "core/metadata.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "geometry/rng.h"
#include "storage/page_file.h"

namespace flat {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

MetadataRecordDraft MakeDraft(double base, PageId object_page,
                              std::vector<uint16_t> same_leaf = {},
                              std::vector<RecordRef> cross_leaf = {},
                              std::vector<uint16_t> hints = {}) {
  MetadataRecordDraft draft;
  draft.page_mbr = Aabb(Vec3(base, base, base),
                        Vec3(base + 1, base + 1, base + 1));
  draft.tile = Aabb(Vec3(base - 1, base - 1, base - 1),
                    Vec3(base + 2, base + 2, base + 2));
  draft.object_page = object_page;
  draft.same_leaf = std::move(same_leaf);
  draft.cross_leaf = std::move(cross_leaf);
  draft.hints = std::move(hints);
  return draft;
}

SeedLeafView ViewOf(const PageFile& file, PageId page) {
  return SeedLeafView(file.Data(page), file.page_size(), page);
}

void ExpectRecordMatches(const MetadataRecordView& record,
                         const MetadataRecordDraft& draft) {
  EXPECT_EQ(record.object_page(), draft.object_page);
  ASSERT_EQ(record.same_leaf_count(), draft.same_leaf.size());
  for (uint32_t i = 0; i < record.same_leaf_count(); ++i) {
    EXPECT_EQ(record.SameLeafSlotAt(i), draft.same_leaf[i]);
  }
  ASSERT_EQ(record.cross_leaf_count(), draft.cross_leaf.size());
  for (uint32_t i = 0; i < record.cross_leaf_count(); ++i) {
    EXPECT_EQ(record.CrossLeafRefAt(i), draft.cross_leaf[i]) << "ref " << i;
    EXPECT_EQ(record.HintAt(i), draft.hints[i]) << "hint " << i;
  }
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
  EXPECT_EQ(kSameLeafRefSize, 2u);
  EXPECT_EQ(kNeighborRefSize, 4u);
  // Two 12-bit hints per three bytes, the last odd one in two.
  EXPECT_EQ(HintBytes(0), 0u);
  EXPECT_EQ(HintBytes(1), 2u);
  EXPECT_EQ(HintBytes(2), 3u);
  EXPECT_EQ(HintBytes(3), 5u);
  EXPECT_EQ(HintBytes(10), 15u);
  EXPECT_EQ(RecordFootprint(0, 0), 2u + 56u);
  EXPECT_EQ(RecordFootprint(3, 0), 2u + 56u + 6u);
  EXPECT_EQ(RecordFootprint(0, 10), 2u + 56u + 40u + 15u);
  EXPECT_EQ(RecordFootprint(4, 3), 2u + 56u + 8u + 12u + 5u);
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
      MakeDraft(5.0, 99, {}, {{3, 4}, {7, 8}}, {0x123, 0xabc})};
  WriteSeedLeaf(file.MutableData(page), file.page_size(), drafts);

  EXPECT_EQ(static_cast<uint8_t>(file.Data(page)[3]), kSeedLeafFormat);
  const SeedLeafView view = ViewOf(file, page);
  ASSERT_EQ(view.count(), 1u);
  MetadataRecordView record = view.RecordAt(0);
  // MBRs are float-compressed with outward rounding: the stored box must
  // contain the original and be only marginally larger.
  EXPECT_TRUE(record.page_mbr().Contains(drafts[0].page_mbr));
  EXPECT_NEAR(record.page_mbr().Volume(), drafts[0].page_mbr.Volume(),
              1e-4 * drafts[0].page_mbr.Volume() + 1e-9);
  EXPECT_TRUE(record.tile().Contains(drafts[0].tile));
  ExpectRecordMatches(record, drafts[0]);
}

TEST(SeedLeafTest, ManyRecordsWithVaryingNeighborCounts) {
  PageFile file;
  PageId page = file.Allocate(PageCategory::kSeedLeaf);
  std::vector<MetadataRecordDraft> drafts;
  size_t used = kSeedLeafHeaderSize;
  for (uint32_t i = 0; used + RecordFootprint(i / 2, i) <= file.page_size();
       ++i) {
    std::vector<uint16_t> same;
    for (uint32_t n = 0; n < i / 2; ++n) same.push_back(n % 4);  // a slot
    std::vector<RecordRef> cross;
    std::vector<uint16_t> hints;
    for (uint32_t n = 0; n < i; ++n) {
      cross.push_back(RecordRef{n, static_cast<uint16_t>(i)});
      hints.push_back(static_cast<uint16_t>((n * 0x9e5 + i) & 0xfff));
    }
    used += RecordFootprint(same.size(), cross.size());
    drafts.push_back(MakeDraft(i, i * 10, std::move(same), std::move(cross),
                               std::move(hints)));
  }
  ASSERT_GT(drafts.size(), 3u);
  WriteSeedLeaf(file.MutableData(page), file.page_size(), drafts);

  const SeedLeafView view = ViewOf(file, page);
  ASSERT_EQ(view.count(), drafts.size());
  for (uint16_t slot = 0; slot < view.count(); ++slot) {
    SCOPED_TRACE(slot);
    ExpectRecordMatches(view.RecordAt(slot), drafts[slot]);
  }
}

TEST(SeedLeafTest, ZeroNeighborRecord) {
  PageFile file;
  PageId page = file.Allocate(PageCategory::kSeedLeaf);
  std::vector<MetadataRecordDraft> drafts = {MakeDraft(1.0, 5)};
  WriteSeedLeaf(file.MutableData(page), file.page_size(), drafts);
  const MetadataRecordView record = ViewOf(file, page).RecordAt(0);
  EXPECT_EQ(record.same_leaf_count(), 0u);
  EXPECT_EQ(record.cross_leaf_count(), 0u);
}

// A v4 leaf filled to its last byte: hints at even and odd positions, the
// last record ending in an odd hint count's half-used byte at byte 512.
// Every hint and ref reads back, and the decoder's end check accepts it.
TEST(SeedLeafTest, HintedLeafEndsOnTheLastByteOfTheSmallestPage) {
  PageFile file(512);
  const PageId page = file.Allocate(PageCategory::kSeedLeaf);
  Rng rng(4242);
  const auto draft = [&](uint32_t same, uint32_t cross, double base) {
    std::vector<uint16_t> slots;
    for (uint32_t i = 0; i < same; ++i) slots.push_back(i % 5);  // a slot
    std::vector<RecordRef> refs;
    std::vector<uint16_t> hints;
    for (uint32_t i = 0; i < cross; ++i) {
      refs.push_back(RecordRef{static_cast<PageId>(rng.UniformInt(0, 1 << 19)),
                               static_cast<uint16_t>(rng.UniformInt(0, 4095))});
      hints.push_back(static_cast<uint16_t>(rng.UniformInt(0, 0xfff)));
    }
    return MakeDraft(base, static_cast<PageId>(base), std::move(slots),
                     std::move(refs), std::move(hints));
  };
  std::vector<MetadataRecordDraft> drafts = {draft(1, 3, 1), draft(0, 4, 2),
                                             draft(2, 5, 3), draft(3, 2, 4)};
  size_t used = kSeedLeafHeaderSize;
  for (const MetadataRecordDraft& d : drafts) {
    used += RecordFootprint(d.same_leaf.size(), d.cross_leaf.size());
  }
  // The last record: an odd number of cross-leaf refs and as many slots as
  // fill the page exactly.
  const size_t left = file.page_size() - used;
  uint32_t cross = 1;  // footprints of 1 and 3 refs differ in parity
  if ((left - RecordFootprint(0, cross)) % kSameLeafRefSize != 0) cross = 3;
  ASSERT_LE(RecordFootprint(0, cross), left);
  ASSERT_EQ((left - RecordFootprint(0, cross)) % kSameLeafRefSize, 0u);
  drafts.push_back(draft(
      static_cast<uint32_t>((left - RecordFootprint(0, cross)) / 2), cross, 5));
  WriteSeedLeaf(file.MutableData(page), file.page_size(), drafts);

  const SeedLeafView view = ViewOf(file, page);
  ASSERT_EQ(view.count(), drafts.size());
  for (uint16_t slot = 0; slot < view.count(); ++slot) {
    SCOPED_TRACE(slot);
    ExpectRecordMatches(view.RecordAt(slot), drafts[slot]);
  }
  uint16_t last_offset;
  std::memcpy(&last_offset,
              file.Data(page) + kSeedLeafHeaderSize +
                  (drafts.size() - 1) * kSlotDirEntrySize,
              sizeof(last_offset));
  EXPECT_EQ(last_offset + view.RecordAt(view.count() - 1).size(),
            file.page_size());
}

// The decoder refuses a record that does not lie on its page, and a leaf
// whose format byte it does not know, naming the page each time.
TEST(SeedLeafTest, CorruptRecordsThrowNamingThePage) {
  PageFile file(512);
  const PageId page = file.Allocate(PageCategory::kSeedLeaf);
  char* data = file.MutableData(page);
  WriteSeedLeaf(data, file.page_size(),
                {MakeDraft(1, 2, {1}, {{9, 1}}, {0x012}), MakeDraft(3, 4)});
  const auto expect_throw = [&](const char* what) {
    SCOPED_TRACE(what);
    try {
      (void)ViewOf(file, page).RecordAt(1);
      ADD_FAILURE() << "no throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("page " + std::to_string(page)),
                std::string::npos)
          << e.what();
    }
  };
  ASSERT_NO_THROW((void)ViewOf(file, page).RecordAt(1));

  uint16_t offset;
  std::memcpy(&offset, data + kSeedLeafHeaderSize + kSlotDirEntrySize,
              sizeof(offset));
  const uint16_t count = 2;

  const uint16_t one = 1;
  std::memcpy(data, &one, sizeof(one));
  expect_throw("slot past the record count");
  std::memcpy(data, &count, sizeof(count));

  const uint16_t inside_directory = kSeedLeafHeaderSize;
  std::memcpy(data + kSeedLeafHeaderSize + kSlotDirEntrySize,
              &inside_directory, sizeof(inside_directory));
  expect_throw("record inside the slot directory");
  std::memcpy(data + kSeedLeafHeaderSize + kSlotDirEntrySize, &offset,
              sizeof(offset));

  const uint16_t many_refs = 200;  // 200 refs and hints overrun 512 B
  std::memcpy(data + offset + kRecordFixedSize - 2, &many_refs,
              sizeof(many_refs));
  expect_throw("record end past the page");
  const uint16_t none = 0;
  std::memcpy(data + offset + kRecordFixedSize - 2, &none, sizeof(none));

  data[3] = 7;
  expect_throw("unknown leaf format");
  data[3] = 0;
  expect_throw("unhinted leaf format of FLATPGF1/3 files");
  data[3] = static_cast<char>(kSeedLeafFormat);
  EXPECT_NO_THROW((void)ViewOf(file, page).RecordAt(1));
}

// What a hint must hold: (own tile ∩ tile) ∪ (own tile ∩ page).
Aabb HintedBox(const Aabb& own, const Aabb& tile, const Aabb& page) {
  return Aabb::Union(Aabb::Intersection(own, tile),
                     Aabb::Intersection(own, page));
}

// Encodes the pointer own -> (tile, page) and checks that the decoded box
// holds the hinted box, or is empty exactly when that box is.
void ExpectHintHolds(const Aabb& own, const Aabb& tile, const Aabb& page) {
  const HintGrid grid(own);
  const uint16_t hint = grid.Encode(tile, page);
  EXPECT_LE(hint, 0xfff);
  const Aabb want = HintedBox(own, tile, page);
  const Aabb decoded = grid.Decode(hint);
  if (want.IsEmpty()) {
    EXPECT_EQ(hint, kEmptyHint);
    EXPECT_TRUE(decoded.IsEmpty()) << decoded;
    return;
  }
  EXPECT_FALSE(decoded.IsEmpty()) << "own " << own << " want " << want;
  EXPECT_TRUE(decoded.Contains(want))
      << "own " << own << " want " << want << " decoded " << decoded;
  EXPECT_TRUE(own.Contains(decoded)) << "own " << own << " decoded " << decoded;
}

Aabb Stored(const Aabb& box) { return PackedAabb::FromAabb(box).ToAabb(); }

TEST(HintGridTest, DecodedHintHoldsRandomBoxesAndIsTight) {
  Rng rng(77);
  const Aabb space(Vec3(-20, -20, -20), Vec3(20, 20, 20));
  int non_empty = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto random_box = [&](double max_half) {
      return Stored(Aabb::FromCenterHalfExtents(
          rng.PointIn(space), Vec3(rng.Uniform(0, max_half),
                                   rng.Uniform(0, max_half),
                                   rng.Uniform(0, max_half))));
    };
    const Aabb own = random_box(30);
    const Aabb tile = random_box(30);
    const Aabb page = random_box(20);
    ExpectHintHolds(own, tile, page);
    const Aabb want = HintedBox(own, tile, page);
    if (want.IsEmpty()) continue;
    ++non_empty;
    // The smallest grid box: each bound within a quarter of the tile.
    const Aabb decoded = HintGrid(own).Decode(HintGrid(own).Encode(tile, page));
    for (int axis = 0; axis < 3; ++axis) {
      const double quarter = 0.25 * (own.hi()[axis] - own.lo()[axis]);
      EXPECT_LE(want.lo()[axis] - decoded.lo()[axis], quarter * (1 + 1e-12));
      EXPECT_LE(decoded.hi()[axis] - want.hi()[axis], quarter * (1 + 1e-12));
    }
  }
  EXPECT_GT(non_empty, 1000);
}

TEST(HintGridTest, DecodedHintHoldsDegenerateBoxes) {
  const Aabb own(Vec3(0, 0, 0), Vec3(1, 1, 1));
  const Aabb none;
  // Faces, edges and a corner of the owner's tile, on both sides.
  ExpectHintHolds(own, Aabb(Vec3(1, 0, 0), Vec3(2, 1, 1)), none);
  ExpectHintHolds(own, Aabb(Vec3(-1, 0, 0), Vec3(0, 1, 1)), none);
  ExpectHintHolds(own, Aabb(Vec3(0.3, 0.2, 1), Vec3(0.4, 0.9, 2)), none);
  ExpectHintHolds(own, Aabb(Vec3(1, 1, 0), Vec3(2, 2, 1)), none);
  ExpectHintHolds(own, Aabb(Vec3(-1, -1, -1), Vec3(0, 0, 0)), none);
  ExpectHintHolds(own, Aabb(Vec3(1, 1, 1), Vec3(2, 2, 2)), none);
  // The whole tile, through the tile and through the page.
  ExpectHintHolds(own, Aabb(Vec3(-1, -1, -1), Vec3(2, 2, 2)), none);
  ExpectHintHolds(own, none, own);
  // Grid points exactly: a box from 1/4 to 3/4 codes as itself.
  const HintGrid grid(own);
  const Aabb middle(Vec3(0.25, 0.25, 0.25), Vec3(0.75, 0.75, 0.75));
  EXPECT_EQ(grid.Decode(grid.Encode(middle, none)), middle);
  // Empty: both boxes miss, or are empty themselves.
  ExpectHintHolds(own, Aabb(Vec3(2, 2, 2), Vec3(3, 3, 3)),
                  Aabb(Vec3(-3, -3, -3), Vec3(-2, -2, -2)));
  ExpectHintHolds(own, none, none);
  // A NaN page MBR meets nothing, so the tile alone sets the hint.
  const Aabb nan_page(Vec3(kNaN, 0, 0), Vec3(kNaN, 1, 1));
  ExpectHintHolds(own, Aabb(Vec3(0.5, 0.5, 0.5), Vec3(2, 2, 2)), nan_page);
  ExpectHintHolds(own, none, nan_page);
  ExpectHintHolds(own, none,
                  Aabb(Vec3(kNaN, kNaN, kNaN), Vec3(kNaN, kNaN, kNaN)));
}

TEST(HintGridTest, DecodedHintHoldsOnZeroExtentAxes) {
  // A tile flat in x and y: every grid point of those axes is the bound.
  const Aabb flat(Vec3(3, -2, 0), Vec3(3, -2, 8));
  ExpectHintHolds(flat, Aabb(Vec3(0, -5, 1), Vec3(3, -2, 2)), Aabb());
  ExpectHintHolds(flat, Aabb(Vec3(3, -2, 8), Vec3(4, 0, 9)), Aabb());
  ExpectHintHolds(flat, Aabb(), flat);
  ExpectHintHolds(flat, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), Aabb());
  const Aabb point = Aabb::FromPoint(Vec3(1, 2, 3));
  ExpectHintHolds(point, point, Aabb());
  ExpectHintHolds(point, Aabb(Vec3(0, 0, 0), Vec3(5, 5, 5)), point);
}

TEST(HintGridTest, NonFiniteTileExtentCodesTheWholeAxis) {
  const Aabb own(Vec3(-kInf, 0, 0), Vec3(1, 1, kInf));
  const Aabb tile(Vec3(-3, 0.5, 2), Vec3(-2, 0.6, 3));
  ExpectHintHolds(own, tile, Aabb());
  ExpectHintHolds(own, Aabb(Vec3(1, 1, 5), Vec3(2, 2, 6)), Aabb());
  ExpectHintHolds(own, Aabb(Vec3(-kInf, 0, 0), Vec3(-kInf, 1, 1)), Aabb());
  const HintGrid grid(own);
  const Aabb decoded = grid.Decode(grid.Encode(tile, Aabb()));
  EXPECT_EQ(decoded.lo().x, -kInf);
  EXPECT_EQ(decoded.hi().x, 1);
  EXPECT_EQ(decoded.lo().z, 0);
  EXPECT_EQ(decoded.hi().z, kInf);
  // The finite axis is still coded on its quarters.
  EXPECT_EQ(decoded.lo().y, 0.5);
  EXPECT_EQ(decoded.hi().y, 0.75);
}

}  // namespace
}  // namespace flat

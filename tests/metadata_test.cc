#include "core/metadata.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "core/flat_index.h"
#include "geometry/rng.h"
#include "rtree/node.h"
#include "storage/page_file.h"
#include "tests/test_util.h"

namespace flat {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

MetadataRecordDraft MakeDraft(double base, std::vector<uint16_t> same_leaf = {},
                              std::vector<RecordRef> cross_leaf = {},
                              std::vector<uint16_t> hints = {}) {
  MetadataRecordDraft draft;
  draft.page_mbr = Aabb(Vec3(base, base, base),
                        Vec3(base + 1, base + 1, base + 1));
  draft.tile = Aabb(Vec3(base - 1, base - 1, base - 1),
                    Vec3(base + 2, base + 2, base + 2));
  draft.halves[0] = Aabb(Vec3(base, base, base),
                         Vec3(base + 0.5, base + 0.7, base + 0.2));
  draft.halves[1] = Aabb(Vec3(base + 0.3, base + 0.1, base + 0.6),
                         Vec3(base + 1, base + 1, base + 1));
  draft.same_leaf = std::move(same_leaf);
  draft.cross_leaf = std::move(cross_leaf);
  draft.hints = std::move(hints);
  return draft;
}

SeedLeafView ViewOf(const PageFile& file, PageId page) {
  return SeedLeafView(file.Data(page), file.page_size(), page);
}

std::vector<uint16_t> SameLeafSlots(const MetadataRecordView& record) {
  std::vector<uint16_t> slots;
  record.ForEachSameLeafSlot([&slots](uint16_t slot) { slots.push_back(slot); });
  return slots;
}

// The decoded boxes hold the f32 boxes, which hold the drafts' boxes.
void ExpectRecordMatches(const MetadataRecordView& record,
                         const MetadataRecordDraft& draft) {
  EXPECT_TRUE(record.page_mbr().Contains(
      PackedAabb::FromAabb(draft.page_mbr).ToAabb()));
  EXPECT_TRUE(record.tile().Contains(PackedAabb::FromAabb(draft.tile).ToAabb()));
  EXPECT_TRUE(record.half(0).Contains(draft.halves[0]));
  EXPECT_TRUE(record.half(1).Contains(draft.halves[1]));
  const std::set<uint16_t> want(draft.same_leaf.begin(), draft.same_leaf.end());
  const std::vector<uint16_t> got = SameLeafSlots(record);
  EXPECT_EQ(std::vector<uint16_t>(want.begin(), want.end()), got);
  ASSERT_EQ(record.cross_leaf_count(), draft.cross_leaf.size());
  for (uint32_t i = 0; i < record.cross_leaf_count(); ++i) {
    EXPECT_EQ(record.CrossLeafRefAt(i), draft.cross_leaf[i]) << "ref " << i;
    EXPECT_EQ(record.HintAt(i), draft.hints[i]) << "hint " << i;
  }
}

// Writes `drafts` to a fresh leaf of `file` and checks every record.
void ExpectLeafRoundTrips(PageFile* file,
                          const std::vector<MetadataRecordDraft>& drafts,
                          PageId first_object = 1000) {
  const PageId page = file->Allocate(PageCategory::kSeedLeaf);
  WriteSeedLeaf(file->MutableData(page), file->page_size(), first_object,
                drafts);
  const SeedLeafView view = ViewOf(*file, page);
  ASSERT_EQ(view.count(), drafts.size());
  EXPECT_EQ(view.first_object_page(), first_object);
  for (uint16_t slot = 0; slot < view.count(); ++slot) {
    SCOPED_TRACE(slot);
    const MetadataRecordView record = view.RecordAt(slot);
    EXPECT_EQ(record.object_page(), first_object + slot);
    ExpectRecordMatches(record, drafts[slot]);
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
  // Tile and page MBR as 6 x u16, two half-page boxes as 6 x u8, the u16
  // cross-leaf count; the header adds the first object page and the frame.
  EXPECT_EQ(kRecordFixedSize, 38u);
  EXPECT_EQ(kSeedLeafHeaderSize, 32u);
  EXPECT_EQ(kSlotDirEntrySize, 2u);
  EXPECT_EQ(kNeighborRefSize, 4u);
  EXPECT_EQ(kSeedLeafFormat, 5u);
  // One bitmap bit per slot of the leaf, rounded up to bytes.
  EXPECT_EQ(BitmapBytes(0), 0u);
  EXPECT_EQ(BitmapBytes(1), 1u);
  EXPECT_EQ(BitmapBytes(8), 1u);
  EXPECT_EQ(BitmapBytes(9), 2u);
  EXPECT_EQ(BitmapBytes(64), 8u);
  // Two 12-bit hints per three bytes, the last odd one in two.
  EXPECT_EQ(HintBytes(0), 0u);
  EXPECT_EQ(HintBytes(1), 2u);
  EXPECT_EQ(HintBytes(2), 3u);
  EXPECT_EQ(HintBytes(3), 5u);
  EXPECT_EQ(HintBytes(10), 15u);
  EXPECT_EQ(RecordFootprint(0, 0), 2u + 38u);
  EXPECT_EQ(RecordFootprint(1, 0), 2u + 38u + 1u);
  EXPECT_EQ(RecordFootprint(26, 10), 2u + 38u + 4u + 40u + 15u);
  EXPECT_EQ(RecordFootprint(9, 3), 2u + 38u + 2u + 12u + 5u);
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
      MakeDraft(5.0, {}, {{3, 4}, {7, 8}}, {0x123, 0xabc})};
  WriteSeedLeaf(file.MutableData(page), file.page_size(), 99, drafts);

  EXPECT_EQ(static_cast<uint8_t>(file.Data(page)[3]), kSeedLeafFormat);
  const SeedLeafView view = ViewOf(file, page);
  ASSERT_EQ(view.count(), 1u);
  const MetadataRecordView record = view.RecordAt(0);
  EXPECT_EQ(record.object_page(), 99u);
  // The boxes are rounded outward to f32 and then to the leaf grid: the
  // stored box contains the original and is only marginally larger.
  EXPECT_TRUE(record.page_mbr().Contains(drafts[0].page_mbr));
  EXPECT_NEAR(record.page_mbr().Volume(), drafts[0].page_mbr.Volume(),
              1e-3 * drafts[0].page_mbr.Volume());
  EXPECT_TRUE(record.tile().Contains(drafts[0].tile));
  EXPECT_NEAR(record.tile().Volume(), drafts[0].tile.Volume(),
              1e-3 * drafts[0].tile.Volume());
  ExpectRecordMatches(record, drafts[0]);
}

TEST(SeedLeafTest, ManyRecordsWithVaryingNeighborCounts) {
  PageFile file;
  std::vector<MetadataRecordDraft> drafts;
  // Grow until the next record would not fit with the leaf's bitmaps.
  size_t refs = 0;
  for (uint32_t i = 0;; ++i) {
    const size_t records = drafts.size() + 1;
    if (kSeedLeafHeaderSize + refs + RecordFootprint(0, i) +
            records * BitmapBytes(records) >
        file.page_size()) {
      break;
    }
    refs += RecordFootprint(0, i);
    std::vector<uint16_t> same;
    for (uint32_t n = 0; n < i / 2; ++n) same.push_back(n % 4);  // a slot
    std::vector<RecordRef> cross;
    std::vector<uint16_t> hints;
    for (uint32_t n = 0; n < i; ++n) {
      cross.push_back(RecordRef{n, static_cast<uint16_t>(i)});
      hints.push_back(static_cast<uint16_t>((n * 0x9e5 + i) & 0xfff));
    }
    drafts.push_back(
        MakeDraft(i, std::move(same), std::move(cross), std::move(hints)));
  }
  ASSERT_GT(drafts.size(), 3u);
  ExpectLeafRoundTrips(&file, drafts);
}

TEST(SeedLeafTest, ZeroNeighborRecord) {
  PageFile file;
  PageId page = file.Allocate(PageCategory::kSeedLeaf);
  std::vector<MetadataRecordDraft> drafts = {MakeDraft(1.0)};
  WriteSeedLeaf(file.MutableData(page), file.page_size(), 5, drafts);
  const MetadataRecordView record = ViewOf(file, page).RecordAt(0);
  EXPECT_TRUE(SameLeafSlots(record).empty());
  EXPECT_EQ(record.cross_leaf_count(), 0u);
  EXPECT_EQ(record.size(), kRecordFixedSize + 1);
}

// Bitmaps of 1, 7, 8, 9 and 64 slots: one byte, a full byte, a second byte
// with one bit, eight full bytes. Every record links a random set of slots,
// its own and the last included.
TEST(SeedLeafTest, SameLeafBitmapsRoundTripAtEveryByteBoundary) {
  Rng rng(505);
  for (const size_t count : {1u, 7u, 8u, 9u, 64u}) {
    SCOPED_TRACE(count);
    PageFile file;
    std::vector<MetadataRecordDraft> drafts;
    for (size_t slot = 0; slot < count; ++slot) {
      std::vector<uint16_t> same;
      for (size_t other = 0; other < count; ++other) {
        if (other + 1 == count || rng.Bernoulli(0.3)) {
          same.push_back(static_cast<uint16_t>(other));
        }
      }
      drafts.push_back(MakeDraft(static_cast<double>(slot), std::move(same),
                                 {{static_cast<PageId>(slot), 3}}, {0x5a5}));
    }
    ExpectLeafRoundTrips(&file, drafts);
  }
}

// A leaf filled to its last byte: hints at even and odd positions, the last
// record ending in an odd hint count's half-used byte at byte 512. Every
// hint, ref and bitmap reads back, and the decoder's end check accepts it.
TEST(SeedLeafTest, HintedLeafEndsOnTheLastByteOfTheSmallestPage) {
  PageFile file(512);
  Rng rng(4242);
  const auto draft = [&](uint32_t cross, double base) {
    std::vector<RecordRef> refs;
    std::vector<uint16_t> hints;
    for (uint32_t i = 0; i < cross; ++i) {
      refs.push_back(RecordRef{static_cast<PageId>(rng.UniformInt(0, 1 << 19)),
                               static_cast<uint16_t>(rng.UniformInt(0, 4095))});
      hints.push_back(static_cast<uint16_t>(rng.UniformInt(0, 0xfff)));
    }
    return MakeDraft(base, {0, 1}, std::move(refs), std::move(hints));
  };
  // Each record costs 40 bytes, its bitmap, and ceil(5.5 k) bytes for k
  // refs: 11 per pair of refs and 6 more for an odd one. Find a record
  // count and a number of odd-count records (the last among them) that fill
  // the page exactly; the first record takes the remaining pairs.
  std::vector<uint32_t> crosses;
  for (size_t records = 2; records <= 16 && crosses.empty(); ++records) {
    const size_t base =
        kSeedLeafHeaderSize + records * RecordFootprint(records, 0);
    for (size_t odd = 1; odd <= records && base <= file.page_size(); ++odd) {
      const size_t left = file.page_size() - base;
      if (left < 6 * odd || (left - 6 * odd) % 11 != 0) continue;
      crosses.assign(records, 0);
      for (size_t i = records - odd; i < records; ++i) crosses[i] = 1;
      crosses[0] += static_cast<uint32_t>(2 * ((left - 6 * odd) / 11));
      break;
    }
  }
  ASSERT_FALSE(crosses.empty());
  ASSERT_GT(crosses[0], 2u);  // hints at even and odd positions
  size_t used = kSeedLeafHeaderSize;
  std::vector<MetadataRecordDraft> drafts;
  for (const uint32_t cross : crosses) {
    used += RecordFootprint(crosses.size(), cross);
    drafts.push_back(draft(cross, static_cast<double>(drafts.size())));
  }
  ASSERT_EQ(used, file.page_size());
  ExpectLeafRoundTrips(&file, drafts);

  const PageId page = 0;
  const SeedLeafView view = ViewOf(file, page);
  const uint16_t last = static_cast<uint16_t>(drafts.size() - 1);
  uint16_t last_offset;
  std::memcpy(&last_offset,
              file.Data(page) + kSeedLeafHeaderSize + last * kSlotDirEntrySize,
              sizeof(last_offset));
  EXPECT_EQ(last_offset + view.RecordAt(last).size(), file.page_size());
}

// The decoder refuses a record that does not lie on its page, a bitmap bit
// at or past the record count, and a leaf whose format byte it does not
// know, naming the page each time.
TEST(SeedLeafTest, CorruptRecordsThrowNamingThePage) {
  PageFile file(512);
  const PageId page = file.Allocate(PageCategory::kSeedLeaf);
  char* data = file.MutableData(page);
  WriteSeedLeaf(data, file.page_size(), 0,
                {MakeDraft(1, {1}, {{9, 1}}, {0x012}), MakeDraft(3)});
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

  char& bitmap = data[offset + kRecordFixedSize];
  bitmap = 1 << 2;  // slot 2 of a two-record leaf
  expect_throw("bitmap bit at the record count");
  bitmap = static_cast<char>(1 << 7);
  expect_throw("bitmap bit past the record count");
  bitmap = 0b11;  // both slots: valid
  EXPECT_NO_THROW((void)ViewOf(file, page).RecordAt(1));

  data[3] = 7;
  expect_throw("unknown leaf format");
  data[3] = 4;
  expect_throw("v4 leaf format of FLATPGF4 files");
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

// The quantizer of FLATPGF4 hints, as it was: a five-point table per axis
// and linear searches. The generalized quantizer at four cells must give the
// same 12-bit codes.
class V4HintGrid {
 public:
  explicit V4HintGrid(const Aabb& tile) : tile_(tile) {
    for (int axis = 0; axis < 3; ++axis) {
      const double lo = tile.lo()[axis];
      const double hi = tile.hi()[axis];
      const double extent = hi - lo;
      points_[axis][0] = lo;
      points_[axis][4] = hi;
      for (int k = 1; k < 4; ++k) {
        points_[axis][k] = std::isfinite(extent) ? lo + extent * (0.25 * k)
                                                 : kNaN;
      }
    }
  }

  uint16_t Encode(const Aabb& tile, const Aabb& page) const {
    const Aabb box = Aabb::Union(Aabb::Intersection(tile_, tile),
                                 Aabb::Intersection(tile_, page));
    if (box.IsEmpty()) return kEmptyHint;
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

 private:
  Aabb tile_;
  double points_[3][5];
};

TEST(QuantGridTest, FourCellsReproduceV4HintCodesBitForBit) {
  Rng rng(1105);
  const Aabb space(Vec3(-20, -20, -20), Vec3(20, 20, 20));
  const auto random_box = [&](double max_half) {
    return Stored(Aabb::FromCenterHalfExtents(
        rng.PointIn(space),
        Vec3(rng.Uniform(0, max_half), rng.Uniform(0, max_half),
             rng.Uniform(0, max_half))));
  };
  for (int i = 0; i < 20000; ++i) {
    const Aabb own = random_box(i % 3 == 0 ? 1 : 30);
    const Aabb tile = random_box(30);
    const Aabb page = i % 5 == 0 ? Aabb() : random_box(20);
    ASSERT_EQ(HintGrid(own).Encode(tile, page),
              V4HintGrid(own).Encode(tile, page))
        << "own " << own << " tile " << tile << " page " << page;
  }
}

// Encodes `box` on the grid of `frame` and checks the decoded box: it holds
// box ∩ frame and lies in the frame, or is empty exactly when box ∩ frame
// is empty (or NaN).
void ExpectDecodedHolds(const Aabb& frame, const Aabb& box, uint32_t cells) {
  const QuantGrid grid(frame, cells);
  const GridBox code = grid.Encode(box);
  for (int axis = 0; axis < 3; ++axis) {
    EXPECT_LE(code.lo[axis], cells);
    EXPECT_LE(code.hi[axis], cells);
  }
  const Aabb want = Aabb::Intersection(frame, box);
  const Aabb decoded = grid.Decode(code);
  if (want.IsEmpty()) {
    EXPECT_TRUE(decoded.IsEmpty()) << decoded;
    return;
  }
  EXPECT_TRUE(decoded.Contains(want))
      << cells << " cells, frame " << frame << " box " << box << " decoded "
      << decoded;
  EXPECT_TRUE(frame.Contains(decoded))
      << cells << " cells, frame " << frame << " decoded " << decoded;
}

TEST(QuantGridTest, DecodedBoxHoldsRandomBoxesAtEveryGrid) {
  Rng rng(2024);
  for (const uint32_t cells : {kHintCells, kHalfCells, kRecordCells}) {
    SCOPED_TRACE(cells);
    for (int i = 0; i < 3000; ++i) {
      const double scale = std::pow(10.0, rng.UniformInt(-30, 30));
      const Aabb space(Vec3(-scale, -scale, -scale), Vec3(scale, scale, scale));
      const auto random_box = [&](double max_half) {
        return Aabb::FromCenterHalfExtents(
            rng.PointIn(space), Vec3(rng.Uniform(0, max_half),
                                     rng.Uniform(0, max_half),
                                     rng.Uniform(0, max_half)));
      };
      const Aabb frame = Stored(random_box(scale));
      ExpectDecodedHolds(frame, random_box(scale * 0.3), cells);
      // A box inside the frame, as the record and half boxes are.
      ExpectDecodedHolds(frame, Aabb::Intersection(frame, random_box(scale)),
                         cells);
    }
  }
}

TEST(QuantGridTest, DecodedBoxHoldsDegenerateBoxesAndFrames) {
  const double denormal = std::numeric_limits<double>::denorm_min();
  const double tiny = 5 * std::numeric_limits<double>::min();
  const Aabb boxes[] = {
      Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)),
      Aabb::FromPoint(Vec3(0.3, 0.7, 0.1)),                  // zero extent
      Aabb(Vec3(0, 0.5, 0.5), Vec3(1, 0.5, 0.5)),            // a segment
      Aabb(Vec3(denormal, 0, 0), Vec3(3 * denormal, 1, 1)),  // denormal
      Aabb(Vec3(-tiny, -tiny, 0), Vec3(tiny, denormal, 1)),
      Aabb(),                                          // empty
      Aabb(Vec3(1, 0, 0), Vec3(0, 1, 1)),              // inverted
      Aabb(Vec3(kNaN, 0, 0), Vec3(1, 1, 1)),           // NaN
      Aabb(Vec3(kNaN, kNaN, kNaN), Vec3(kNaN, kNaN, kNaN)),
      Aabb(Vec3(-kInf, 0, 0), Vec3(0.5, 1, kInf)),     // infinite
      Aabb(Vec3(-kInf, -kInf, -kInf), Vec3(kInf, kInf, kInf)),
  };
  const Aabb frames[] = {
      Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)),
      Aabb(Vec3(-1, -1, -1), Vec3(2, 2, 2)),
      Aabb::FromPoint(Vec3(0.3, 0.7, 0.1)),                 // zero extent
      Aabb(Vec3(0, 0, 0), Vec3(1, 0, 1)),                   // flat in y
      Aabb(Vec3(0, 0, 0), Vec3(7 * denormal, 1, 1)),        // denormal
      Aabb(Vec3(-tiny, -tiny, -tiny), Vec3(tiny, tiny, tiny)),
      Aabb(),                                               // empty
      Aabb(Vec3(kNaN, 0, 0), Vec3(1, 1, 1)),                // NaN
      Aabb(Vec3(-kInf, 0, 0), Vec3(1, 1, kInf)),            // infinite
      Aabb(Vec3(-kInf, -kInf, -kInf), Vec3(kInf, kInf, kInf)),
      Aabb(Vec3(kInf, 0, 0), Vec3(kInf, 1, 1)),
  };
  for (const uint32_t cells : {kHintCells, kHalfCells, kRecordCells}) {
    for (const Aabb& frame : frames) {
      for (const Aabb& box : boxes) ExpectDecodedHolds(frame, box, cells);
      ExpectDecodedHolds(frame, frame, cells);
    }
  }
}

// Every record of a built index: its decoded tile and page MBR hold the
// partition's f32 boxes, and each half-page box holds every element of its
// half that can meet a query. Empty and NaN element boxes included.
TEST(HalfPageBoxTest, EachHalfHoldsItsElementsThatCanMeetAQuery) {
  std::vector<RTreeEntry> elements = testing::RandomEntries(4000, 9090);
  for (size_t i = 0; i < elements.size(); i += 37) {
    elements[i].box = i % 2 == 0 ? Aabb()
                                 : Aabb(Vec3(kNaN, 1, 1), Vec3(kNaN, 2, 2));
  }
  for (const uint32_t page_size : {512u, 4096u}) {
    SCOPED_TRACE(page_size);
    PageFile file(page_size);
    FlatIndex::Build(&file, elements);
    size_t records = 0;
    size_t skipped = 0;
    for (PageId id = 0; id < file.page_count(); ++id) {
      if (file.category(id) != PageCategory::kSeedLeaf) continue;
      const SeedLeafView leaf = ViewOf(file, id);
      for (uint16_t slot = 0; slot < leaf.count(); ++slot) {
        const MetadataRecordView record = leaf.RecordAt(slot);
        ASSERT_EQ(file.category(record.object_page()), PageCategory::kObject);
        const NodeView page(file.Data(record.object_page()));
        const uint16_t n = page.count();
        ++records;
        for (uint16_t i = 0; i < n; ++i) {
          const Aabb box = page.BoxAt(i);
          if (!CanMeet(box)) {
            ++skipped;
            continue;
          }
          EXPECT_TRUE(record.page_mbr().Contains(box));
          EXPECT_TRUE(record.half(i < (n + 1) / 2 ? 0 : 1).Contains(box))
              << "leaf " << id << " slot " << slot << " element " << i;
          EXPECT_TRUE(record.ObjectPageMeets(box));
        }
      }
    }
    EXPECT_EQ(records, file.PageCountIn(PageCategory::kObject));
    EXPECT_GT(skipped, 0u);
  }
}

}  // namespace
}  // namespace flat

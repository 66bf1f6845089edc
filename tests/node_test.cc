#include "rtree/node.h"

#include <gtest/gtest.h>

#include <vector>

#include "storage/page_file.h"

namespace flat {
namespace {

TEST(NodeTest, CapacityMatchesPageSize) {
  EXPECT_EQ(NodeCapacity(4096), (4096u - 8) / 56);  // 73 slots
  EXPECT_EQ(NodeCapacity(1024), (1024u - 8) / 56);
  EXPECT_GE(NodeCapacity(512), 2u) << "tests rely on tiny pages being usable";
}

TEST(NodeTest, InitAndAppendRoundTrip) {
  PageFile file(4096);
  PageId p = file.Allocate(PageCategory::kRTreeLeaf);
  NodeWriter writer(file.MutableData(p), file.page_size());
  writer.Init(/*level=*/0);
  EXPECT_EQ(writer.count(), 0u);
  EXPECT_FALSE(writer.Full());

  std::vector<RTreeEntry> entries;
  for (uint64_t i = 0; i < 10; ++i) {
    RTreeEntry e{Aabb(Vec3(i, i, i), Vec3(i + 1, i + 1, i + 1)), i * 100};
    entries.push_back(e);
    writer.Append(e);
  }

  NodeView view(file.Data(p));
  EXPECT_EQ(view.count(), 10u);
  EXPECT_TRUE(view.is_leaf());
  EXPECT_EQ(view.level(), 0u);
  for (uint16_t i = 0; i < 10; ++i) {
    EXPECT_EQ(view.IdAt(i), entries[i].id);
    EXPECT_EQ(view.BoxAt(i), entries[i].box);
  }
}

TEST(NodeTest, LevelMarksInternalNodes) {
  PageFile file;
  PageId p = file.Allocate(PageCategory::kRTreeInternal);
  NodeWriter writer(file.MutableData(p), file.page_size());
  writer.Init(/*level=*/3);
  NodeView view(file.Data(p));
  EXPECT_FALSE(view.is_leaf());
  EXPECT_EQ(view.level(), 3u);
}

TEST(NodeTest, ExactPagesUntouchedByFormatByte) {
  // A page written by NodeWriter reports format 0 (kExact) — the format byte
  // reuses what was a reserved zero byte, so old pages parse as exact, and
  // the seed-tree walk accepts no other value.
  PageFile file;
  PageId p = file.Allocate(PageCategory::kSeedInternal);
  NodeWriter writer(file.MutableData(p), file.page_size());
  writer.Init(/*level=*/1);
  for (uint64_t i = 0; i < 10; ++i) {
    writer.Append(RTreeEntry{Aabb::FromPoint(Vec3(i, i, i)), i});
  }
  NodeView view(file.Data(p));
  EXPECT_EQ(view.format(), NodeFormat::kExact);
  EXPECT_EQ(static_cast<uint8_t>(view.format()), 0u);
  EXPECT_EQ(view.count(), 10u);
}

TEST(NodeTest, FullAtCapacity) {
  PageFile file(512);
  PageId p = file.Allocate(PageCategory::kRTreeLeaf);
  NodeWriter writer(file.MutableData(p), file.page_size());
  writer.Init(0);
  const uint32_t cap = NodeCapacity(512);
  for (uint32_t i = 0; i < cap; ++i) {
    writer.Append(RTreeEntry{Aabb::FromPoint(Vec3(i, 0, 0)), i});
  }
  EXPECT_TRUE(writer.Full());
  EXPECT_EQ(writer.count(), cap);
}

TEST(NodeTest, SetEntryOverwritesSlot) {
  PageFile file;
  PageId p = file.Allocate(PageCategory::kRTreeLeaf);
  NodeWriter writer(file.MutableData(p), file.page_size());
  writer.Init(0);
  writer.Append(RTreeEntry{Aabb::FromPoint(Vec3(1, 1, 1)), 1});
  writer.Append(RTreeEntry{Aabb::FromPoint(Vec3(2, 2, 2)), 2});
  writer.SetEntry(0, RTreeEntry{Aabb::FromPoint(Vec3(9, 9, 9)), 99});
  NodeView view(file.Data(p));
  EXPECT_EQ(view.IdAt(0), 99u);
  EXPECT_EQ(view.IdAt(1), 2u);
  EXPECT_EQ(view.count(), 2u);
}

TEST(NodeTest, TruncateKeepsLevel) {
  PageFile file;
  PageId p = file.Allocate(PageCategory::kRTreeInternal);
  NodeWriter writer(file.MutableData(p), file.page_size());
  writer.Init(2);
  writer.Append(RTreeEntry{Aabb::FromPoint(Vec3()), 7});
  writer.Truncate();
  EXPECT_EQ(writer.count(), 0u);
  EXPECT_EQ(writer.level(), 2u);
}

TEST(NodeTest, BoundsUnionsAllEntries) {
  PageFile file;
  PageId p = file.Allocate(PageCategory::kRTreeLeaf);
  NodeWriter writer(file.MutableData(p), file.page_size());
  writer.Init(0);
  writer.Append(RTreeEntry{Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), 0});
  writer.Append(RTreeEntry{Aabb(Vec3(5, -2, 0), Vec3(6, 0, 3)), 1});
  Aabb bounds = NodeView(file.Data(p)).Bounds();
  EXPECT_EQ(bounds.lo(), Vec3(0, -2, 0));
  EXPECT_EQ(bounds.hi(), Vec3(6, 1, 3));
}

}  // namespace
}  // namespace flat

#ifndef FLAT_RTREE_NODE_H_
#define FLAT_RTREE_NODE_H_

#include <cassert>
#include <cstdint>
#include <cstring>

#include "geometry/aabb.h"
#include "rtree/entry.h"
#include "storage/page.h"

namespace flat {

/// On-page format of a node's slots. kExact, full RTreeEntry slots, is the
/// only node format. The tag lives in the header byte that was reserved
/// (zero) in every file written before formats existed, so old pages parse
/// as kExact unchanged. Byte value 1 is retired (docs/file_format.md §2.1)
/// and 2 marks tile-directory pages (core/tile_directory.cc); the seed-tree
/// walk rejects any page whose byte is not 0.
enum class NodeFormat : uint8_t {
  kExact = 0,
};

/// On-page node header. Level 0 is a leaf; level k > 0 is k steps above the
/// leaves. The same layout backs R-Tree nodes, FLAT object pages and FLAT
/// seed-tree internal pages.
struct NodeHeader {
  uint16_t count = 0;
  uint8_t level = 0;
  uint8_t format = 0;  ///< NodeFormat: 0 (kExact) on every node page
  uint32_t reserved32 = 0;
};

inline constexpr size_t kNodeHeaderSize = sizeof(NodeHeader);
static_assert(kNodeHeaderSize == 8);

/// Maximum number of RTreeEntry slots on an exact page of the given size.
inline constexpr uint32_t NodeCapacity(uint32_t page_size) {
  return (page_size - kNodeHeaderSize) / sizeof(RTreeEntry);
}

// The derived sizes and fanouts, asserted in one place (entry.h and the
// docs refer here instead of quoting numbers that drift): 56-byte exact
// slots give fanout 73 on the default 4 KiB page. The 512-byte page (9
// slots) is the small configuration the unit tests use to exercise
// multi-level trees cheaply.
static_assert(sizeof(Aabb) == 48, "Aabb is serialized as 6 f64");
static_assert(sizeof(RTreeEntry) == 56 && NodeCapacity(4096) == 73);
static_assert(NodeCapacity(512) == 9);

/// Read-only view over an exact node page obtained from a BufferPool (or,
/// during construction, directly from a PageFile). The entry accessors
/// require an exact page (format() == kExact).
class NodeView {
 public:
  explicit NodeView(const char* data) : data_(data) {
    std::memcpy(&header_, data_, sizeof(header_));
  }

  uint16_t count() const { return header_.count; }
  uint8_t level() const { return header_.level; }
  bool is_leaf() const { return header_.level == 0; }
  NodeFormat format() const { return static_cast<NodeFormat>(header_.format); }

  RTreeEntry EntryAt(uint16_t i) const {
    assert(i < header_.count);
    assert(format() == NodeFormat::kExact);
    RTreeEntry e;
    std::memcpy(&e, data_ + kNodeHeaderSize + i * sizeof(RTreeEntry),
                sizeof(e));
    return e;
  }

  Aabb BoxAt(uint16_t i) const { return EntryAt(i).box; }
  uint64_t IdAt(uint16_t i) const { return EntryAt(i).id; }

  /// Union of all entry boxes.
  Aabb Bounds() const {
    Aabb box;
    for (uint16_t i = 0; i < count(); ++i) box.ExpandToInclude(BoxAt(i));
    return box;
  }

 private:
  const char* data_;
  NodeHeader header_;
};

/// Mutable accessor used by bulkloaders and the dynamic R*-tree.
class NodeWriter {
 public:
  NodeWriter(char* data, uint32_t page_size)
      : data_(data), capacity_(NodeCapacity(page_size)) {}

  /// Zeroes the header and sets the level; must be called on fresh pages.
  void Init(uint8_t level) {
    NodeHeader header;
    header.level = level;
    std::memcpy(data_, &header, sizeof(header));
  }

  uint16_t count() const {
    NodeHeader header;
    std::memcpy(&header, data_, sizeof(header));
    return header.count;
  }

  uint8_t level() const {
    NodeHeader header;
    std::memcpy(&header, data_, sizeof(header));
    return header.level;
  }

  uint32_t capacity() const { return capacity_; }

  bool Full() const { return count() >= capacity_; }

  /// Appends an entry; the node must not be full.
  void Append(const RTreeEntry& entry) {
    NodeHeader header;
    std::memcpy(&header, data_, sizeof(header));
    assert(header.count < capacity_);
    std::memcpy(data_ + kNodeHeaderSize + header.count * sizeof(RTreeEntry),
                &entry, sizeof(entry));
    ++header.count;
    std::memcpy(data_, &header, sizeof(header));
  }

  /// Overwrites slot `i` (must be < count()).
  void SetEntry(uint16_t i, const RTreeEntry& entry) {
    assert(i < count());
    std::memcpy(data_ + kNodeHeaderSize + i * sizeof(RTreeEntry), &entry,
                sizeof(entry));
  }

  RTreeEntry EntryAt(uint16_t i) const { return NodeView(data_).EntryAt(i); }

  /// Drops all entries, keeping the level.
  void Truncate() {
    NodeHeader header;
    std::memcpy(&header, data_, sizeof(header));
    header.count = 0;
    std::memcpy(data_, &header, sizeof(header));
  }

 private:
  char* data_;
  uint32_t capacity_;
};

}  // namespace flat

#endif  // FLAT_RTREE_NODE_H_

#ifndef FLAT_RTREE_AGGREGATES_H_
#define FLAT_RTREE_AGGREGATES_H_

#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "storage/page_file.h"

namespace flat {

/// Per-subtree aggregates for the seed hierarchy (aR-tree style): for every
/// (interior page, slot) — and every (seed-leaf page, record slot) — the
/// number of elements in the child's subtree and the number of pages a
/// descent into it would read (the child page itself plus everything below;
/// for a metadata record, its one object page). A range count whose query
/// fully covers a child's MBR adds `elements` in O(1) instead of descending,
/// and `pages` gives the exact reads-saved accounting benches report.
///
/// The aggregates live *outside* the PageFile, in a sidecar keyed by
/// (page, slot): node pages stay byte-identical to non-aggregated builds —
/// preserving the standing byte-identity invariants (across thread counts,
/// post-compaction, and the FLATPGF on-disk format) — and a missing or
/// unconvincing sidecar entry simply falls back to the exact descent, so
/// hostile sidecar *content* can cost performance but never correctness
/// (structural corruption is still rejected by the loader, like every other
/// loader in the repo).
struct AggEntry {
  uint64_t elements = 0;  ///< elements in the child's subtree
  uint32_t pages = 0;     ///< pages a full descent would read (incl. child)
};

inline bool operator==(const AggEntry& a, const AggEntry& b) {
  return a.elements == b.elements && a.pages == b.pages;
}

/// The (page, slot) -> AggEntry map of one built index, immutable after
/// build/load. Lookups are one hash probe plus an indexed access; a slot
/// with no entry (or a zero-element entry — no real subtree is empty)
/// returns nullptr, which query code treats as "descend exactly".
class SeedAggregates {
 public:
  /// The entry for `slot` of `page`, or nullptr when absent.
  const AggEntry* Find(PageId page, uint16_t slot) const {
    auto it = pages_.find(page);
    if (it == pages_.end() || slot >= it->second.size()) return nullptr;
    const AggEntry& e = it->second[slot];
    return e.elements == 0 ? nullptr : &e;
  }

  /// Records `entry` for (page, slot), growing the slot vector as needed
  /// (gaps are zero entries, i.e. absent).
  void Set(PageId page, uint16_t slot, const AggEntry& entry) {
    std::vector<AggEntry>& slots = pages_[page];
    if (slots.size() <= slot) slots.resize(slot + 1);
    slots[slot] = entry;
  }

  /// Total elements across the whole index (the root's subtree); persisted
  /// so loaders can cross-check the sidecar against the catalog.
  uint64_t total_elements() const { return total_elements_; }
  void set_total_elements(uint64_t total) { total_elements_ = total; }

  bool empty() const { return pages_.empty(); }
  size_t page_count() const { return pages_.size(); }

  /// Unordered iteration over (page, slot vector) groups — serialization
  /// sorts the pages itself; tests compare as sets.
  template <typename Fn>
  void ForEachPage(Fn&& fn) const {
    for (const auto& kv : pages_) fn(kv.first, kv.second);
  }

  /// The dense slot vector of `page` (zero entries are absent slots), or
  /// nullptr when the page has no group.
  const std::vector<AggEntry>* Slots(PageId page) const {
    auto it = pages_.find(page);
    return it == pages_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<PageId, std::vector<AggEntry>> pages_;
  uint64_t total_elements_ = 0;
};

/// Build-side accumulator threaded through the level-packing loop
/// (rtree/pack.cc): FlatIndex::Build seeds it with the per-record and
/// per-seed-leaf totals, PackLevel then records one sidecar entry per
/// (parent page, slot) and rolls child totals up into the parent's. All of
/// it runs on the (serial) page-writing path over deterministically ordered
/// entries, so the finished sidecar is byte-identical across thread counts,
/// like the PageFile itself.
class AggregateBuilder {
 public:
  /// Sidecar entry for one child slot.
  void RecordSlot(PageId page, uint16_t slot, const AggEntry& entry) {
    aggregates_.Set(page, slot, entry);
  }

  /// Declares `page`'s full subtree total, making it available to the level
  /// above. FlatIndex::Build seeds seed-leaf pages; PackLevel adds each
  /// packed parent.
  void SetPageTotal(PageId page, const AggEntry& total) {
    totals_[page] = total;
  }

  /// The subtree total of `page`, or nullptr if never declared (an
  /// incomplete child keeps its parents incomplete too — lookups at query
  /// time then fall back to the exact descent).
  const AggEntry* PageTotal(PageId page) const {
    auto it = totals_.find(page);
    return it == totals_.end() ? nullptr : &it->second;
  }

  /// Finalizes: stamps `total` as the index-wide element count and yields
  /// the finished sidecar.
  SeedAggregates Finish(uint64_t total_elements) {
    aggregates_.set_total_elements(total_elements);
    return std::move(aggregates_);
  }

 private:
  SeedAggregates aggregates_;
  std::unordered_map<PageId, AggEntry> totals_;
};

/// Binary sidecar serialization ("FLATAGG1", little-endian):
///   magic "FLATAGG1" | u64 total_elements | u64 page_group_count |
///   per group (ascending PageId): u32 page | u32 slot_count |
///     slot_count x (u64 elements | u32 pages)
/// Groups are written in ascending PageId and slots densely from 0 (absent
/// slots as zero entries), so equal maps serialize byte-identically.
void SaveSeedAggregates(const SeedAggregates& aggregates, std::ostream& out);

/// Loads a sidecar written by SaveSeedAggregates. All header counts are
/// untrusted: parsing is incremental, every count is bounded (slots by the
/// u16 slot range, groups by the remaining stream) before anything is
/// allocated from it, and bad magic / truncation / out-of-order or
/// duplicate groups throw std::runtime_error — the same hostile-input
/// stance as DiskPageFile::Open.
SeedAggregates LoadSeedAggregates(std::istream& in);

}  // namespace flat

#endif  // FLAT_RTREE_AGGREGATES_H_

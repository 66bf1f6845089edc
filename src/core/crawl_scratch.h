#ifndef FLAT_CORE_CRAWL_SCRATCH_H_
#define FLAT_CORE_CRAWL_SCRATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/metadata.h"
#include "core/query_control.h"
#include "geometry/box_kernels.h"
#include "storage/io_stats.h"

namespace flat {

/// Reusable scratch state for the crawl BFS (Algorithm 2): an open-addressing
/// visited set keyed on RecordRef::Key(), a flat ring buffer for the BFS
/// queue, and the hit-mask buffer for batched page scans.
///
/// A crawl used to allocate a fresh std::unordered_set and std::deque per
/// query, which dominates per-query CPU once pages are cached. One
/// CrawlScratch per caller (the QueryEngine keeps one per worker) makes the
/// hot path allocation-free: Reset() is O(1) — slots are epoch-stamped, so a
/// new crawl invalidates the old entries by bumping the epoch instead of
/// clearing the table — and capacity only grows to the largest crawl seen.
/// Reusing or not reusing a scratch never changes results — the visited-set
/// and queue semantics are identical to the containers they replace.
/// Not thread-safe; use one instance per thread.
class CrawlScratch {
 public:
  CrawlScratch() : slots_(kInitialSlots), ring_(kInitialRing) {}

  /// Prepares for a new crawl; keeps all capacity.
  void Reset() {
    if (++epoch_ == 0) {
      // Epoch wrapped (after 2^32 resets): restamp everything stale once.
      for (Slot& slot : slots_) slot.epoch = 0;
      epoch_ = 1;
    }
    inserted_ = 0;
    head_ = 0;
    tail_ = 0;
    queued_ = 0;
  }

  /// Inserts `key` into the visited set; true iff it was not yet present.
  bool Insert(uint64_t key) {
    if (inserted_ * 8 >= slots_.size() * 5) GrowSlots();
    const size_t mask = slots_.size() - 1;
    size_t i = Mix(key) & mask;
    for (;;) {
      Slot& slot = slots_[i];
      if (slot.epoch != epoch_) {  // stale or never used: free
        slot.key = key;
        slot.epoch = epoch_;
        ++inserted_;
        return true;
      }
      if (slot.key == key) return false;
      i = (i + 1) & mask;
    }
  }

  void Push(const RecordRef& ref) {
    if (queued_ == ring_.size()) GrowRing();
    ring_[tail_] = ref;
    tail_ = (tail_ + 1) & (ring_.size() - 1);
    ++queued_;
  }

  bool Pop(RecordRef* out) {
    if (queued_ == 0) return false;
    *out = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --queued_;
    return true;
  }

  /// At least `count` bytes for a batched hit mask (IntersectsBatch,
  /// IntersectsSoa, SphereGateSoa).
  uint8_t* Hits(size_t count) {
    if (hits_.size() < count) hits_.resize(count);
    return hits_.data();
  }

  /// Second hit-mask buffer for the containment ("covered") gate of the
  /// aggregate-pruned descent, which runs alongside the intersection mask
  /// of the same node (ContainsBatch) — a separate buffer so the two masks
  /// coexist.
  uint8_t* CoverHits(size_t count) {
    if (cover_hits_.size() < count) cover_hits_.resize(count);
    return cover_hits_.data();
  }

  /// Reusable structure-of-arrays transpose buffer: the crawl re-lays a
  /// visited node page's entry MBRs into SoA lanes once, then gates the
  /// whole fanout with one SoA gate (IntersectsSoa or SphereGateSoa, see
  /// geometry/box_kernels.h).
  SoaBoxes& Soa() { return soa_; }

  /// Binds the fail-soft control the query loops check at their cancellation
  /// points, and the IoStats the executing query charges reads to (for the
  /// budget check). Bound by the dispatch layer for the duration of one
  /// query; BindControl(nullptr, nullptr) unbinds. Reset() deliberately
  /// leaves the binding alone — a query runs many Reset()s (seed probes,
  /// kNN radius doubling) under one control.
  void BindControl(const QueryControl* control, const IoStats* io) {
    control_ = control;
    control_io_ = io;
  }

  /// Cancellation point: throws QueryAbort when the bound control's cancel
  /// token, group, deadline, or I/O budget tripped. With no control bound
  /// (the default) this is a single always-taken predictable branch, so the
  /// seed/crawl hot loops stay bit-identical and effectively free of cost
  /// for uncontrolled queries.
  void CheckControl() const {
    if (control_ != nullptr) ThrowIfStopped(*control_, control_io_);
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t epoch = 0;  // occupied iff epoch == CrawlScratch::epoch_
  };

  static constexpr size_t kInitialSlots = 1024;  // power of two
  static constexpr size_t kInitialRing = 256;    // power of two

  // splitmix64 finalizer; RecordRef keys are dense in the low bits.
  static uint64_t Mix(uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  void GrowSlots() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});  // epoch 0 is always stale here
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.epoch != epoch_) continue;
      size_t i = Mix(slot.key) & mask;
      while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  void GrowRing() {
    std::vector<RecordRef> bigger(ring_.size() * 2);
    for (size_t i = 0; i < queued_; ++i) {
      bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(bigger);
    head_ = 0;
    tail_ = queued_;
  }

  std::vector<Slot> slots_;  // visited set, linear probing
  uint32_t epoch_ = 1;       // zero-initialized slots start out stale
  size_t inserted_ = 0;
  std::vector<RecordRef> ring_;  // BFS queue
  size_t head_ = 0;
  size_t tail_ = 0;
  size_t queued_ = 0;
  std::vector<uint8_t> hits_;
  std::vector<uint8_t> cover_hits_;
  SoaBoxes soa_;
  const QueryControl* control_ = nullptr;  // null = uncontrolled (hot path)
  const IoStats* control_io_ = nullptr;
};

}  // namespace flat

#endif  // FLAT_CORE_CRAWL_SCRATCH_H_

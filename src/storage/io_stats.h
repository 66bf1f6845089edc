#ifndef FLAT_STORAGE_IO_STATS_H_
#define FLAT_STORAGE_IO_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "storage/page.h"

namespace flat {

/// Per-category page-read counters. All query-time experiments in the paper
/// report either total page reads or a per-category breakdown; every index in
/// this repository performs reads through a BufferPool that charges misses
/// here, so FLAT and the R-Tree baselines are accounted identically.
///
/// Overlay probes are carried alongside but deliberately separate: a query
/// against a store with a delta overlay gate-tests in-memory overlay entries
/// that live on no page, so charging them as page reads would corrupt the
/// paper's I/O metrics.
/// One probe = one live overlay entry tested against a query's gate; the
/// count depends only on the snapshot's overlay contents, never on thread
/// count or execution order.
class IoStats {
 public:
  void RecordRead(PageCategory category) {
    ++reads_[static_cast<size_t>(category)];
  }

  void RecordOverlayProbes(uint64_t count) { overlay_probes_ += count; }

  /// Fail-soft counters (see docs/architecture.md "Fail-soft execution").
  /// Retries: transient page-read failures (EINTR, injected or real I/O
  /// errors within the backoff budget) recovered while serving this query's
  /// reads — the read still succeeded and is counted once in `reads_`.
  /// Errors: unrecoverable read failures converted to kIoError results.
  /// Sheds: queries rejected by admission control before execution.
  void RecordIoRetries(uint64_t count) { io_retries_ += count; }
  void RecordIoError() { ++io_errors_; }
  void RecordQueryShed() { ++queries_shed_; }

  uint64_t OverlayProbes() const { return overlay_probes_; }
  uint64_t IoRetries() const { return io_retries_; }
  uint64_t IoErrors() const { return io_errors_; }
  uint64_t QueriesShed() const { return queries_shed_; }

  uint64_t ReadsIn(PageCategory category) const {
    return reads_[static_cast<size_t>(category)];
  }

  uint64_t TotalReads() const {
    uint64_t total = 0;
    for (uint64_t r : reads_) total += r;
    return total;
  }

  /// Total bytes fetched assuming `page_size` bytes per read.
  uint64_t BytesRead(uint32_t page_size) const {
    return TotalReads() * page_size;
  }

  void Reset() {
    reads_.fill(0);
    overlay_probes_ = 0;
    io_retries_ = 0;
    io_errors_ = 0;
    queries_shed_ = 0;
  }

  IoStats& operator+=(const IoStats& other) {
    for (size_t i = 0; i < reads_.size(); ++i) reads_[i] += other.reads_[i];
    overlay_probes_ += other.overlay_probes_;
    io_retries_ += other.io_retries_;
    io_errors_ += other.io_errors_;
    queries_shed_ += other.queries_shed_;
    return *this;
  }

  /// Difference since a snapshot (for per-query accounting).
  IoStats DeltaSince(const IoStats& snapshot) const {
    IoStats delta;
    for (size_t i = 0; i < reads_.size(); ++i) {
      delta.reads_[i] = reads_[i] - snapshot.reads_[i];
    }
    delta.overlay_probes_ = overlay_probes_ - snapshot.overlay_probes_;
    delta.io_retries_ = io_retries_ - snapshot.io_retries_;
    delta.io_errors_ = io_errors_ - snapshot.io_errors_;
    delta.queries_shed_ = queries_shed_ - snapshot.queries_shed_;
    return delta;
  }

  /// Every counter equal (reads per category, overlay, fail-soft).
  bool operator==(const IoStats&) const = default;

 private:
  std::array<uint64_t, kNumPageCategories> reads_{};
  uint64_t overlay_probes_ = 0;
  uint64_t io_retries_ = 0;
  uint64_t io_errors_ = 0;
  uint64_t queries_shed_ = 0;
};

}  // namespace flat

#endif  // FLAT_STORAGE_IO_STATS_H_

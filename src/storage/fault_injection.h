#ifndef FLAT_STORAGE_FAULT_INJECTION_H_
#define FLAT_STORAGE_FAULT_INJECTION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/page.h"
#include "storage/page_store.h"

namespace flat {

/// What a scheduled fault does to one page-read attempt.
enum class FaultKind : uint8_t {
  kNone,       ///< no fault; the attempt succeeds normally.
  kError,      ///< the attempt fails with `error_number` (transient: the
               ///< reader retries with bounded backoff; permanent once the
               ///< retry budget is exhausted).
  kEintr,      ///< the attempt is interrupted (EINTR); retried immediately.
  kShortRead,  ///< the attempt transfers only `short_bytes` bytes; the
               ///< reader continues from the partial progress.
  kLatency,    ///< the attempt sleeps `latency_micros` then succeeds.
};

/// One scheduled fault: "page `page`'s attempt number `attempt` (1-based,
/// counted per page across the store's lifetime) behaves as `kind`".
struct FaultSpec {
  PageId page = kInvalidPageId;
  uint32_t attempt = 1;
  FaultKind kind = FaultKind::kError;
  int error_number = 5;          // EIO; used by kError.
  uint32_t latency_micros = 0;   // used by kLatency.
  uint32_t short_bytes = 1;      // used by kShortRead (clamped to >= 1).
};

/// A deterministic, schedule-driven fault plan shared by
/// FaultInjectingPageStore and DiskPageFile's pread path: the test/bench
/// author lists exactly which (page, attempt) pairs misbehave and how, so a
/// run either recovers bit-identically or fails with a typed status — never
/// "flaky". Thread-safe: per-page attempt counters advance under a mutex
/// (fault schedules are test machinery, not a hot path). Pages with no
/// entry never fault and pay one map lookup per read attempt.
class FaultSchedule {
 public:
  void Add(const FaultSpec& spec);

  /// Convenience: fail `page`'s next `times` attempts (attempts 1..times)
  /// with `error_number`.
  void FailRead(PageId page, uint32_t times, int error_number = 5);

  /// Consumes the next attempt for `page`: bumps its attempt counter and
  /// returns the fault registered for that attempt (kind == kNone when the
  /// attempt is clean). Every call is one attempt — success or not.
  FaultSpec Next(PageId page) const;

  /// Total non-kNone faults handed out so far, and per-kind breakdowns.
  uint64_t faults_fired() const;
  uint64_t fired(FaultKind kind) const;

  /// Number of scheduled specs (static; Add-time).
  size_t scheduled() const;

  /// Rewinds all attempt counters and fired counts (between bench passes).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::unordered_map<PageId, std::vector<FaultSpec>> by_page_;
  mutable std::unordered_map<PageId, uint32_t> attempts_;
  mutable std::array<uint64_t, 5> fired_{};  // indexed by FaultKind
};

/// Per-thread running count of transient page-read retries performed by the
/// storage backends (DiskPageFile's pread recovery and
/// FaultInjectingPageStore). BufferPool samples this counter around
/// PageStore::Data() on a cache miss and charges the delta to the querying
/// IoStats — deterministic per-query retry attribution without threading a
/// stats pointer through the const PageStore interface.
uint64_t ThreadReadRetries();
void AddThreadReadRetries(uint64_t count);

/// A PageStore wrapper that injects the faults of a FaultSchedule in front
/// of any inner store, applying the same recovery policy as DiskPageFile's
/// pread path: EINTR and short reads continue immediately, transient errors
/// retry (without sleeping — deterministic tests shouldn't), and an error
/// that outlives the retry budget throws std::runtime_error (which the query dispatch layer
/// converts to a kIoError result). With an empty schedule the wrapper is
/// transparent: results, IoStats, and pointer stability are bit-identical
/// to the inner store's. Thread-safe wherever the inner store is.
class FaultInjectingPageStore final : public PageStore {
 public:
  struct Options {
    /// Transient-error retries before the read fails permanently.
    uint32_t max_read_retries = 4;
  };

  /// `inner` and `schedule` must outlive the wrapper; `schedule` may be
  /// null (never faults).
  FaultInjectingPageStore(const PageStore* inner, const FaultSchedule* schedule)
      : FaultInjectingPageStore(inner, schedule, Options()) {}
  FaultInjectingPageStore(const PageStore* inner,
                          const FaultSchedule* schedule, Options options);

  const char* Data(PageId id) const override;
  PageCategory category(PageId id) const override;
  uint32_t page_size() const override;
  size_t page_count() const override;
  size_t PageCountIn(PageCategory category) const override;
  uint64_t SizeBytes() const override;

  /// Transient faults recovered (EINTR + retried errors) and permanent
  /// failures thrown, across all threads.
  uint64_t read_retries() const {
    return read_retries_.load(std::memory_order_relaxed);
  }
  uint64_t read_errors() const {
    return read_errors_.load(std::memory_order_relaxed);
  }

  const PageStore* inner() const { return inner_; }

 private:
  const PageStore* inner_;
  const FaultSchedule* schedule_;
  Options options_;
  mutable std::atomic<uint64_t> read_retries_{0};
  mutable std::atomic<uint64_t> read_errors_{0};
};

}  // namespace flat

#endif  // FLAT_STORAGE_FAULT_INJECTION_H_

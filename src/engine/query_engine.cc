#include "engine/query_engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "core/overlay_merge.h"
#include "delta/overlay_view.h"
#include "storage/buffer_pool.h"

namespace flat {
namespace {

// Binds a query's control (and the IoStats its budget meters) to the
// executing scratch for the duration of one dispatch, unbinding on every
// exit path — the scratch is reused by the worker's next query, which may
// carry no control at all.
class ScratchControlGuard {
 public:
  ScratchControlGuard(CrawlScratch* scratch, const QueryControl* control,
                      const IoStats* io)
      : scratch_(control != nullptr ? scratch : nullptr) {
    if (scratch_ != nullptr) scratch_->BindControl(control, io);
  }
  ~ScratchControlGuard() {
    if (scratch_ != nullptr) scratch_->BindControl(nullptr, nullptr);
  }

  ScratchControlGuard(const ScratchControlGuard&) = delete;
  ScratchControlGuard& operator=(const ScratchControlGuard&) = delete;

 private:
  CrawlScratch* scratch_;
};

// Turns an escaped execution exception into the query's typed fail-soft
// outcome: QueryAbort carries its own status; anything else is an I/O
// failure (the storage backends throw std::runtime_error once their retry
// budget is exhausted). std::logic_error — API misuse, e.g. kKnn over an
// overlay — is NOT absorbed; the caller rethrows it. The partial ids
// gathered so far remain valid (over an overlay they are already masked:
// DispatchQueryImpl masks a stopped base pass); kRangeCount partials keep
// the tally accumulated up to the stop point (RangeCountInto bumps the
// result's counter in place; the overlay path materializes ids, so the
// larger of the two is the matches seen so far) — consistent with partial
// kRange keeping its ids (core/query_control.h).
void SettleFailedResult(const Query& query, QueryResult* result) {
  if (query.type == Query::Type::kRangeCount) {
    result->count = std::max<uint64_t>(result->count, result->ids.size());
    result->ids.clear();
  } else {
    result->count = result->ids.size();
  }
}

}  // namespace

QueryEngine::QueryEngine(const FlatIndex* index, Options options)
    : index_(index),
      options_(options),
      pool_(options.threads),
      workers_(pool_.threads()) {
  options_.threads = pool_.threads();
}

QueryEngine::~QueryEngine() = default;

std::vector<QueryResult> QueryEngine::Run(const std::vector<Query>& batch,
                                          BatchStats* stats) {
  if (index_ == nullptr) {
    // Loud, not assert-only: in Release an assert would vanish and every
    // query would silently come back empty through the null-index path.
    throw std::logic_error(
        "QueryEngine::Run(vector<Query>) requires an engine bound to an "
        "index; use RunMulti on an index-free engine");
  }
  std::vector<IndexedQuery> indexed(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    indexed[i].index = index_;
    indexed[i].query = batch[i];
  }
  return RunMulti(indexed, stats);
}

std::vector<QueryResult> QueryEngine::RunMulti(
    const std::vector<IndexedQuery>& batch, BatchStats* stats) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<QueryResult> results =
      RunOn(&pool_, options_.max_queued_queries, workers_.data(), batch);
  if (stats != nullptr) {
    *stats = BatchStats{};
    stats->threads = pool_.threads();
    for (const QueryResult& r : results) stats->Record(r);
    stats->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  return results;
}

std::vector<QueryResult> QueryEngine::RunInline(
    const std::vector<IndexedQuery>& batch) {
  WorkerState state;
  return RunOn(nullptr, /*max_queued_queries=*/0, &state, batch);
}

std::vector<QueryResult> QueryEngine::RunOn(
    ThreadPool* pool, size_t max_queued_queries, WorkerState* workers,
    const std::vector<IndexedQuery>& batch) {
  std::vector<QueryResult> results(batch.size());

  // Admission control: shed the batch tail beyond the configured queue
  // bound before any work is dispatched. Shed queries cost no I/O and come
  // back immediately as kRejected — a typed outcome the caller can retry,
  // not an error.
  size_t admitted = batch.size();
  if (max_queued_queries > 0 && batch.size() > max_queued_queries) {
    admitted = max_queued_queries;
    for (size_t i = admitted; i < batch.size(); ++i) {
      results[i].status = QueryStatus::kRejected;
      results[i].io.RecordQueryShed();
    }
  }

  // Grain 1: each worker claims the next query off the shared cursor, so a
  // few crawl-heavy queries never strand a block of cheap ones behind them.
  ParallelFor(pool, admitted, /*grain=*/1, [&](size_t worker, size_t index) {
    ExecuteQuery(batch[index], &results[index], &workers[worker]);
  });
  return results;
}

namespace {

void DispatchQueryImpl(const IndexedQuery& iq, PageCache* cache,
                       QueryResult* result, CrawlScratch* scratch) {
  const Query& query = iq.query;
  const FlatIndex* index =
      iq.index != nullptr && iq.index->file() != nullptr ? iq.index : nullptr;
  const OverlayView* overlay =
      iq.overlay != nullptr && !iq.overlay->empty() ? iq.overlay : nullptr;
  if (overlay == nullptr && query.type == Query::Type::kRangeCount) {
    // Accumulates into the result's counter in place so a fail-soft stop
    // surfaces the partial tally (SettleFailedResult keeps it).
    if (index != nullptr) {
      index->RangeCountInto(cache, query.box, &result->count, scratch);
    }
    return;
  }
  if (overlay != nullptr && query.type == Query::Type::kKnn) {
    throw std::logic_error(
        "DispatchQuery: kKnn is not supported over a delta overlay");
  }

  std::vector<uint64_t>* ids = &result->ids;
  if (index != nullptr) {
    try {
      switch (query.type) {
        case Query::Type::kRange:
        case Query::Type::kRangeCount:  // overlayed: masking needs the ids
          index->RangeQuery(cache, query.box, ids, scratch);
          break;
        case Query::Type::kSeedScan:
          index->RangeQueryViaSeedScan(cache, query.box, ids, scratch);
          break;
        case Query::Type::kKnn:
          *ids = index->KnnQuery(cache, query.center, query.k, scratch);
          break;
        case Query::Type::kSphere:
          index->SphereQuery(cache, query.center, query.radius, ids, scratch);
          break;
      }
    } catch (...) {
      // A stop mid-pass (deadline, cancel, budget, I/O error) leaves raw base
      // ids; mask them as a finished pass would, so the partial stays a
      // subset of the snapshot's answer. No overlay match is appended yet.
      if (overlay != nullptr) FilterOverlayMasked(*overlay, ids);
      throw;
    }
  }
  if (overlay != nullptr) {
    FilterOverlayMasked(*overlay, ids);
    uint64_t probes = 0;
    switch (query.type) {
      case Query::Type::kRangeCount:
        result->count = ids->size();
        probes = CountOverlayRangeMatches(*overlay, iq.overlay_bucket,
                                          query.box, &result->count, scratch);
        ids->clear();
        break;
      case Query::Type::kSphere:
        probes = AppendOverlaySphereMatches(*overlay, iq.overlay_bucket,
                                            query.center, query.radius, ids,
                                            scratch);
        break;
      default:
        probes = AppendOverlayRangeMatches(*overlay, iq.overlay_bucket,
                                           query.box, ids, scratch);
        break;
    }
    result->io.RecordOverlayProbes(probes);
  }
  if (query.type != Query::Type::kRangeCount) result->count = ids->size();
}

}  // namespace

void DispatchQuery(const IndexedQuery& iq, PageCache* cache,
                   QueryResult* result, CrawlScratch* scratch) {
  // A controlled query needs a scratch to carry its control binding into
  // the traversal's cancellation points; materialize a throwaway if the
  // caller brought none. Uncontrolled queries skip all of this.
  const Query& query = iq.query;
  std::optional<CrawlScratch> throwaway;
  if (query.control != nullptr && scratch == nullptr) {
    scratch = &throwaway.emplace();
  }
  ScratchControlGuard guard(scratch, query.control, &result->io);
  try {
    DispatchQueryImpl(iq, cache, result, scratch);
  } catch (const QueryAbort& abort) {
    result->status = abort.status();
    SettleFailedResult(query, result);
  } catch (const std::logic_error&) {
    throw;  // API misuse (kKnn over an overlay and friends) stays loud
  } catch (const std::exception& e) {
    result->status = QueryStatus::kIoError;
    result->error = e.what();
    result->io.RecordIoError();
    SettleFailedResult(query, result);
  }
}

void QueryEngine::ExecuteQuery(const IndexedQuery& iq, QueryResult* result,
                               WorkerState* state) {
  const PageStore* file = iq.index != nullptr ? iq.index->file() : nullptr;
  if (file == nullptr) {
    // No PageStore to read from: without an overlay the query legitimately
    // returns empty; with one it is a pure overlay bucket scan (the spill
    // tail of an overlayed store) — no cache needed.
    DispatchQuery(iq, nullptr, result, &state->scratch);
  } else {
    // Recycle the worker's pool — Clear() is an O(1) epoch bump, so this is
    // exactly as cold as a fresh pool (identical IoStats) without
    // rebuilding the page table per query.
    BufferPool* pool = state->pool.get();
    if (pool == nullptr || &pool->store() != file) {
      state->pool = std::make_unique<BufferPool>(file, &result->io);
      pool = state->pool.get();
    } else {
      pool->Clear();
      pool->set_stats(&result->io);
    }
    DispatchQuery(iq, pool, result, &state->scratch);
  }
  // A failing sub-query poisons its group (if any) so scattered siblings of
  // the same logical query observe the cancellation at their next
  // cancellation point instead of running to completion for a result that
  // will be discarded.
  if (result->status != QueryStatus::kOk && iq.query.control != nullptr &&
      iq.query.control->group != nullptr) {
    iq.query.control->group->SignalFailure(result->status);
  }
}

}  // namespace flat

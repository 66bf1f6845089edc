#include "engine/query_engine.h"

#include <algorithm>
#include <cassert>
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
// gathered so far remain valid; kRangeCount partials keep the tally
// accumulated up to the stop point (RangeCountInto bumps the result's
// counter in place; the overlay path materializes ids, so the larger of
// the two is the matches seen so far) — consistent with partial kRange
// keeping its ids (core/query_control.h).
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
    : index_(index), options_(options), pool_(options.threads) {
  options_.threads = pool_.threads();
  queues_.reserve(pool_.threads());
  workers_.reserve(pool_.threads());
  for (size_t i = 0; i < pool_.threads(); ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
    workers_.push_back(std::make_unique<WorkerState>());
  }
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
  std::vector<QueryResult> results(batch.size());

  // Admission control: shed the batch tail beyond the configured queue
  // bound before any work is enqueued. Shed queries cost no I/O and come
  // back immediately as kRejected — a typed outcome the caller can retry,
  // not an error.
  size_t admitted = batch.size();
  if (options_.max_queued_queries > 0 &&
      batch.size() > options_.max_queued_queries) {
    admitted = options_.max_queued_queries;
    for (size_t i = admitted; i < batch.size(); ++i) {
      results[i].status = QueryStatus::kRejected;
      results[i].io.RecordQueryShed();
    }
  }

  if (admitted > 0) {
    // Block-partition the admitted prefix: contiguous runs keep neighboring
    // queries — which workloads tend to generate with spatial locality — on
    // one worker; stealing rebalances the tail.
    const size_t threads = pool_.threads();
    const size_t per_worker = (admitted + threads - 1) / threads;
    for (size_t w = 0; w < threads; ++w) {
      std::lock_guard<std::mutex> lock(queues_[w]->mu);
      queues_[w]->items.clear();
      const size_t first = std::min(admitted, w * per_worker);
      const size_t last = std::min(admitted, first + per_worker);
      for (size_t i = first; i < last; ++i) queues_[w]->items.push_back(i);
    }

    // In shared-cache mode, one striped pool per distinct PageFile in the
    // batch. Built single-threaded before the fan-out, read-only during it.
    SharedCacheMap shared_caches;
    if (options_.cache_mode == CacheMode::kSharedStriped) {
      for (const IndexedQuery& iq : batch) {
        if (iq.index == nullptr || iq.index->file() == nullptr) continue;
        std::unique_ptr<StripedBufferPool>& slot =
            shared_caches[iq.index->file()];
        if (slot == nullptr) {
          slot = std::make_unique<StripedBufferPool>(
              iq.index->file(), options_.shared_cache_pages);
        }
      }
    }
    Job job;
    job.batch = &batch;
    job.results = &results;
    job.shared_caches = shared_caches.empty() ? nullptr : &shared_caches;
    pool_.RunOnAllWorkers([this, &job](size_t w) { ProcessQueue(w, job); });
  }

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
  const Options options;
  WorkerState state;
  std::vector<QueryResult> results(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ExecuteQuery(options, /*shared_caches=*/nullptr, batch[i], &results[i],
                 &state);
  }
  return results;
}

void QueryEngine::ProcessQueue(size_t worker_index, const Job& job) {
  size_t query_index;
  while (PopOwn(worker_index, &query_index) ||
         Steal(worker_index, &query_index)) {
    ExecuteQuery(options_, job.shared_caches, (*job.batch)[query_index],
                 &(*job.results)[query_index], workers_[worker_index].get());
  }
}

bool QueryEngine::PopOwn(size_t worker_index, size_t* query_index) {
  WorkerQueue& queue = *queues_[worker_index];
  std::lock_guard<std::mutex> lock(queue.mu);
  if (queue.items.empty()) return false;
  *query_index = queue.items.front();
  queue.items.pop_front();
  return true;
}

bool QueryEngine::Steal(size_t worker_index, size_t* query_index) {
  const size_t n = queues_.size();
  for (size_t offset = 1; offset < n; ++offset) {
    WorkerQueue& victim = *queues_[(worker_index + offset) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.items.empty()) continue;
    *query_index = victim.items.back();
    victim.items.pop_back();
    return true;
  }
  return false;
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
    switch (query.type) {
      case Query::Type::kRange:
      case Query::Type::kRangeCount:  // overlayed: masking needs the ids
        index->RangeQuery(cache, query.box, ids, scratch, query.guard);
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

void QueryEngine::ExecuteQuery(const Options& options,
                               const SharedCacheMap* shared_caches,
                               const IndexedQuery& iq, QueryResult* result,
                               WorkerState* state) {
  const PageStore* file = iq.index != nullptr ? iq.index->file() : nullptr;
  const int prefetch_depth = iq.query.prefetch_depth >= 0
                                 ? iq.query.prefetch_depth
                                 : options.prefetch_depth;
  if (file == nullptr) {
    // No PageStore to read from: without an overlay the query legitimately
    // returns empty; with one it is a pure overlay bucket scan (the spill
    // tail of an overlayed store) — no cache needed.
    DispatchQuery(iq, nullptr, result, &state->scratch);
  } else if (shared_caches != nullptr) {
    auto it = shared_caches->find(file);
    assert(it != shared_caches->end());
    StripedBufferPool::Session session(it->second.get(), &result->io,
                                       prefetch_depth);
    DispatchQuery(iq, &session, result, &state->scratch);
  } else {
    // Cold-per-query mode: recycle the worker's pool — Clear() is an O(1)
    // epoch bump, so this is exactly as cold as a fresh pool (identical
    // IoStats) without rebuilding the page table per query. Clear() runs
    // before set_stats(), so hints left pending are charged as wasted to the
    // query that issued them.
    BufferPool* pool = state->pool.get();
    if (pool == nullptr || &pool->store() != file) {
      state->pool = std::make_unique<BufferPool>(file, &result->io,
                                                 options.pool_pages);
      pool = state->pool.get();
    } else {
      pool->Clear();
      pool->set_stats(&result->io);
    }
    pool->set_prefetch_depth(prefetch_depth);
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

#ifndef FLAT_PARALLEL_THREAD_POOL_H_
#define FLAT_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace flat {

/// Fixed pool of worker threads shared by the build pipeline and the
/// QueryEngine.
///
/// The pool exposes one low-level primitive — RunOnAllWorkers, which invokes
/// a callback once on every worker and blocks the caller until all calls
/// return — plus ParallelFor built on top of it, which claims contiguous
/// index blocks off a shared atomic cursor.
///
/// Thread-safety / usage rules:
///  - One dispatch at a time: RunOnAllWorkers/ParallelFor must not be called
///    concurrently from multiple threads, nor from inside a worker callback
///    (that would deadlock waiting for the worker it runs on). Distinct
///    ThreadPool objects are fully independent; nesting a dispatch on pool B
///    inside a callback running on pool A is fine.
///  - A dispatch forms a synchronization barrier: everything the workers
///    wrote before returning from `fn` happens-before the dispatching
///    thread's return from RunOnAllWorkers/ParallelFor.
///  - Callbacks may throw: each worker catches the exception, and the first
///    one caught (by completion order) is rethrown on the dispatching thread
///    after the barrier — never std::terminate. Other workers still run
///    their callbacks to completion, so a ParallelFor that throws has
///    processed an unspecified subset of the remaining indices. The pool
///    stays usable for further dispatches.
///  - threads() is safe from any thread; construction and destruction must
///    not race with a dispatch.
class ThreadPool {
 public:
  /// Starts `threads` workers (0 = std::thread::hardware_concurrency(),
  /// at least 1).
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t threads() const { return workers_.size(); }

  /// Invokes fn(worker) once on every worker concurrently and returns when
  /// all calls have completed. `worker` in [0, threads()) identifies the
  /// executing worker, e.g. to index per-worker scratch state.
  void RunOnAllWorkers(const std::function<void(size_t worker)>& fn);

  /// Runs fn(worker, index) for every index in [0, count), distributing
  /// contiguous blocks of `grain` indices across the workers (0 = pick a
  /// grain that yields ~8 blocks per worker). Blocks until every index has
  /// been processed. fn invocations for different indices may run
  /// concurrently; writes to disjoint per-index slots need no locking.
  void ParallelFor(size_t count, size_t grain,
                   const std::function<void(size_t worker, size_t index)>& fn);

 private:
  void WorkerLoop(size_t worker);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  size_t active_workers_ = 0;
  bool shutdown_ = false;
  const std::function<void(size_t)>* task_ = nullptr;
  std::exception_ptr task_error_;  // first exception of the current dispatch
};

/// nullptr-tolerant helper: a null pool means "run serially on the calling
/// thread as worker 0". Callers size per-worker scratch with WorkerCount.
inline size_t WorkerCount(const ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->threads();
}

/// nullptr-tolerant ParallelFor: with a pool, dispatches onto it (same
/// contract as ThreadPool::ParallelFor); with nullptr, runs fn(0, index)
/// for every index serially on the calling thread. The serial fallback is
/// what lets build-pipeline code take `ThreadPool*` unconditionally.
void ParallelFor(ThreadPool* pool, size_t count, size_t grain,
                 const std::function<void(size_t worker, size_t index)>& fn);

}  // namespace flat

#endif  // FLAT_PARALLEL_THREAD_POOL_H_

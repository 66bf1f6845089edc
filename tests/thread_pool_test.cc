#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace flat {
namespace {

TEST(ThreadPoolTest, ZeroThreadsDefaultsToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.threads(), 1u);
}

TEST(ThreadPoolTest, RunOnAllWorkersVisitsEveryWorkerOnce) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.threads(), 4u);
  std::vector<std::atomic<int>> visits(4);
  pool.RunOnAllWorkers([&](size_t worker) {
    ASSERT_LT(worker, 4u);
    ++visits[worker];
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kCount = 10000;
  std::vector<std::atomic<uint32_t>> touched(kCount);
  pool.ParallelFor(kCount, /*grain=*/0, [&](size_t worker, size_t index) {
    ASSERT_LT(worker, pool.threads());
    ++touched[index];
  });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(touched[i].load(), 1u) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForReusableAcrossDispatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, /*grain=*/7, [&](size_t, size_t index) {
      sum.fetch_add(index, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 100u * 99u / 2);
  }
}

TEST(ThreadPoolTest, FreeParallelForWithNullPoolRunsSeriallyAsWorkerZero) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 5, 0, [&](size_t worker, size_t index) {
    EXPECT_EQ(worker, 0u);
    order.push_back(index);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelForZeroCountIsANoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, 0, [&](size_t, size_t) { FAIL(); });
  ParallelFor(nullptr, 0, 0, [&](size_t, size_t) { FAIL(); });
}

// A worker callback that throws must not reach std::terminate: the first
// exception is rethrown on the dispatching thread after the barrier.
TEST(ThreadPoolTest, WorkerExceptionRethrownOnDispatchingThread) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.RunOnAllWorkers([](size_t worker) {
        if (worker == 2) throw std::runtime_error("worker 2 failed");
      }),
      std::runtime_error);

  try {
    pool.RunOnAllWorkers(
        [](size_t) { throw std::runtime_error("all workers fail"); });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "all workers fail");
  }
}

// Every worker finishes its callback before the rethrow (the barrier is
// intact), and the pool remains fully usable for later dispatches.
TEST(ThreadPoolTest, PoolRemainsUsableAfterWorkerException) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.RunOnAllWorkers([&](size_t worker) {
    ++completed;
    if (worker == 0) throw std::runtime_error("boom");
  }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 3);

  for (int round = 0; round < 10; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, /*grain=*/7, [&](size_t, size_t index) {
      sum.fetch_add(index, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 100u * 99u / 2);
  }
}

// ParallelFor propagates an exception thrown by the per-index callback; the
// iteration space may be partially processed, but nothing crashes and the
// exception surfaces on the caller.
TEST(ThreadPoolTest, ParallelForRethrowsCallbackException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(1000, /*grain=*/16,
                                [&](size_t, size_t index) {
                                  if (index == 500) {
                                    throw std::runtime_error("index 500");
                                  }
                                }),
               std::runtime_error);

  // Serial fallback of the free function propagates too.
  EXPECT_THROW(ParallelFor(nullptr, 10, 0,
                           [&](size_t, size_t index) {
                             if (index == 5) {
                               throw std::runtime_error("index 5");
                             }
                           }),
               std::runtime_error);
}

}  // namespace
}  // namespace flat

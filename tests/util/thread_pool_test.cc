#include "util/thread_pool.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace useful::util {
namespace {

// 0 means the CPUs this thread may run on, not the machine's: pinned to
// one CPU, the count is 1 on any machine.
TEST(ThreadPoolTest, ResolveThreadsZeroCountsAllowedCpus) {
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(7), 7u);

  cpu_set_t saved;
  ASSERT_EQ(::sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(ThreadPool::ResolveThreads(0),
            static_cast<std::size_t>(CPU_COUNT(&saved)));
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(::sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t pinned = ThreadPool::ResolveThreads(0);
  ASSERT_EQ(::sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
}

// Workers take the CPUs of the mask in turn from the one after the
// creator's, so the creator's own CPU is the last one a worker gets.
TEST(ThreadPoolTest, WorkerCpusStartAfterTheCreatorsCpu) {
  using V = std::vector<int>;
  EXPECT_EQ(ThreadPool::WorkerCpus({0, 1, 2, 3}, 1, 3), (V{2, 3, 0}));
  EXPECT_EQ(ThreadPool::WorkerCpus({0, 1, 2, 3}, 3, 3), (V{0, 1, 2}));
  EXPECT_EQ(ThreadPool::WorkerCpus({0, 1, 2}, 0, 5), (V{1, 2, 0, 1, 2}));
  // Gaps in the mask, and more workers than CPUs.
  EXPECT_EQ(ThreadPool::WorkerCpus({0, 2, 5}, 2, 4), (V{5, 0, 2, 5}));
  // A creator outside the mask (or an unknown CPU, -1) starts from the
  // first allowed CPU above it.
  EXPECT_EQ(ThreadPool::WorkerCpus({1, 2}, 0, 2), (V{1, 2}));
  EXPECT_EQ(ThreadPool::WorkerCpus({1, 4}, 3, 2), (V{4, 1}));
  EXPECT_EQ(ThreadPool::WorkerCpus({1, 2}, 7, 1), (V{1}));
  EXPECT_EQ(ThreadPool::WorkerCpus({0, 1}, -1, 2), (V{0, 1}));
  // One CPU: every worker shares it.
  EXPECT_EQ(ThreadPool::WorkerCpus({3}, 3, 2), (V{3, 3}));
  EXPECT_TRUE(ThreadPool::WorkerCpus({}, 0, 3).empty());
  EXPECT_TRUE(ThreadPool::WorkerCpus({0, 1}, 0, 0).empty());
}

// A worker is placed on one CPU only while it starts: by the time it runs
// a job it holds its creator's whole mask again.
TEST(ThreadPoolTest, WorkersHoldTheCreatorsAffinityMask) {
  cpu_set_t creator;
  ASSERT_EQ(::sched_getaffinity(0, sizeof(creator), &creator), 0);
  ThreadPool pool(4);
  const std::size_t n = pool.num_threads();
  // Every index waits for all n, so each thread runs exactly one of them.
  std::atomic<std::size_t> arrived{0};
  std::vector<int> same_mask(n, 0);
  std::vector<std::size_t> resolved(n, 0);
  pool.ParallelFor(n, [&](std::size_t i) {
    arrived.fetch_add(1);
    while (arrived.load() < n) std::this_thread::yield();
    cpu_set_t mine;
    if (::sched_getaffinity(0, sizeof(mine), &mine) == 0) {
      same_mask[i] = CPU_EQUAL(&mine, &creator) ? 1 : 0;
    }
    resolved[i] = ThreadPool::ResolveThreads(0);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(same_mask[i], 1) << i;
    EXPECT_EQ(resolved[i], static_cast<std::size_t>(CPU_COUNT(&creator)))
        << i;
  }
}

TEST(ThreadPoolTest, SingleThreadPoolSpawnsNothingAndRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(64);
  pool.ParallelFor(seen.size(),
                   [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

// A pool sized for no jobs or one job starts no thread: ThreadPool(0)
// would mean every allowed CPU.
TEST(ThreadPoolTest, ThreadsForNeverSizesFromZero) {
  EXPECT_EQ(ThreadPool::ThreadsFor(0, 8), 1u);
  EXPECT_EQ(ThreadPool::ThreadsFor(1, 8), 1u);
  EXPECT_EQ(ThreadPool::ThreadsFor(5, 0), 1u);
  EXPECT_EQ(ThreadPool::ThreadsFor(2, 8), 2u);
  EXPECT_EQ(ThreadPool::ThreadsFor(53, 3), 3u);
  ThreadPool none(ThreadPool::ThreadsFor(0, 8));
  EXPECT_EQ(none.num_threads(), 1u);
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> counts(kN);
  pool.ParallelFor(kN, [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ResultsLandByIndex) {
  ThreadPool pool(8);
  constexpr std::size_t kN = 4096;
  std::vector<std::size_t> out(kN, 0);
  pool.ParallelFor(kN, [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, OrderStableReductionMatchesSerial) {
  // The determinism contract: per-index partials folded in index order on
  // the caller give bit-identical doubles regardless of thread count.
  constexpr std::size_t kN = 2000;
  std::vector<double> inputs(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    inputs[i] = 1.0 / static_cast<double>(3 * i + 1);
  }
  auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> partial(kN);
    pool.ParallelFor(kN, [&](std::size_t i) {
      partial[i] = inputs[i] * inputs[i] + 0.25 * inputs[i];
    });
    double sum = 0.0;
    for (double p : partial) sum += p;  // index-order fold
    return sum;
  };
  double serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ThreadPoolTest, BackToBackJobsReuseWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.ParallelFor(100, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 100u * 99u / 2u);
  }
}

TEST(ThreadPoolTest, MorePoolThreadsThanWork) {
  ThreadPool pool(16);
  std::vector<int> out(3, 0);
  pool.ParallelFor(3, [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 3);
}

}  // namespace
}  // namespace useful::util

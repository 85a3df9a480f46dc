#include "service/offload_pool.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <future>
#include <numeric>
#include <vector>

#include "service/stats.h"

namespace useful::service {
namespace {

TEST(OffloadPoolTest, ShutdownRunsEveryTaskSubmittedBeforeIt) {
  Stats stats;
  std::atomic<int> ran{0};
  OffloadPool pool(4, &stats);
  EXPECT_EQ(pool.num_threads(), 4u);
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 1000);
  EXPECT_EQ(stats.Get(Stats::kDispatchQueueDepth), 0u);
  pool.Shutdown();  // idempotent
}

TEST(OffloadPoolTest, OneWorkerRunsTasksInSubmissionOrder) {
  Stats stats;
  OffloadPool pool(1, &stats);
  // Hold the only worker so every later task waits in the queue.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.Submit([gate] { gate.wait(); });
  std::vector<int> order;  // written by the worker alone
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  // The held task may or may not have left the queue yet.
  EXPECT_GE(stats.Get(Stats::kDispatchQueueDepth), 100u);
  release.set_value();
  pool.Shutdown();

  std::vector<int> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(stats.Get(Stats::kDispatchQueueDepth), 0u);
}

TEST(OffloadPoolTest, ZeroThreadsMeansAllowedCpus) {
  Stats stats;
  OffloadPool pool(0, &stats);
  EXPECT_GE(pool.num_threads(), 1u);
  cpu_set_t allowed;
  ASSERT_EQ(::sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  EXPECT_EQ(pool.num_threads(),
            static_cast<std::size_t>(CPU_COUNT(&allowed)));
}

}  // namespace
}  // namespace useful::service

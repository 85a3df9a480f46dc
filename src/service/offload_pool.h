// A small FIFO task pool for estimation work.
//
// The reactor threads (service::Reactor) must never block on a slow
// ROUTE: they hand each batch of parsed request lines to this pool and
// go back to epoll_wait. Each worker thread loops pulling closures from
// one queue until the queue is closed and empty, so Shutdown — close,
// then join every worker — returns only after every queued task ran.
//
// Submit is cheap (one lock, one notify) and records the dispatch-queue
// depth gauge; workers record how long each task sat queued into the
// offload-wait histogram, which is the backlog signal METRICS exposes as
// useful_offload_wait_seconds.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "service/stats.h"

namespace useful::service {

/// Fixed-size FIFO executor for offloaded request execution. Thread-safe.
class OffloadPool {
 public:
  /// Spawns `threads` workers (0 = one per CPU the process may run on,
  /// util::ThreadPool::ResolveThreads). `stats` must outlive the pool; it
  /// receives queue-depth and wait-time recordings.
  OffloadPool(std::size_t threads, Stats* stats);

  /// Calls Shutdown() if the caller has not.
  ~OffloadPool();

  OffloadPool(const OffloadPool&) = delete;
  OffloadPool& operator=(const OffloadPool&) = delete;

  /// Enqueues one task. Tasks run FIFO relative to submission order but
  /// concurrently across workers; a task must not Submit to its own pool
  /// from a path Shutdown could be draining. Must not be called after
  /// Shutdown().
  void Submit(std::function<void()> task);

  /// Closes the queue, runs every task already submitted, and joins the
  /// workers. Idempotent.
  void Shutdown();

  std::size_t num_threads() const { return workers_.size(); }

 private:
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();

  Stats* stats_;

  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<Task> queue_;
  bool closed_ = false;

  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace useful::service

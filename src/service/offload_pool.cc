#include "service/offload_pool.h"

#include <utility>

#include "util/clock.h"
#include "util/thread_pool.h"

namespace useful::service {

OffloadPool::OffloadPool(std::size_t threads, Stats* stats) : stats_(stats) {
  const std::size_t workers = util::ThreadPool::ResolveThreads(threads);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

OffloadPool::~OffloadPool() { Shutdown(); }

void OffloadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back({std::move(task), std::chrono::steady_clock::now()});
    stats_->Set(Stats::kDispatchQueueDepth, queue_.size());
  }
  ready_.notify_one();
}

void OffloadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void OffloadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ready_.wait(lock, [&] { return !queue_.empty() || closed_; });
      if (queue_.empty()) return;  // closed and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      stats_->Set(Stats::kDispatchQueueDepth, queue_.size());
    }
    stats_->RecordOffloadWait(util::MicrosSince(task.enqueued));
    task.fn();
  }
}

}  // namespace useful::service

#include "service/offload_pool.h"

#include <utility>

namespace useful::service {

OffloadPool::OffloadPool(std::size_t threads, Stats* stats)
    : stats_(stats), pool_(util::ThreadPool::ResolveThreads(threads)) {
  runner_ = std::thread([this] {
    std::size_t workers = pool_.num_threads();
    pool_.ParallelFor(workers, [this](std::size_t) { WorkerLoop(); });
  });
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
    if (closed_ && !runner_.joinable()) return;
    closed_ = true;
  }
  ready_.notify_all();
  if (runner_.joinable()) runner_.join();
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
    auto waited = std::chrono::steady_clock::now() - task.enqueued;
    auto micros =
        std::chrono::duration_cast<std::chrono::microseconds>(waited).count();
    stats_->RecordOffloadWait(
        micros < 0 ? 0 : static_cast<std::uint64_t>(micros));
    task.fn();
  }
}

}  // namespace useful::service

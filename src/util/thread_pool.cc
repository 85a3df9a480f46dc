#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <system_error>

namespace useful::util {

namespace {

/// Moves the calling thread to `cpu`, then gives it `mask` back: the
/// thread stays where it was moved unless the scheduler balances it
/// elsewhere. A negative `cpu` leaves the thread where it is.
void StartOn(int cpu, const cpu_set_t& mask) {
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (::sched_setaffinity(0, sizeof(one), &one) == 0) {
    ::sched_setaffinity(0, sizeof(mask), &mask);
  }
}

}  // namespace

std::size_t ThreadPool::ResolveThreads(std::size_t threads) {
  if (threads != 0) return threads;
  // The affinity mask, not the machine: a process confined to three of
  // four CPUs gains nothing from a fourth thread.
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&allowed)));
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t ThreadPool::ThreadsFor(std::size_t jobs, std::size_t threads) {
  return std::max<std::size_t>(1, std::min(jobs, threads));
}

std::vector<int> ThreadPool::WorkerCpus(const std::vector<int>& allowed,
                                        int current, std::size_t workers) {
  std::vector<int> cpus;
  if (allowed.empty()) return cpus;
  const std::size_t first = static_cast<std::size_t>(
      std::upper_bound(allowed.begin(), allowed.end(), current) -
      allowed.begin());
  cpus.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    cpus.push_back(allowed[(first + i) % allowed.size()]);
  }
  return cpus;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t wanted = ResolveThreads(num_threads);
  if (wanted < 2) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::vector<int> allowed;
  if (::sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) allowed.push_back(cpu);
    }
  }
  const std::vector<int> cpus =
      WorkerCpus(allowed, ::sched_getcpu(), wanted - 1);
  workers_.reserve(wanted - 1);
  for (std::size_t i = 0; i + 1 < wanted; ++i) {
    const int cpu = cpus.empty() ? -1 : cpus[i];
    // A failed start must not escape: the workers already running would
    // be destroyed joinable, which is std::terminate.
    try {
      workers_.emplace_back([this, cpu, mask] {
        StartOn(cpu, mask);
        WorkerLoop();
      });
    } catch (const std::system_error&) {
      break;
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  job_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunJob() {
  // Pull indices until the job's range is exhausted. The counter is the
  // only shared mutable state on the fast path.
  const std::function<void(std::size_t)>& fn = *job_fn_;
  const std::size_t n = job_size_;
  for (std::size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
       i < n; i = next_index_.fetch_add(1, std::memory_order_relaxed)) {
    fn(i);
  }
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_ready_.wait(lock, [&] {
        return shutdown_ || job_generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = job_generation_;
      ++workers_started_;
      ++workers_active_;
    }
    RunJob();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --workers_active_;
    }
    job_done_.notify_all();
  }
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Serial fast path: no locks, no handoff — identical to a plain loop.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_fn_ = &fn;
    job_size_ = n;
    next_index_.store(0, std::memory_order_relaxed);
    workers_started_ = 0;
    ++job_generation_;
  }
  job_ready_.notify_all();
  RunJob();  // the calling thread participates
  // `fn` lives on this frame, so do not return until every worker has both
  // observed this generation (started) and finished its share (active == 0);
  // a late-waking worker still checks in, finds the range drained, and
  // leaves immediately.
  std::unique_lock<std::mutex> lock(mu_);
  job_done_.wait(lock, [&] {
    return workers_started_ == workers_.size() && workers_active_ == 0;
  });
  job_fn_ = nullptr;
  job_size_ = 0;
}

}  // namespace useful::util

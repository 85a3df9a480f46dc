// A small fixed-size thread pool with an order-stable ParallelFor.
//
// The pool exists for the eval runner and the service's snapshot loader:
// fan an index range [0, n) out over a few worker threads and have every
// result land at its own index, so the output of a parallel run is a pure
// function of the input — independent of scheduling, core count, or how
// indices happened to interleave. Callers write `results[i]` from `fn(i)`
// and never touch another index, which is the entire synchronization
// contract.
//
// Determinism note: ParallelFor gives no ordering guarantee on *when*
// fn(i) runs, only that every i in [0, n) runs exactly once and that
// ParallelFor returns after all of them finished. Reductions that need
// bit-identical floating-point results must therefore store per-index
// partials and fold them in index order on the calling thread (see
// eval::RunExperimentParsed).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace useful::util {

/// Fixed set of worker threads executing index-range jobs.
class ThreadPool {
 public:
  /// Creates `num_threads` - 1 workers (the caller is the last thread); 0
  /// means ResolveThreads(0). A pool of size 1 spawns no threads at all:
  /// ParallelFor then runs entirely on the calling thread, byte-for-byte
  /// the serial path. A worker that fails to start (the process is out of
  /// threads) stops the pool growing: it runs with the workers it has, or
  /// the caller alone, and num_threads() says how many.
  ///
  /// Each worker first moves itself to its CPU of WorkerCpus(the creator's
  /// affinity mask, the creator's CPU), then takes the creator's whole
  /// mask back. Where the scheduler does not balance load (a cpuset with
  /// sched_load_balance 0), a thread stays on the CPU it started on, so
  /// without this every worker would share the creator's; with the mask
  /// restored, a balancing scheduler may still move it, and a worker's own
  /// ResolveThreads(0) counts every CPU.
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Joins all workers. Must not be called while a ParallelFor is running.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that participate in ParallelFor (workers + caller).
  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Runs fn(i) exactly once for every i in [0, n), on the workers and the
  /// calling thread, and blocks until all calls returned. Indices are
  /// handed out dynamically (atomic counter), so fn should be safe to call
  /// concurrently; writes must stay confined to the caller's own slot i.
  /// Reentrant calls (fn itself calling ParallelFor on this pool) are not
  /// supported. fn must not throw.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// The number of threads for a caller-chosen `threads` setting: 0 -> the
  /// CPUs in the calling thread's affinity mask (hardware concurrency only
  /// when the mask cannot be read; at least 1), otherwise the value itself.
  /// Shared by the --threads flags of the CLI tools.
  static std::size_t ResolveThreads(std::size_t threads);

  /// The pool size for `jobs` indices under a budget of `threads` (the
  /// caller included): at most either, and never 0, which the constructor
  /// reads as every allowed CPU. No jobs or one job gives 1: no thread.
  static std::size_t ThreadsFor(std::size_t jobs, std::size_t threads);

  /// The CPU each of `workers` workers starts on: the `allowed` CPUs
  /// (ascending ids) in turn, beginning with the first one after
  /// `current`, the creating thread's CPU, so that CPU comes last. Empty
  /// when `allowed` is.
  static std::vector<int> WorkerCpus(const std::vector<int>& allowed,
                                     int current, std::size_t workers);

 private:
  void WorkerLoop();
  void RunJob();

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  // Current job; guarded by mu_ except next_index_ which is the work queue.
  const std::function<void(std::size_t)>* job_fn_ = nullptr;
  std::size_t job_size_ = 0;
  std::uint64_t job_generation_ = 0;
  std::size_t workers_started_ = 0;  // workers that observed this generation
  std::size_t workers_active_ = 0;
  std::atomic<std::size_t> next_index_{0};
  bool shutdown_ = false;
};

}  // namespace useful::util

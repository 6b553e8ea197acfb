#pragma once

// Fixed-size thread pool used to run simulated-cluster task bodies with real
// parallelism. Virtual time is accounted separately (see sim/sim_clock.h);
// the pool only provides wall-clock speed.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace ps2 {

/// \brief A fixed-size worker pool executing std::function tasks.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the returned future resolves when it finishes.
  std::future<void> Submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Exceptions must not escape fn (library code is exception-free).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return threads_.size(); }

  /// True when the calling thread is one of this pool's workers. A task that
  /// fans work out must not ParallelFor on its own pool: with every worker
  /// blocked in such a wait, the queued indices never run.
  bool OnWorkerThread() const;

  /// Process-wide pool sized to the hardware concurrency.
  static ThreadPool* Global();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

}  // namespace ps2

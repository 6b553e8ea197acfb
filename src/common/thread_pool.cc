#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"

namespace ps2 {

namespace {
/// The pool whose WorkerLoop this thread runs (nullptr off-pool).
thread_local const ThreadPool* t_worker_of = nullptr;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  PS2_CHECK_GE(num_threads, 1u);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    PS2_CHECK(!shutdown_) << "Submit after shutdown";
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  // Dynamic chunking: workers pull indices from a shared atomic counter.
  std::atomic<size_t> next{0};
  size_t workers = std::min(n, num_threads());
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    futures.push_back(Submit([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    }));
  }
  for (auto& f : futures) f.get();
}

bool ThreadPool::OnWorkerThread() const { return t_worker_of == this; }

void ThreadPool::WorkerLoop() {
  t_worker_of = this;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool* ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(
      std::max<size_t>(2, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace ps2

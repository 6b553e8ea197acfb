#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace ps2 {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  pool.Submit([&] { value = 42; }).get();
  EXPECT_EQ(value.load(), 42);
}

TEST(ThreadPoolTest, RunsManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "should not run"; });
}

TEST(ThreadPoolTest, ParallelForSingleRunsInline) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, ParallelForMoreTasksThanThreads) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.ParallelFor(1000, [&](size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 999L * 1000 / 2);
}

TEST(ThreadPoolTest, NestedSubmissionFromTask) {
  ThreadPool pool(3);
  std::atomic<int> value{0};
  pool.Submit([&] {
        pool.Submit([&] { value = 7; }).get();
      })
      .get();
  EXPECT_EQ(value.load(), 7);
}

TEST(ThreadPoolTest, OnWorkerThreadIsTrueOnlyOnOwnWorkers) {
  ThreadPool pool(2);
  ThreadPool other(1);
  EXPECT_FALSE(pool.OnWorkerThread());
  bool on_own = false;
  bool on_other = true;
  pool.Submit([&] { on_own = pool.OnWorkerThread(); }).get();
  other.Submit([&] { on_other = pool.OnWorkerThread(); }).get();
  EXPECT_TRUE(on_own);
  EXPECT_FALSE(on_other);
}

TEST(ThreadPoolTest, GlobalPoolIsSingleton) {
  EXPECT_EQ(ThreadPool::Global(), ThreadPool::Global());
  EXPECT_GE(ThreadPool::Global()->num_threads(), 2u);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 20);
}

}  // namespace
}  // namespace ps2

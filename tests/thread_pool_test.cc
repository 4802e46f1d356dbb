#include "base/thread_pool.h"

#include <atomic>
#include <chrono>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "base/parallel_for.h"

namespace geopriv {
namespace {

TEST(BoundedQueueTest, FifoWithinCapacity) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_EQ(q.size(), 1u);
}

TEST(BoundedQueueTest, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full: admission control kicks in
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_TRUE(q.TryPush(3));  // space again
}

TEST(BoundedQueueTest, CloseDrainsRemainingItems) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(7));
  q.Close();
  EXPECT_FALSE(q.TryPush(8));  // closed: rejected
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));  // ... but existing items drain
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(q.Pop(&v));  // closed and empty
}

TEST(ThreadPoolTest, RunsEveryTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4, 64);
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(pool.Submit([&count](int) { ++count; }));
    }
  }  // destructor drains and joins
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, WorkerIdsAreStableAndInRange) {
  std::mutex mu;
  std::set<int> seen;
  {
    ThreadPool pool(3, 64);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&](int worker_id) {
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(worker_id);
      });
    }
  }
  ASSERT_FALSE(seen.empty());
  EXPECT_GE(*seen.begin(), 0);
  EXPECT_LT(*seen.rbegin(), 3);
}

TEST(ThreadPoolTest, TrySubmitAppliesBackpressure) {
  // One worker blocked on a gate + a full queue => TrySubmit must fail.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  ThreadPool pool(1, 2);
  pool.Submit([&](int) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  // Wait until the worker has dequeued the gate task, then fill the queue.
  while (pool.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(pool.TrySubmit([](int) {}));
  EXPECT_TRUE(pool.TrySubmit([](int) {}));
  EXPECT_FALSE(pool.TrySubmit([](int) {}));  // queue full
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Shutdown();
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(2, 8);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([](int) {}));
  EXPECT_FALSE(pool.TrySubmit([](int) {}));
}

TEST(ThreadPoolTest, ConcurrentProducers) {
  std::atomic<int> count{0};
  ThreadPool pool(4, 32);
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        pool.Submit([&count](int) { ++count; });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.Shutdown();
  EXPECT_EQ(count.load(), 400);
}

TEST(ParallelChunksTest, RunsEveryChunkExactlyOnce) {
  ThreadPool pool(4, 64);
  constexpr int kChunks = 97;
  std::vector<std::atomic<int>> hits(kChunks);
  ParallelChunks(&pool, 8, kChunks,
                 [&](int c) { hits[static_cast<size_t>(c)].fetch_add(1); });
  for (int c = 0; c < kChunks; ++c) {
    EXPECT_EQ(hits[static_cast<size_t>(c)].load(), 1) << "chunk " << c;
  }
  pool.Shutdown();
}

TEST(ParallelChunksTest, NullPoolRunsSeriallyInOrder) {
  std::vector<int> order;
  ParallelChunks(nullptr, 8, 10, [&](int c) { order.push_back(c); });
  ASSERT_EQ(order.size(), 10u);
  for (int c = 0; c < 10; ++c) EXPECT_EQ(order[static_cast<size_t>(c)], c);
}

TEST(ParallelChunksTest, SafeFromPoolWorker) {
  // A nested ParallelChunks issued from one of the pool's own workers must
  // not deadlock: helpers are recruited non-blockingly and the issuing
  // worker claims whatever nobody picks up.
  ThreadPool pool(2, 4);
  std::atomic<int> inner_hits{0};
  std::atomic<bool> done{false};
  pool.Submit([&](int) {
    ParallelChunks(&pool, 4, 16, [&](int) { inner_hits.fetch_add(1); });
    done.store(true);
  });
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(inner_hits.load(), 16);
  pool.Shutdown();
}

TEST(ParallelChunksTest, OwnWorkerOfOneThreadPoolQueuesNothing) {
  // The caller is the pool's only worker: it counts once, so there is no
  // other thread to help and no helper task may land on the queue (where
  // it would sit behind the caller's own work until after the call).
  ThreadPool pool(1, 8);
  int parallelism = 0;
  size_t depth_default = 1;
  size_t depth_requested = 1;
  std::atomic<int> hits{0};
  std::atomic<bool> done{false};
  pool.Submit([&](int) {
    parallelism = EffectiveParallelism(&pool, 0);
    ParallelChunks(&pool, parallelism, 8, [&](int) { hits.fetch_add(1); });
    depth_default = pool.queue_depth();
    ParallelChunks(&pool, 4, 8, [&](int) { hits.fetch_add(1); });
    depth_requested = pool.queue_depth();
    done.store(true);
  });
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(parallelism, 1);
  EXPECT_EQ(depth_default, 0u);
  EXPECT_EQ(depth_requested, 0u);
  EXPECT_EQ(hits.load(), 16);
  EXPECT_EQ(EffectiveParallelism(&pool, 0), 2);  // outside: worker + caller
  pool.Shutdown();
}

TEST(ParallelChunksTest, ShutDownPoolFallsBackToCaller) {
  ThreadPool pool(2, 4);
  pool.Shutdown();
  std::atomic<int> hits{0};
  ParallelChunks(&pool, 4, 8, [&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 8);
}

TEST(ParallelChunksTest, EffectiveParallelismResolution) {
  EXPECT_EQ(EffectiveParallelism(nullptr, 0), 1);
  EXPECT_EQ(EffectiveParallelism(nullptr, 7), 7);
  ThreadPool pool(3, 8);
  EXPECT_EQ(EffectiveParallelism(&pool, 0), 4);  // workers + caller
  EXPECT_EQ(EffectiveParallelism(&pool, 2), 2);
  pool.Shutdown();
}

}  // namespace
}  // namespace geopriv

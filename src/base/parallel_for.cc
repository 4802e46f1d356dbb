#include "base/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "base/thread_pool.h"

namespace geopriv {

int EffectiveParallelism(const ThreadPool* pool, int requested) {
  if (requested > 0) return requested;
  if (pool == nullptr) return 1;
  // A caller inside the pool is one of its workers already.
  return pool->num_threads() + (pool->InWorkerThread() ? 0 : 1);
}

namespace {

// Shared between the caller and its helper tasks. Owned by shared_ptr: a
// helper that was queued but only starts after the call returned (all
// chunks already claimed) still finds valid memory, claims nothing, and
// exits without ever touching `fn`.
struct ChunkState {
  std::atomic<int> next{0};
  std::atomic<int> done{0};
  int total = 0;
  const std::function<void(int)>* fn = nullptr;
  std::mutex mu;
  std::condition_variable cv;
};

void DrainChunks(const std::shared_ptr<ChunkState>& state) {
  while (true) {
    const int chunk = state->next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= state->total) return;
    // `fn` is guaranteed alive here: the caller returns only once
    // done == total, and this claim is one of the `total` not yet done.
    (*state->fn)(chunk);
    if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state->total) {
      // Taking the lock pairs with the caller's predicate check, so the
      // final notification cannot slip between its test and its wait.
      std::lock_guard<std::mutex> lock(state->mu);
      state->cv.notify_all();
    }
  }
}

}  // namespace

void ParallelChunks(ThreadPool* pool, int parallelism, int num_chunks,
                    const std::function<void(int)>& fn) {
  if (num_chunks <= 0) return;
  int helpers = 0;
  if (pool != nullptr && parallelism > 1) {
    helpers = std::min(parallelism - 1, num_chunks - 1);
    // From one of the pool's own workers only the other workers can help:
    // a helper queued beyond them would just wait behind the caller.
    if (pool->InWorkerThread()) {
      helpers = std::min(helpers, pool->num_threads() - 1);
    }
  }
  if (helpers <= 0) {
    for (int chunk = 0; chunk < num_chunks; ++chunk) fn(chunk);
    return;
  }
  auto state = std::make_shared<ChunkState>();
  state->total = num_chunks;
  state->fn = &fn;
  for (int h = 0; h < helpers; ++h) {
    // Non-blocking on purpose: a full queue or a shut-down pool means
    // fewer helpers, never a deadlock — the caller picks up every
    // unclaimed chunk below.
    if (!pool->TrySubmit([state](int) { DrainChunks(state); })) break;
  }
  DrainChunks(state);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->total;
  });
}

}  // namespace geopriv

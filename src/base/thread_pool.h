// Fixed-size worker thread pool over a bounded MPMC task queue — the
// execution substrate of the sanitization service (src/service/). Two
// deliberate departures from a generic pool:
//
//  * tasks receive the id of the worker running them, so callers can keep
//    per-worker state (deterministic RNG streams, scratch buffers) without
//    any synchronization;
//  * the queue is bounded and exposes a non-blocking TrySubmit, which is
//    how the service applies backpressure: when the queue is full the
//    submission fails immediately instead of growing an unbounded backlog.

#ifndef GEOPRIV_BASE_THREAD_POOL_H_
#define GEOPRIV_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace geopriv {

// Bounded multi-producer multi-consumer queue. All methods are thread-safe.
// Closing wakes every blocked producer and consumer; a closed queue rejects
// pushes but drains its remaining items.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  // Non-blocking; false when the queue is full or closed.
  bool TryPush(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  // Blocks until there is space; false when the queue was closed first.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an item is available; false when the queue is closed and
  // drained.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

class ThreadPool {
 public:
  // Tasks are handed the id (0-based) of the worker executing them.
  using Task = std::function<void(int worker_id)>;

  // Spawns `num_threads` workers (>= 1) over a queue of `queue_capacity`
  // pending tasks.
  ThreadPool(int num_threads, size_t queue_capacity);

  // Drains remaining tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Non-blocking submission; false when the queue is full (backpressure)
  // or the pool is shut down.
  bool TrySubmit(Task task);

  // Blocking submission; false only when the pool is shut down.
  bool Submit(Task task);

  // Stops accepting tasks, runs what is already queued, joins the workers.
  // Idempotent; also called by the destructor.
  void Shutdown();

  int num_threads() const { return static_cast<int>(workers_.size()); }
  // True when called from one of this pool's own worker threads.
  bool InWorkerThread() const;
  size_t queue_depth() const { return queue_.size(); }
  size_t queue_capacity() const { return queue_.capacity(); }

 private:
  void WorkerLoop(int worker_id);

  BoundedQueue<Task> queue_;
  std::vector<std::thread> workers_;
};

}  // namespace geopriv

#endif  // GEOPRIV_BASE_THREAD_POOL_H_

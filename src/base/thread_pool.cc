#include "base/thread_pool.h"

#include "base/check.h"

namespace geopriv {

namespace {
// The pool whose WorkerLoop runs on this thread (null elsewhere).
thread_local const ThreadPool* current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(int num_threads, size_t queue_capacity)
    : queue_(queue_capacity) {
  GEOPRIV_CHECK_MSG(num_threads >= 1, "thread pool needs >= 1 worker");
  GEOPRIV_CHECK_MSG(queue_capacity >= 1, "queue capacity must be >= 1");
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::TrySubmit(Task task) { return queue_.TryPush(std::move(task)); }

bool ThreadPool::Submit(Task task) { return queue_.Push(std::move(task)); }

void ThreadPool::Shutdown() {
  queue_.Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool ThreadPool::InWorkerThread() const { return current_pool == this; }

void ThreadPool::WorkerLoop(int worker_id) {
  current_pool = this;
  Task task;
  while (queue_.Pop(&task)) {
    task(worker_id);
    task = nullptr;  // release captured state before blocking on the queue
  }
}

}  // namespace geopriv

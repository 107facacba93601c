#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gopt {

/// A fixed set of persistent worker threads that help callers run
/// index-parallel loops (docs/concurrency.md). GOptEngine owns one, sized
/// once at construction, and both parallel runtimes — the distributed
/// partition workers and the morsel workers — run on it, so executing a
/// query never starts a thread.
///
/// The one primitive is ParallelFor. Its caller is a worker too: it
/// claims indices alongside whichever pool threads are idle, and then
/// waits only for indices another thread has already started. Nothing a
/// caller needs can sit in a queue behind another caller's work, so any
/// number of threads (e.g. serving workers) may share one pool without
/// deadlock; a busy or empty pool degrades to running every index inline.
class WorkerPool {
 public:
  /// Starts `threads` workers (<= 0: none; ParallelFor then runs inline).
  explicit WorkerPool(int threads);
  /// Joins the workers. No ParallelFor may be in flight.
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return static_cast<int>(threads_.size()); }

  /// Runs fn(i) once for every i in [0, n), on the calling thread and any
  /// idle workers, and returns when all have finished. The first exception
  /// any fn(i) throws is rethrown here (indices not yet started are then
  /// skipped). Thread-safe; `fn` must be callable concurrently.
  template <typename F>
  void ParallelFor(size_t n, const F& fn) {
    Run(n, [](const void* f, size_t i) { (*static_cast<const F*>(f))(i); },
        &fn);
  }

 private:
  using Invoke = void (*)(const void* fn, size_t i);
  struct Job;

  void Run(size_t n, Invoke invoke, const void* fn);
  void WorkerLoop();
  /// Claims and runs indices of `job` until none is left unclaimed.
  static void Drain(Job* job);

  std::mutex mu_;
  std::condition_variable cv_;
  /// Jobs that may still have unclaimed indices, oldest first.
  std::deque<std::shared_ptr<Job>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// pool->ParallelFor(n, fn), or an inline loop when `pool` is null.
template <typename F>
void ParallelFor(WorkerPool* pool, size_t n, const F& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace gopt

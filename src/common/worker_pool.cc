#include "src/common/worker_pool.h"

#include <algorithm>

namespace gopt {

/// One ParallelFor call. Shared by the caller and every worker that picked
/// it up, so a worker that finds nothing left to claim after the caller
/// has returned still touches live memory; `fn` itself (on the caller's
/// stack) is only called for claimed indices, all of which finish before
/// the caller returns.
struct WorkerPool::Job {
  Job(size_t n, Invoke invoke, const void* fn) : n(n), invoke(invoke), fn(fn) {}

  const size_t n;
  const Invoke invoke;
  const void* const fn;
  std::atomic<size_t> next{0};  ///< next unclaimed index
  std::atomic<size_t> done{0};  ///< indices finished (run or skipped)
  std::atomic<bool> failed{false};
  std::mutex mu;  ///< guards `error`; pairs with `cv`
  std::condition_variable cv;
  std::exception_ptr error;
};

WorkerPool::WorkerPool(int threads) {
  for (int i = 0; i < threads; ++i) threads_.emplace_back([this] { WorkerLoop(); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Drain(Job* job) {
  for (size_t i = job->next.fetch_add(1, std::memory_order_relaxed); i < job->n;
       i = job->next.fetch_add(1, std::memory_order_relaxed)) {
    if (!job->failed.load(std::memory_order_relaxed)) {
      try {
        job->invoke(job->fn, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job->mu);
        if (!job->error) job->error = std::current_exception();
        job->failed.store(true, std::memory_order_relaxed);
      }
    }
    if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 == job->n) {
      // Notify under the job's mutex: the waiting caller checks `done`
      // while holding it, so the wake-up cannot fall between its check
      // and its wait.
      std::lock_guard<std::mutex> lock(job->mu);
      job->cv.notify_all();
    }
  }
}

void WorkerPool::Run(size_t n, Invoke invoke, const void* fn) {
  if (threads_.empty() || n <= 1) {
    for (size_t i = 0; i < n; ++i) invoke(fn, i);
    return;
  }
  auto job = std::make_shared<Job>(n, invoke, fn);
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(job);
  }
  // The caller takes one share itself; wake at most one worker per
  // remaining index.
  const size_t helpers = std::min(n - 1, threads_.size());
  if (helpers == threads_.size()) {
    cv_.notify_all();
  } else {
    for (size_t i = 0; i < helpers; ++i) cv_.notify_one();
  }
  Drain(job.get());
  {
    // Every index is claimed now: unqueue the job unless a worker already
    // did.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(queue_.begin(), queue_.end(), job);
    if (it != queue_.end()) queue_.erase(it);
  }
  std::unique_lock<std::mutex> lock(job->mu);
  job->cv.wait(lock, [&] {
    return job->done.load(std::memory_order_acquire) == job->n;
  });
  if (job->error) std::rethrow_exception(job->error);
}

void WorkerPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    std::shared_ptr<Job> job = queue_.front();
    lock.unlock();
    Drain(job.get());
    lock.lock();
    // Drain returned, so the job has no unclaimed index left.
    auto it = std::find(queue_.begin(), queue_.end(), job);
    if (it != queue_.end()) queue_.erase(it);
  }
}

}  // namespace gopt

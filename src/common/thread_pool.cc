#include "src/common/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace tzllm {

namespace {

// Clears the reentrancy flag even if `body` throws.
class ReentrancyGuard {
 public:
  explicit ReentrancyGuard(std::atomic<bool>* flag) : flag_(flag) {
    if (flag_->exchange(true, std::memory_order_acquire)) {
      std::fprintf(stderr,
                   "ThreadPool::ParallelFor is not reentrant: nested or "
                   "concurrent call on the same pool would deadlock\n");
      std::abort();
    }
  }
  ~ReentrancyGuard() { flag_->store(false, std::memory_order_release); }

 private:
  std::atomic<bool>* flag_;
};

}  // namespace

ThreadPool::ThreadPool(int n_threads) : n_threads_(std::max(1, n_threads)) {
  workers_.reserve(n_threads_ - 1);
  for (int i = 1; i < n_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ThreadPool::WorkerLoop(int part_index) {
  uint64_t seen_epoch = 0;
  for (;;) {
    RangeFn body;
    uint64_t begin, end, chunk;
    {
      MutexLock lock(&mu_);
      while (!stop_ && epoch_ == seen_epoch) {
        work_cv_.Wait(mu_);
      }
      if (stop_) {
        return;
      }
      seen_epoch = epoch_;
      body = body_;
      begin = begin_;
      end = end_;
      chunk = chunk_;
    }
    const uint64_t part_begin =
        std::min(end, begin + static_cast<uint64_t>(part_index) * chunk);
    const uint64_t part_end = std::min(end, part_begin + chunk);
    if (part_begin < part_end) {
      body(part_begin, part_end);
    }
    {
      MutexLock lock(&mu_);
      --pending_;
    }
    done_cv_.NotifyOne();
  }
}

void ThreadPool::Run(uint64_t begin, uint64_t end, RangeFn body) {
  if (begin >= end) {
    return;
  }
  // The guard covers the inline fast path too: nesting there happens to be
  // harmless today, but enforcing the documented contract uniformly keeps a
  // body that "worked" on a 1-thread pool from deadlocking on a larger one.
  ReentrancyGuard guard(&in_parallel_for_);
  const uint64_t span = end - begin;
  if (workers_.empty() || span == 1) {
    body(begin, end);
    return;
  }
  const uint64_t parts = static_cast<uint64_t>(n_threads_);
  const uint64_t chunk = (span + parts - 1) / parts;
  {
    MutexLock lock(&mu_);
    body_ = body;
    begin_ = begin;
    end_ = end;
    chunk_ = chunk;
    pending_ = static_cast<int>(workers_.size());
    ++epoch_;
  }
  work_cv_.NotifyAll();
  // The caller is part 0.
  body(begin, std::min(end, begin + chunk));
  {
    MutexLock lock(&mu_);
    while (pending_ != 0) {
      done_cv_.Wait(mu_);
    }
  }
}

}  // namespace tzllm

// Static-partition fork/join pool for the functional inference kernels.
//
// Deliberately simpler than a work-stealing scheduler: ParallelFor splits the
// index range into one contiguous chunk per thread (the caller runs chunk 0),
// which keeps per-row summation order — and therefore logits — bit-identical
// to the single-threaded schedule. Kernel parallelism here is regular enough
// (equal-cost rows) that stealing would buy nothing and cost determinism.

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace tzllm {

class ThreadPool {
 public:
  // Spawns n_threads - 1 workers; the ParallelFor caller acts as thread 0.
  // n_threads <= 1 creates no workers and runs everything inline.
  explicit ThreadPool(int n_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int n_threads() const { return n_threads_; }

  // Runs body(chunk_begin, chunk_end) over a static partition of
  // [begin, end): part i covers [begin + i*chunk, ...), one part per thread.
  // Blocks until every part finished. Not reentrant: body must not call
  // ParallelFor on the same pool — with workers present a nested call would
  // publish a new epoch while the outer one is still pending and deadlock
  // the outer caller. Enforced twice: at compile time on clang, the negative
  // capability TZLLM_REQUIRES(!mu_) rejects any caller that could already be
  // inside this pool's fork/join section; at run time, a nested (or
  // concurrent) call aborts with a diagnostic instead of hanging. The
  // runtime check is two relaxed atomic ops, noise next to the fork/join
  // handoff, so it stays on in release builds.
  //
  // `body` is any callable taking (uint64_t, uint64_t). It is borrowed, not
  // copied: the call passes a {pointer, trampoline} pair to the workers, so
  // a fork/join makes no heap allocation however large the lambda's
  // captures are (a std::function would allocate once they outgrow its
  // small buffer).
  template <typename Body>
  void ParallelFor(uint64_t begin, uint64_t end, Body&& body)
      TZLLM_REQUIRES(!mu_) {
    using Fn = std::remove_reference_t<Body>;
    Run(begin, end,
        RangeFn{const_cast<void*>(
                    static_cast<const void*>(std::addressof(body))),
                [](void* ctx, uint64_t b, uint64_t e) {
                  (*static_cast<Fn*>(ctx))(b, e);
                }});
  }

 private:
  // Non-owning, type-erased view of a ParallelFor body.
  struct RangeFn {
    void* ctx = nullptr;
    void (*call)(void* ctx, uint64_t begin, uint64_t end) = nullptr;

    void operator()(uint64_t begin, uint64_t end) const {
      call(ctx, begin, end);
    }
  };

  void Run(uint64_t begin, uint64_t end, RangeFn body) TZLLM_REQUIRES(!mu_);
  void WorkerLoop(int part_index) TZLLM_REQUIRES(!mu_);

  const int n_threads_;
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_cv_;  // Signals a new epoch to workers.
  CondVar done_cv_;  // Signals epoch completion to caller.
  uint64_t epoch_ TZLLM_GUARDED_BY(mu_) = 0;  // Incremented per ParallelFor.
  int pending_ TZLLM_GUARDED_BY(mu_) = 0;  // Workers still in this epoch.
  bool stop_ TZLLM_GUARDED_BY(mu_) = false;
  // Reentrancy guard: set for the duration of a ParallelFor call.
  std::atomic<bool> in_parallel_for_{false};

  // Current epoch's task (guarded by mu_ for publication).
  RangeFn body_ TZLLM_GUARDED_BY(mu_);
  uint64_t begin_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t end_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t chunk_ TZLLM_GUARDED_BY(mu_) = 0;
};

}  // namespace tzllm

#endif  // SRC_COMMON_THREAD_POOL_H_

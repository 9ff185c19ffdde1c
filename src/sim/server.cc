#include "src/sim/server.h"

#include <cassert>
#include <utility>

namespace tzllm {

ServerPool::ServerPool(Simulator* sim, std::string name, int capacity)
    : sim_(sim), name_(std::move(name)), capacity_(capacity) {
  assert(capacity > 0);
}

void ServerPool::Submit(Job job) {
  queue_.push(PendingJob{job.priority, next_seq_++, std::move(job)});
  TryDispatch();
}

void ServerPool::Submit(SimDuration duration,
                        std::function<void()> on_complete, std::string label) {
  Submit(Job{0.0, duration, std::move(on_complete), std::move(label)});
}

void ServerPool::TryDispatch() {
  while (busy_ < capacity_ && !queue_.empty()) {
    Job job = std::move(const_cast<PendingJob&>(queue_.top()).job);
    queue_.pop();
    ++busy_;
    busy_time_ += job.duration;
    auto on_complete = std::move(job.on_complete);
    sim_->Schedule(job.duration, [this, on_complete = std::move(on_complete)] {
      --busy_;
      ++jobs_completed_;
      if (on_complete) {
        on_complete();
      }
      TryDispatch();
    });
  }
}

}  // namespace tzllm

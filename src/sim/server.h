// Queueing-model building blocks on top of the Simulator.
//
// A ServerPool models `capacity` identical execution units (CPU cores, NPU
// cores, an IO channel, ...). Jobs are submitted with a priority; whenever a
// unit is free the highest-priority pending job is dispatched and occupies the
// unit for its service duration. Used by the NPU time-sharing evaluation
// (Figure 15), the Geekbench interference models (Figures 2/16) and as the
// substrate under the restoration pipeline executor.

#ifndef SRC_SIM_SERVER_H_
#define SRC_SIM_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "src/sim/simulator.h"

namespace tzllm {

class ServerPool {
 public:
  struct Job {
    // Lower value = more urgent. Ties dispatch in submission (FIFO) order.
    double priority = 0.0;
    SimDuration duration = 0;
    std::function<void()> on_complete;
    // Optional label used by utilization traces.
    std::string label;
  };

  ServerPool(Simulator* sim, std::string name, int capacity);

  void Submit(Job job);

  // Convenience: submit with default priority.
  void Submit(SimDuration duration, std::function<void()> on_complete,
              std::string label = "");

  int capacity() const { return capacity_; }
  int busy() const { return busy_; }
  size_t queued() const { return queue_.size(); }
  bool idle() const { return busy_ == 0 && queue_.empty(); }
  const std::string& name() const { return name_; }

  // Total unit-time spent servicing jobs (for utilization accounting).
  SimDuration busy_time() const { return busy_time_; }
  uint64_t jobs_completed() const { return jobs_completed_; }

 private:
  struct PendingJob {
    double priority;
    uint64_t seq;
    Job job;
    bool operator>(const PendingJob& other) const {
      return priority != other.priority ? priority > other.priority
                                        : seq > other.seq;
    }
  };

  void TryDispatch();

  Simulator* sim_;
  std::string name_;
  int capacity_;
  int busy_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t jobs_completed_ = 0;
  SimDuration busy_time_ = 0;
  std::priority_queue<PendingJob, std::vector<PendingJob>,
                      std::greater<PendingJob>>
      queue_;
};

}  // namespace tzllm

#endif  // SRC_SIM_SERVER_H_

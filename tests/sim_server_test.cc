#include "src/sim/server.h"

#include <gtest/gtest.h>

#include <vector>

namespace tzllm {
namespace {

TEST(ServerPoolTest, SingleServerSerializes) {
  Simulator sim;
  ServerPool pool(&sim, "io", 1);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    pool.Submit(100, [&] { completions.push_back(sim.Now()); });
  }
  sim.Run();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 200, 300}));
}

TEST(ServerPoolTest, CapacityRunsInParallel) {
  Simulator sim;
  ServerPool pool(&sim, "cpu", 4);
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    pool.Submit(100, [&] { completions.push_back(sim.Now()); });
  }
  sim.Run();
  ASSERT_EQ(completions.size(), 4u);
  for (SimTime t : completions) {
    EXPECT_EQ(t, 100u);
  }
}

TEST(ServerPoolTest, PriorityOrdersQueue) {
  Simulator sim;
  ServerPool pool(&sim, "npu", 1);
  std::vector<int> order;
  // Occupy the server so the remaining jobs queue up.
  pool.Submit(10, [&] { order.push_back(0); });
  pool.Submit(ServerPool::Job{5.0, 10, [&] { order.push_back(2); }, ""});
  pool.Submit(ServerPool::Job{1.0, 10, [&] { order.push_back(1); }, ""});
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ServerPoolTest, TracksUtilizationAndCounts) {
  Simulator sim;
  ServerPool pool(&sim, "x", 2);
  for (int i = 0; i < 5; ++i) {
    pool.Submit(40, nullptr);
  }
  sim.Run();
  EXPECT_EQ(pool.jobs_completed(), 5u);
  EXPECT_EQ(pool.busy_time(), 200u);
  EXPECT_TRUE(pool.idle());
}

TEST(ServerPoolTest, CompletionCanSubmitMore) {
  Simulator sim;
  ServerPool pool(&sim, "loop", 1);
  int count = 0;
  std::function<void()> resubmit = [&] {
    if (++count < 4) {
      pool.Submit(10, resubmit);
    }
  };
  pool.Submit(10, resubmit);
  sim.Run();
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sim.Now(), 40u);
}

}  // namespace
}  // namespace tzllm

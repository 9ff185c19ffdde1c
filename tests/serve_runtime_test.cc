// Serving-runtime scheduler coverage (ISSUE 8): continuous batching must be
// a pure throughput decision — every request's tokens are bit-identical to
// generating that prompt alone — across admission, priority ordering, and
// checkpoint-based preemption under slot pressure.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/runtime.h"
#include "src/serve/serving.h"

namespace tzllm {
namespace {

constexpr int kBudget = 8;

const std::vector<std::string>& Prompts() {
  static const std::vector<std::string> prompts = {
      "serve the first request",
      "a second longer request riding the same batch",
      "third request",
  };
  return prompts;
}

RuntimeConfig ServeConfig(int max_sessions, ServeEvictPolicy eviction) {
  RuntimeConfig config;
  config.model = TestSmallModel();
  config.system = SystemKind::kTzLlm;
  config.materialize_model = true;
  config.engine.prefill_batch = 8;
  config.engine.max_sessions = max_sessions;
  config.engine.serve_eviction = eviction;
  return config;
}

// Each prompt generated alone — the identity reference.
std::vector<GenerationResult> SoloRuns() {
  SocPlatform plat;
  SystemRuntime runtime(&plat, ServeConfig(1, ServeEvictPolicy::kNone));
  EXPECT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  EXPECT_TRUE(ta.ok());
  EXPECT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());
  std::vector<GenerationResult> out;
  for (const std::string& prompt : Prompts()) {
    auto result = (*ta)->Generate(prompt, kBudget);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.push_back(result.ok() ? *result : GenerationResult{});
  }
  return out;
}

// results() keyed back to the enqueue order via request id.
std::map<uint64_t, const ServeRequestResult*> ById(
    const std::vector<ServeRequestResult>& results) {
  std::map<uint64_t, const ServeRequestResult*> by_id;
  for (const ServeRequestResult& r : results) {
    by_id[r.request_id] = &r;
  }
  return by_id;
}

TEST(ServeRuntimeTest, ConcurrentRequestsMatchSoloTokens) {
  const auto solo = SoloRuns();

  SocPlatform plat;
  SystemRuntime runtime(&plat, ServeConfig(3, ServeEvictPolicy::kNone));
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  ServingRuntime serve(ta->get(), &plat.sim());
  std::vector<uint64_t> ids;
  for (const std::string& prompt : Prompts()) {
    ServeRequest req;
    req.prompt = prompt;
    req.max_new_tokens = kBudget;
    auto id = serve.Enqueue(req);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  Status done = serve.RunToCompletion();
  ASSERT_TRUE(done.ok()) << done.ToString();
  ASSERT_EQ(serve.results().size(), Prompts().size());
  EXPECT_EQ(serve.pending(), 0);

  const auto by_id = ById(serve.results());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(by_id.count(ids[i]));
    const ServeRequestResult& r = *by_id.at(ids[i]);
    EXPECT_EQ(r.generation.output_tokens, solo[i].output_tokens)
        << "request " << i << " diverged under serving";
    // Timing record sanity: TTFT after submission, tokens in order.
    EXPECT_GE(r.first_token_s, r.submit_s);
    EXPECT_GE(r.finish_s, r.first_token_s);
    for (size_t t = 1; t < r.token_s.size(); ++t) {
      EXPECT_GE(r.token_s[t], r.token_s[t - 1]);
    }
  }
  EXPECT_GT(serve.stats().decode_tokens, 0u);
  EXPECT_EQ(serve.stats().preemptions, 0);
}

TEST(ServeRuntimeTest, PriorityOrdersAdmissionOnOneSlot) {
  SocPlatform plat;
  SystemRuntime runtime(&plat, ServeConfig(1, ServeEvictPolicy::kNone));
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  ServingRuntime serve(ta->get(), &plat.sim());
  auto enqueue = [&](size_t prompt_idx, double priority) {
    ServeRequest req;
    req.prompt = Prompts()[prompt_idx];
    req.max_new_tokens = kBudget;
    req.priority = priority;
    auto id = serve.Enqueue(req);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : 0;
  };
  const uint64_t relaxed = enqueue(0, 3.0);
  const uint64_t urgent = enqueue(1, 1.0);
  const uint64_t middle = enqueue(2, 2.0);
  const uint64_t middle_later = enqueue(0, 2.0);
  ASSERT_TRUE(serve.RunToCompletion().ok());

  // One slot, no preemption: completion order == priority order, first in
  // first out among equal priorities.
  ASSERT_EQ(serve.results().size(), 4u);
  EXPECT_EQ(serve.results()[0].request_id, urgent);
  EXPECT_EQ(serve.results()[1].request_id, middle);
  EXPECT_EQ(serve.results()[2].request_id, middle_later);
  EXPECT_EQ(serve.results()[3].request_id, relaxed);
  EXPECT_EQ(serve.stats().preemptions, 0);
}

TEST(ServeRuntimeTest, UrgentArrivalPreemptsAndEvicteeResumesIdentically) {
  const auto solo = SoloRuns();

  SocPlatform plat;
  SystemRuntime runtime(&plat, ServeConfig(2, ServeEvictPolicy::kPriority));
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  ServingRuntime serve(ta->get(), &plat.sim());
  auto enqueue = [&](size_t prompt_idx, double priority) {
    ServeRequest req;
    req.prompt = Prompts()[prompt_idx];
    req.max_new_tokens = kBudget;
    req.priority = priority;
    auto id = serve.Enqueue(req);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : 0;
  };
  // Fill both slots with relaxed-priority requests and run a few ticks so
  // both are admitted, prefilled and decoding.
  const uint64_t victim_a = enqueue(0, 5.0);
  const uint64_t victim_b = enqueue(1, 5.0);
  for (int i = 0; i < 4; ++i) {
    auto more = serve.Tick();
    ASSERT_TRUE(more.ok()) << more.status().ToString();
  }
  // An urgent request arrives with every slot occupied: the scheduler must
  // checkpoint-evict a victim, serve the urgent request, then restore the
  // evictee — whose final tokens must not show a trace of the round trip.
  const uint64_t urgent = enqueue(2, 1.0);
  ASSERT_TRUE(serve.RunToCompletion().ok());

  ASSERT_EQ(serve.results().size(), 3u);
  EXPECT_GE(serve.stats().preemptions, 1);
  const auto by_id = ById(serve.results());
  const std::vector<uint64_t> ids = {victim_a, victim_b, urgent};
  int evicted = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(by_id.count(ids[i]));
    const ServeRequestResult& r = *by_id.at(ids[i]);
    EXPECT_EQ(r.generation.output_tokens, solo[i].output_tokens)
        << "request " << i << " diverged across eviction pressure";
    evicted += r.preemptions > 0 ? 1 : 0;
  }
  EXPECT_GE(evicted, 1);
  // The urgent request itself was never evicted.
  EXPECT_EQ(by_id.at(urgent)->preemptions, 0);
}

TEST(ServeRuntimeTest, NoEvictionPolicyMakesUrgentWaitInQueue) {
  SocPlatform plat;
  SystemRuntime runtime(&plat, ServeConfig(1, ServeEvictPolicy::kNone));
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  ServingRuntime serve(ta->get(), &plat.sim());
  ServeRequest relaxed;
  relaxed.prompt = Prompts()[0];
  relaxed.max_new_tokens = kBudget;
  relaxed.priority = 5.0;
  ASSERT_TRUE(serve.Enqueue(relaxed).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(serve.Tick().ok());
  }
  ServeRequest urgent;
  urgent.prompt = Prompts()[1];
  urgent.max_new_tokens = kBudget;
  urgent.priority = 1.0;
  ASSERT_TRUE(serve.Enqueue(urgent).ok());
  ASSERT_TRUE(serve.RunToCompletion().ok());
  // Under kNone the running request completes first; no checkpoints happen.
  ASSERT_EQ(serve.results().size(), 2u);
  EXPECT_EQ(serve.stats().preemptions, 0);
  EXPECT_EQ(serve.results()[0].priority, 5.0);
  EXPECT_EQ(serve.results()[1].priority, 1.0);
}

TEST(ServeRuntimeTest, CompletedRunLeavesNoSessionCheckpointOnFlash) {
  // Every finished session deletes its sealed blob, whether it got there by
  // eviction or by an auto-checkpoint snapshot: a long-running server must
  // not grow REE flash by one blob per preempted request.
  SocPlatform plat;
  RuntimeConfig config = ServeConfig(2, ServeEvictPolicy::kPriority);
  config.engine.serve_checkpoint_every_n_ticks = 2;
  SystemRuntime runtime(&plat, config);
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  ServingRuntime serve(ta->get(), &plat.sim());
  for (size_t i = 0; i < 2; ++i) {
    ServeRequest req;
    req.prompt = Prompts()[i];
    req.max_new_tokens = kBudget;
    req.priority = 5.0;
    ASSERT_TRUE(serve.Enqueue(req).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(serve.Tick().ok());
  }
  ServeRequest urgent;
  urgent.prompt = Prompts()[2];
  urgent.max_new_tokens = kBudget;
  urgent.priority = 1.0;
  ASSERT_TRUE(serve.Enqueue(urgent).ok());
  ASSERT_TRUE(serve.RunToCompletion().ok());

  ASSERT_EQ(serve.results().size(), 3u);
  EXPECT_GE(serve.stats().preemptions, 1);
  EXPECT_GE(serve.stats().auto_checkpoints, 1u);
  for (const std::string& name : plat.flash().FileNames()) {
    EXPECT_EQ(name.find(".sess."), std::string::npos)
        << name << " outlived its finished session";
  }
}

}  // namespace
}  // namespace tzllm

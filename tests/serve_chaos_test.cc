// Serving-layer chaos coverage (ISSUE 10): armed serve-fault plans must
// never change a token. Spilled-page tamper/drop heals by recompute from
// token history, deleted checkpoints restart the evictee from its prompt,
// a crashed TA recovers the whole fleet from the serving manifest — and
// the overload valves (queue bound, deadline shedding, stuck-tick
// watchdog) shed deterministically instead of degrading admitted work.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/common/fault_plan.h"
#include "src/core/runtime.h"
#include "src/llm/model_spec.h"
#include "src/serve/serving.h"

namespace tzllm {
namespace {

constexpr int kBudget = 16;
constexpr int kSessions = 4;
constexpr int kMaxCtx = 64;
constexpr int kPagePositions = 8;

LlmConfig ChaosModel() {
  LlmConfig c = TestSmallModel();
  // A short context keeps one session at a few pages, so four sessions
  // genuinely over-subscribe the one-slot pool below.
  c.max_ctx = kMaxCtx;
  return c;
}

const std::vector<std::string>& Prompts() {
  static const std::vector<std::string> prompts = {
      "alpha chaos request", "bravo chaos request", "charlie chaos request",
      "delta chaos request"};
  return prompts;
}

// Oversubscribed paged engine: four sessions over ONE session's worth of
// resident pages, so every decode round trips pages through REE spill —
// the constant pressure the spill-fault plans corrupt.
RuntimeConfig PagedChaosConfig(const std::string& plan) {
  RuntimeConfig config;
  config.model = ChaosModel();
  config.system = SystemKind::kTzLlm;
  config.materialize_model = true;
  config.engine.prefill_batch = 8;
  config.engine.max_sessions = kSessions;
  config.engine.serve_eviction = ServeEvictPolicy::kNone;
  config.engine.kv_page_positions = kPagePositions;
  config.engine.kv_pool_bytes =
      ModelSpec::Create(config.model).KvCacheBytes(kMaxCtx);
  config.engine.kv_prefix_entries = 0;
  // EVERY spill is lost under the tamper/drop plans: the budget must cover
  // sustained re-prefill, not a one-off incident.
  config.engine.kv_recompute_max = 1 << 20;
  config.engine.fault_plan = plan;
  return config;
}

// Every admitted session fully resident: the pool at its default budget and
// no prefix sharing, so extra demand queues or is evicted whole.
RuntimeConfig ResidentConfig(int max_sessions, ServeEvictPolicy eviction,
                             const std::string& plan = "") {
  RuntimeConfig config;
  config.model = ChaosModel();
  config.system = SystemKind::kTzLlm;
  config.materialize_model = true;
  config.engine.prefill_batch = 8;
  config.engine.max_sessions = max_sessions;
  config.engine.serve_eviction = eviction;
  config.engine.kv_prefix_entries = 0;
  config.engine.fault_plan = plan;
  return config;
}

// Each prompt generated alone on a single-session engine — the identity
// reference (page size, spill and sharing never change a logit).
std::vector<std::vector<TokenId>> SoloRuns() {
  SocPlatform plat;
  SystemRuntime runtime(&plat, ResidentConfig(1, ServeEvictPolicy::kNone));
  EXPECT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  EXPECT_TRUE(ta.ok());
  EXPECT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());
  std::vector<std::vector<TokenId>> out;
  for (const std::string& prompt : Prompts()) {
    auto result = (*ta)->Generate(prompt, kBudget);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.push_back(result.ok() ? result->output_tokens
                              : std::vector<TokenId>{});
  }
  return out;
}

std::map<uint64_t, const ServeRequestResult*> ById(
    const std::vector<ServeRequestResult>& results) {
  std::map<uint64_t, const ServeRequestResult*> by_id;
  for (const ServeRequestResult& r : results) {
    by_id[r.request_id] = &r;
  }
  return by_id;
}

// Runs all four prompts through a serving runtime on `config` and checks
// every completed request against the solo references. Returns the final
// stats for plan-specific assertions; `ckpt_drops`, when given, receives
// the checkpoints the plan deleted.
ServeStats RunAllAndExpectSoloTokens(const RuntimeConfig& config,
                                     uint64_t* ckpt_drops = nullptr) {
  const auto solo = SoloRuns();
  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  EXPECT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  EXPECT_TRUE(ta.ok());
  EXPECT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  ServingRuntime serve(ta->get(), &plat.sim());
  std::vector<uint64_t> ids;
  for (const std::string& prompt : Prompts()) {
    ServeRequest req;
    req.prompt = prompt;
    req.max_new_tokens = kBudget;
    auto id = serve.Enqueue(req);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.ok() ? *id : 0);
  }
  Status done = serve.RunToCompletion();
  EXPECT_TRUE(done.ok()) << done.ToString();
  EXPECT_EQ(serve.results().size(), Prompts().size());

  const auto by_id = ById(serve.results());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(by_id.count(ids[i]));
    if (!by_id.count(ids[i])) continue;
    const ServeRequestResult& r = *by_id.at(ids[i]);
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.generation.output_tokens, solo[i])
        << "request " << i << " diverged under the armed fault plan";
  }
  if (ckpt_drops != nullptr) {
    *ckpt_drops = (*ta)->ckpt_drops_injected();
  }
  return serve.stats();
}

// --- Recompute-on-loss: spilled pages tampered / dropped wholesale. -------

TEST(ServeChaosTest, SpillTamperRecomputesAndMatchesSolo) {
  // Second input: NPU prefill with a quantum (4) smaller than a page (8).
  // An NPU job context holds prefill_batch positions, so recovery must
  // re-prefill a lost page in quanta like every other prefill.
  RuntimeConfig npu = PagedChaosConfig("spill_tamper@1x1000000");
  npu.use_npu = true;
  npu.engine.npu_prefill = true;
  npu.engine.prefill_batch = 4;
  for (const RuntimeConfig& config :
       {PagedChaosConfig("spill_tamper@1x1000000"), npu}) {
    SCOPED_TRACE(config.engine.npu_prefill ? "npu" : "cpu");
    const ServeStats stats = RunAllAndExpectSoloTokens(config);
    // The plan corrupted real spill traffic and recovery really ran.
    EXPECT_GT(stats.page_spills, 0u);
    EXPECT_GT(stats.pages_lost, 0u);
    EXPECT_GT(stats.pages_recomputed, 0u);
    EXPECT_GT(stats.kv_recoveries, 0u);
  }
}

TEST(ServeChaosTest, SpillDropRecomputesAndMatchesSolo) {
  const ServeStats stats =
      RunAllAndExpectSoloTokens(PagedChaosConfig("spill_drop@1x1000000"));
  EXPECT_GT(stats.page_spills, 0u);
  EXPECT_GT(stats.pages_lost, 0u);
  EXPECT_GT(stats.pages_recomputed, 0u);
  EXPECT_GT(stats.kv_recoveries, 0u);
}

// --- ckpt_drop: every sealed session checkpoint deleted after sealing. ----

TEST(ServeChaosTest, CkptDropRestartsEvicteeIdentically) {
  const auto solo = SoloRuns();
  SocPlatform plat;
  SystemRuntime runtime(
      &plat,
      ResidentConfig(2, ServeEvictPolicy::kPriority, "ckpt_drop@1x1000000"));
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
  // Fill both slots, let them decode, then force a checkpoint eviction —
  // whose sealed blob the plan deletes, so readmission must restart the
  // victim from its prompt instead of restoring.
  const std::vector<uint64_t> ids = {enqueue(0, 5.0), enqueue(1, 5.0)};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(serve.Tick().ok());
  }
  const uint64_t urgent = enqueue(2, 1.0);
  ASSERT_TRUE(serve.RunToCompletion().ok());

  EXPECT_GE(serve.stats().preemptions, 1);
  EXPECT_GE(serve.stats().sessions_restarted, 1u);
  EXPECT_GE((*ta)->ckpt_drops_injected(), 1u);
  const auto by_id = ById(serve.results());
  const std::vector<uint64_t> all = {ids[0], ids[1], urgent};
  for (size_t i = 0; i < all.size(); ++i) {
    ASSERT_TRUE(by_id.count(all[i]));
    EXPECT_EQ(by_id.at(all[i])->generation.output_tokens, solo[i])
        << "request " << i << " diverged across the dropped checkpoint";
  }
}

// --- ta_crash: kill the TA mid-run, Recover() the fleet on a fresh one. ---

TEST(ServeChaosTest, TaCrashRecoverResumesFleetIdentically) {
  const auto solo = SoloRuns();
  // ta_crash@10 with a checkpoint every 4 ticks: the crash always lands
  // after at least one auto-checkpoint round. The plan re-arms on every
  // reboot, so recovery itself may crash again — loop until a round
  // outruns the crash tick.
  RuntimeConfig config =
      ResidentConfig(2, ServeEvictPolicy::kNone, "ta_crash@10");
  config.engine.serve_checkpoint_every_n_ticks = 4;
  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  std::map<uint64_t, std::vector<TokenId>> outs;
  uint64_t recovered_total = 0;
  uint64_t checkpoints_total = 0;
  auto drain = [&](const ServingRuntime& serve) {
    for (const ServeRequestResult& r : serve.results()) {
      if (r.status.ok()) {
        outs[r.request_id] = r.generation.output_tokens;
      }
    }
    recovered_total += serve.stats().sessions_recovered;
    checkpoints_total += serve.stats().auto_checkpoints;
  };

  uint64_t first_id = 0;
  Status done = OkStatus();
  {
    ServingRuntime serve(ta->get(), &plat.sim());
    for (const std::string& prompt : Prompts()) {
      ServeRequest req;
      req.prompt = prompt;
      req.max_new_tokens = kBudget;
      auto id = serve.Enqueue(req);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      if (first_id == 0) {
        first_id = *id;
      }
    }
    done = serve.RunToCompletion();
    drain(serve);
  }
  ASSERT_FALSE(done.ok()) << "the injected crash never fired";
  int crashes = 0;
  for (int round = 0; !done.ok() && round < 16; ++round) {
    ASSERT_EQ(done.code(), ErrorCode::kAborted) << done.ToString();
    ++crashes;
    // The "crash": scrub secure memory and drop the TA. Only flash — the
    // model, the session blobs, the serving manifest — survives.
    ASSERT_TRUE((*ta)->Unload().ok());
    (*ta).reset();
    ta = runtime.CreateFunctionalTa();
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());
    ServingRuntime serve(ta->get(), &plat.sim());
    ASSERT_TRUE(serve.Recover().ok());
    done = serve.RunToCompletion();
    drain(serve);
  }
  ASSERT_TRUE(done.ok()) << done.ToString();

  EXPECT_GE(crashes, 1);
  EXPECT_GE(recovered_total, 1u);
  EXPECT_GE(checkpoints_total, 1u);
  ASSERT_EQ(outs.size(), Prompts().size());
  for (const auto& [id, tokens] : outs) {
    const size_t idx = static_cast<size_t>(id - first_id);
    ASSERT_LT(idx, solo.size());
    EXPECT_EQ(tokens, solo[idx])
        << "request " << idx << " diverged across the TA crash";
  }
}

// --- Overload valves: queue bound, deadline shedding, watchdog. -----------

TEST(ServeChaosTest, QueueBoundRejectsWithUnavailable) {
  RuntimeConfig config = ResidentConfig(1, ServeEvictPolicy::kNone);
  config.engine.serve_queue_max = 2;
  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  ServingRuntime serve(ta->get(), &plat.sim());
  ServeRequest req;
  req.max_new_tokens = kBudget;
  req.prompt = Prompts()[0];
  ASSERT_TRUE(serve.Enqueue(req).ok());
  req.prompt = Prompts()[1];
  ASSERT_TRUE(serve.Enqueue(req).ok());
  // Two already waiting: the bound sheds the third at the door.
  req.prompt = Prompts()[2];
  auto rejected = serve.Enqueue(req);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(serve.stats().requests_rejected, 1u);

  ASSERT_TRUE(serve.RunToCompletion().ok());
  EXPECT_EQ(serve.results().size(), 2u);
}

TEST(ServeChaosTest, DeadlineTicksShedsQueuedRequest) {
  // A shed request leaves no trace on the admitted session: under kPriority
  // an urgent arrival shed at its deadline must not preempt the prefilled
  // head it would have displaced (a checkpoint and restore for nothing).
  struct Input {
    ServeEvictPolicy eviction;
    double head_priority;
    double impatient_priority;
    uint64_t deadline_ticks;
  };
  for (const Input& in :
       {Input{ServeEvictPolicy::kNone, 1.0, 5.0, 3},
        Input{ServeEvictPolicy::kPriority, 5.0, 1.0, 1}}) {
    SCOPED_TRACE(in.eviction == ServeEvictPolicy::kNone ? "kNone"
                                                        : "kPriority");
    SocPlatform plat;
    SystemRuntime runtime(&plat, ResidentConfig(1, in.eviction));
    ASSERT_TRUE(runtime.Setup().ok());
    auto ta = runtime.CreateFunctionalTa();
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

    ServingRuntime serve(ta->get(), &plat.sim());
    ServeRequest head;
    head.prompt = Prompts()[0];
    head.max_new_tokens = kBudget;
    head.priority = in.head_priority;
    auto head_id = serve.Enqueue(head);
    ASSERT_TRUE(head_id.ok());
    // Admit and prefill the head on the only slot before the impatient
    // arrival: a session still mid-prefill is never a preemption victim.
    for (int i = 0; i < 8 && serve.stats().decode_tokens == 0; ++i) {
      ASSERT_TRUE(serve.Tick().ok());
    }
    ASSERT_GT(serve.stats().decode_tokens, 0u);
    ServeRequest impatient;
    impatient.prompt = Prompts()[1];
    impatient.max_new_tokens = kBudget;
    impatient.priority = in.impatient_priority;
    impatient.deadline_ticks = in.deadline_ticks;
    auto shed_id = serve.Enqueue(impatient);
    ASSERT_TRUE(shed_id.ok());

    ASSERT_TRUE(serve.RunToCompletion().ok());
    ASSERT_EQ(serve.results().size(), 2u);
    EXPECT_EQ(serve.stats().requests_shed, 1u);
    EXPECT_EQ(serve.stats().preemptions, 0);
    const auto by_id = ById(serve.results());
    ASSERT_TRUE(by_id.count(*head_id));
    ASSERT_TRUE(by_id.count(*shed_id));
    EXPECT_TRUE(by_id.at(*head_id)->status.ok());
    EXPECT_EQ(by_id.at(*shed_id)->status.code(), ErrorCode::kUnavailable);
    EXPECT_TRUE(by_id.at(*shed_id)->generation.output_tokens.empty());
  }
}

TEST(ServeChaosTest, WatchdogSurfacesStuckScheduler) {
  RuntimeConfig config = ResidentConfig(1, ServeEvictPolicy::kNone);
  config.engine.serve_watchdog_ticks = 3;
  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  ServingRuntime serve(ta->get(), &plat.sim());
  ServeRequest req;
  req.prompt = Prompts()[0];
  req.max_new_tokens = kBudget;
  ASSERT_TRUE(serve.Enqueue(req).ok());
  serve.InjectStallTicksForTest(10);
  Status st = OkStatus();
  for (int i = 0; i < 10 && st.ok(); ++i) {
    auto more = serve.Tick();
    st = more.status();
  }
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kDeadlineExceeded) << st.ToString();
  // The diagnostics name the stuck shape of the fleet.
  EXPECT_NE(st.ToString().find("queued"), std::string::npos);
}

TEST(ServeChaosTest, WatchdogOffKeepsImmediateInternalError) {
  SocPlatform plat;
  SystemRuntime runtime(&plat, ResidentConfig(1, ServeEvictPolicy::kNone));
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  ServingRuntime serve(ta->get(), &plat.sim());
  ServeRequest req;
  req.prompt = Prompts()[0];
  req.max_new_tokens = kBudget;
  ASSERT_TRUE(serve.Enqueue(req).ok());
  serve.InjectStallTicksForTest(1);
  auto more = serve.Tick();
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), ErrorCode::kInternal);
}

// --- CI chaos matrix: whatever plan the environment arms, tokens hold. ----

TEST(ServeChaosTest, EnvPlanRunMatchesSolo) {
  const char* env = std::getenv("TZLLM_FAULT_PLAN");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "TZLLM_FAULT_PLAN not set";
  }
  // A misspelt plan must fail here, not run unfaulted and pass.
  auto plan = FaultPlan::Parse(env);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  switch (plan->fault) {
    case FaultClass::kSpillTamper:
    case FaultClass::kSpillDrop:
    case FaultClass::kCkptDrop:
      break;
    case FaultClass::kTaCrash:
      GTEST_SKIP() << "ta_crash needs the reboot harness (see "
                      "TaCrashRecoverResumesFleetIdentically / fig18)";
    default:
      GTEST_SKIP() << plan->ToString()
                   << " is an NPU class; this config has no NPU";
  }
  // No fault_plan in the options: the environment plan applies. The paged
  // oversubscribed config gives the spill classes real traffic; the
  // checkpoint cadence gives ckpt_drop real seals.
  RuntimeConfig config = PagedChaosConfig("");
  config.engine.serve_checkpoint_every_n_ticks = 4;
  uint64_t ckpt_drops = 0;
  const ServeStats stats = RunAllAndExpectSoloTokens(config, &ckpt_drops);
  // The plan must have fired, or the run proved nothing.
  if (plan->fault == FaultClass::kCkptDrop) {
    EXPECT_GT(ckpt_drops, 0u);
  } else {
    EXPECT_GT(stats.pages_lost, 0u);
  }
}

}  // namespace
}  // namespace tzllm

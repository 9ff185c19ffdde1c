// Fault-injection matrix for the NPU offload path: every deterministic
// fault class (payload fault, device stall, context-validation rejection,
// lost post-submit shadow) crossed with {transient retry, persistent
// fallback, recovery off}, on the one prefill schedule (one Forward call per
// chunk, the TA's schedule). The contract under test:
//
//  - a transient fault is retried within the bounded backoff budget and the
//    prefill completes with logits BIT-IDENTICAL to the CPU path;
//  - a persistent fault exhausts the retries and the failed job's matmul
//    group re-executes on the CPU (transparent fallback) — still
//    bit-identical, with the degradation visible in the driver stats;
//  - with recovery disabled the failure surfaces as a clean Status (no
//    hang, device reusable afterwards);
//  - everything happens in bounded virtual time.
//
// The FaultPlan parser tests here cover every class, the serving ones
// included (src/common/fault_plan.h).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/fault_plan.h"
#include "src/llm/backend/backend.h"
#include "src/llm/executor.h"
#include "src/llm/kv_cache.h"
#include "src/llm/model_spec.h"
#include "src/llm/tzguf.h"
#include "src/ree/npu_driver.h"
#include "src/ree/tz_driver.h"
#include "src/tee/npu_driver.h"
#include "src/tee/tee_os.h"

namespace tzllm {
namespace {

constexpr uint64_t kWeightSeed = 777;
// Small virtual per-job deadline: fault tests wait this out up to a few
// times per injected fault, so keeping it tight keeps the suite's virtual
// makespan (and the bounded-time assertions) meaningful.
constexpr SimDuration kTestJobTimeout = 20 * kMillisecond;

std::vector<TokenId> MakePrompt(const LlmConfig& c, int n) {
  std::vector<TokenId> tokens(n);
  for (int i = 0; i < n; ++i) {
    tokens[i] = 1 + (i * 7) % (c.vocab_size - 2);
  }
  return tokens;
}

// One full secure stack per experiment: fault plans and driver recovery
// stats must not bleed between matrix cells.
struct SecureStack {
  SecureStack() : spec(ModelSpec::Create(TestSmallModel())) {
    ReeMemoryLayout layout;
    layout.dram_bytes = plat.config().dram_bytes;
    layout.kernel_bytes = 256 * kMiB;
    layout.cma_bytes = 1 * kGiB;
    layout.cma2_bytes = 256 * kMiB;
    mm = std::make_unique<ReeMemoryManager>(layout, &plat.dram());
    tz = std::make_unique<TzDriver>(&plat, mm.get());
    ree_npu = std::make_unique<ReeNpuDriver>(&plat);
    ree_npu->Init();
    tee = std::make_unique<TeeOs>(&plat, tz.get(), 42);
    EXPECT_TRUE(tee->Boot().ok());
    tee_npu = std::make_unique<TeeNpuDriver>(&plat, tee.get());
    tee_npu->Init();
    ta = *tee->CreateTa("llm");
    EXPECT_TRUE(
        tee->ExtendAllocated(ta, SecureRegionId::kScratch, 16 * kMiB).ok());
    EXPECT_TRUE(
        tee->ExtendProtected(ta, SecureRegionId::kScratch, 16 * kMiB).ok());
    scratch = tee->RegionBase(SecureRegionId::kScratch);
    weights = Tzguf::ReferenceWeights(spec, kWeightSeed);
  }

  NpuBackendConfig BackendConfig(const EngineOptions& options) {
    NpuBackendConfig config;
    config.platform = &plat;
    config.driver = tee_npu.get();
    config.ta = ta;
    config.ctx_base = scratch;
    config.ctx_bytes = NpuBackend::ContextBytes(spec, options);
    config.kernels = KernelsFor(options);
    config.job_timeout = kTestJobTimeout;
    return config;
  }

  Result<std::vector<float>> NpuPrefill(const EngineOptions& options,
                                        const std::vector<TokenId>& prompt,
                                        NpuBackend* backend) {
    HostWeightSource source(weights);
    TransformerExecutor exec(&spec, &source, options, backend);
    KvCache kv(spec, KernelsFor(options));
    return exec.Prefill(prompt, &kv);
  }

  SocPlatform plat;
  ModelSpec spec;
  std::unique_ptr<ReeMemoryManager> mm;
  std::unique_ptr<TzDriver> tz;
  std::unique_ptr<ReeNpuDriver> ree_npu;
  std::unique_ptr<TeeOs> tee;
  std::unique_ptr<TeeNpuDriver> tee_npu;
  TaId ta = -1;
  PhysAddr scratch = 0;
  std::vector<Tensor> weights;
};

// The matrix axis.
const char* const kFaultClasses[] = {"payload", "timeout", "ctx", "submit"};

EngineOptions PrefillOptions() {
  EngineOptions options;
  options.prefill_batch = 8;
  return options;
}

// CPU reference logits for `options` — computed on a stack-independent
// executor so the comparison is against the unfaulted ground truth.
std::vector<float> CpuReference(const ModelSpec& spec,
                                const std::vector<Tensor>& weights,
                                const EngineOptions& options,
                                const std::vector<TokenId>& prompt) {
  HostWeightSource source(weights);
  TransformerExecutor exec(&spec, &source, options);
  KvCache kv(spec, KernelsFor(options));
  auto logits = exec.Prefill(prompt, &kv);
  EXPECT_TRUE(logits.ok()) << logits.status().ToString();
  return logits.ok() ? *logits : std::vector<float>();
}

TEST(FaultPlanTest, ParseAcceptsEveryClassAndAlias) {
  struct Case {
    const char* text;
    FaultClass fault;
    uint64_t first;
    uint64_t count;
  };
  const Case cases[] = {
      {"payload@3", FaultClass::kPayload, 3, 1},
      {"timeout@2x5", FaultClass::kTimeout, 2, 5},
      {"stall@1", FaultClass::kTimeout, 1, 1},
      {"ctx@4", FaultClass::kContext, 4, 1},
      {"context@4x2", FaultClass::kContext, 4, 2},
      {"submit@7", FaultClass::kSubmit, 7, 1},
      {"spill_tamper@1x100", FaultClass::kSpillTamper, 1, 100},
      {"spill_drop@2", FaultClass::kSpillDrop, 2, 1},
      {"ckpt_drop@1x1000000", FaultClass::kCkptDrop, 1, 1000000},
      {"ta_crash@40", FaultClass::kTaCrash, 40, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    auto plan = FaultPlan::Parse(c.text);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->fault, c.fault);
    EXPECT_EQ(plan->first, c.first);
    EXPECT_EQ(plan->count, c.count);
    EXPECT_TRUE(plan->active());
    // ToString prints what Parse reads.
    auto again = FaultPlan::Parse(plan->ToString());
    ASSERT_TRUE(again.ok()) << plan->ToString();
    EXPECT_EQ(again->fault, c.fault);
    EXPECT_EQ(again->first, c.first);
    EXPECT_EQ(again->count, c.count);
  }
  for (const char* empty : {"", "none"}) {
    auto plan = FaultPlan::Parse(empty);
    ASSERT_TRUE(plan.ok());
    EXPECT_FALSE(plan->active());
  }
}

TEST(FaultPlanTest, ParseRejectsMalformedPlans) {
  const char* const bad[] = {
      "bogus@1",
      "payload@",
      "payload@0",
      "payload@1x0",
      "@3",
      "payload3",
      "payload@ax2",
      "payload@1xq",
      "payload@x",
      "spill@1",
      "ta_crash@0",
      "ckpt_drop@2x0",
      "payload@-1",
      "payload@+3",
      "payload@ 3",
      "payload@3x-1",
      "payload@99999999999999999999",
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    auto plan = FaultPlan::Parse(text);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), ErrorCode::kInvalidArgument);
  }
}

TEST(FaultPlanTest, HitsSelectsTheConfiguredWindow) {
  auto plan = FaultPlan::Parse("payload@3x2");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->Hits(FaultClass::kPayload, 2));
  EXPECT_TRUE(plan->Hits(FaultClass::kPayload, 3));
  EXPECT_TRUE(plan->Hits(FaultClass::kPayload, 4));
  EXPECT_FALSE(plan->Hits(FaultClass::kPayload, 5));
  // Each injection point asks for its own class: no other class ever hits.
  for (FaultClass other :
       {FaultClass::kNone, FaultClass::kTimeout, FaultClass::kContext,
        FaultClass::kSubmit, FaultClass::kSpillTamper, FaultClass::kSpillDrop,
        FaultClass::kCkptDrop, FaultClass::kTaCrash}) {
    for (uint64_t ordinal = 0; ordinal <= 5; ++ordinal) {
      EXPECT_FALSE(plan->Hits(other, ordinal));
    }
  }
}

TEST(NpuFaultMatrixTest, TransientFaultRecoversBitIdentically) {
  // One injected fault per run; the bounded retry budget must absorb it and
  // the logits must match the CPU reference exactly — recovery replays the
  // same payload over the same bytes, so there is no tolerance to grant.
  for (const char* cls : kFaultClasses) {
    SCOPED_TRACE(cls);
    SecureStack stack;
    const EngineOptions options = PrefillOptions();
    const auto prompt = MakePrompt(stack.spec.config(), 20);
    const std::vector<float> cpu =
        CpuReference(stack.spec, stack.weights, options, prompt);

    auto plan = FaultPlan::Parse(std::string(cls) + "@3");
    ASSERT_TRUE(plan.ok());
    stack.tee_npu->ArmFaultPlan(*plan);
    NpuBackendConfig config = stack.BackendConfig(options);
    NpuBackend backend(config);
    const SimTime start = stack.plat.sim().Now();
    auto npu = stack.NpuPrefill(options, prompt, &backend);
    ASSERT_TRUE(npu.ok()) << npu.status().ToString();
    ASSERT_EQ(npu->size(), cpu.size());
    for (size_t i = 0; i < cpu.size(); ++i) {
      ASSERT_EQ((*npu)[i], cpu[i]) << "logit " << i;
    }
    EXPECT_GE(stack.tee_npu->faults_injected(), 1u);
    // A single transient fault must be absorbed by retries and never
    // reach the CPU-fallback stage.
    EXPECT_GE(stack.tee_npu->jobs_recovered(), 1u);
    EXPECT_EQ(stack.tee_npu->fallback_jobs(), 0u);
    // Bounded virtual time: a hang would blow far past a handful of
    // deadline+backoff rounds.
    EXPECT_LT(stack.plat.sim().Now() - start, 100 * kTestJobTimeout);
    EXPECT_FALSE(stack.plat.tzpc().IsSecure(DeviceId::kNpu));
  }
}

TEST(NpuFaultMatrixTest, PersistentFaultFallsBackToCpuBitIdentically) {
  // The fault hits every ordinal from 3 on: retries cannot clear it, so the
  // failed job's matmul group must re-execute on the CPU and the prefill
  // must continue — same logits, degradation visible in the stats.
  for (const char* cls : kFaultClasses) {
    SCOPED_TRACE(cls);
    SecureStack stack;
    const EngineOptions options = PrefillOptions();
    const auto prompt = MakePrompt(stack.spec.config(), 20);
    const std::vector<float> cpu =
        CpuReference(stack.spec, stack.weights, options, prompt);

    auto plan = FaultPlan::Parse(std::string(cls) + "@3x1000000");
    ASSERT_TRUE(plan.ok());
    stack.tee_npu->ArmFaultPlan(*plan);
    NpuBackendConfig config = stack.BackendConfig(options);
    config.max_retries = 1;
    NpuBackend backend(config);
    const SimTime start = stack.plat.sim().Now();
    auto npu = stack.NpuPrefill(options, prompt, &backend);
    ASSERT_TRUE(npu.ok()) << npu.status().ToString();
    ASSERT_EQ(npu->size(), cpu.size());
    for (size_t i = 0; i < cpu.size(); ++i) {
      ASSERT_EQ((*npu)[i], cpu[i]) << "logit " << i;
    }
    EXPECT_GE(stack.tee_npu->fallback_jobs(), 1u);
    EXPECT_GE(stack.tee_npu->fallback_matmuls(), 1u);
    // Every job pays (1 + max_retries) deadline rounds at worst; the
    // bound scales with the job count but must stay finite and modest.
    EXPECT_LT(stack.plat.sim().Now() - start, 1000 * kTestJobTimeout);
  }
}

TEST(NpuFaultMatrixTest, RecoveryDisabledSurfacesCleanStatusAndDrains) {
  // max_retries=0 + cpu_fallback=false: the raw fault must surface as a
  // clean Status out of Prefill — no hang — and the device must be
  // reusable for a subsequent unfaulted run on the same stack.
  for (const char* cls : kFaultClasses) {
    SCOPED_TRACE(cls);
    SecureStack stack;
    const EngineOptions options = PrefillOptions();
    const auto prompt = MakePrompt(stack.spec.config(), 20);

    auto plan = FaultPlan::Parse(std::string(cls) + "@3");
    ASSERT_TRUE(plan.ok());
    stack.tee_npu->ArmFaultPlan(*plan);
    NpuBackendConfig config = stack.BackendConfig(options);
    config.max_retries = 0;
    config.cpu_fallback = false;
    const SimTime start = stack.plat.sim().Now();
    {
      NpuBackend backend(config);
      auto npu = stack.NpuPrefill(options, prompt, &backend);
      ASSERT_FALSE(npu.ok());
      EXPECT_NE(npu.status().code(), ErrorCode::kOk);
    }
    EXPECT_LT(stack.plat.sim().Now() - start, 100 * kTestJobTimeout);

    // Disarm and rerun: the device and driver must have been handed back
    // in a reusable state despite the failed run.
    stack.tee_npu->ArmFaultPlan(FaultPlan{});
    NpuBackend retry_backend(stack.BackendConfig(options));
    auto ok_run = stack.NpuPrefill(options, prompt, &retry_backend);
    ASSERT_TRUE(ok_run.ok()) << ok_run.status().ToString();
    const std::vector<float> cpu =
        CpuReference(stack.spec, stack.weights, options, prompt);
    ASSERT_EQ(ok_run->size(), cpu.size());
    for (size_t i = 0; i < cpu.size(); ++i) {
      ASSERT_EQ((*ok_run)[i], cpu[i]) << "logit " << i;
    }
  }
}

}  // namespace
}  // namespace tzllm

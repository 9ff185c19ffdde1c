// Modeled-vs-measured co-driver cross-check (fig09/fig10 validation): the
// paper-scale figures price secure-NPU prefill with cost-model constants
// (PerJobSwitchCost, NpuMatmulTime). SystemRuntime::CreateFunctionalTa runs
// REAL NPU-offloaded token generation — fused jobs, shadow queue, takeover
// smcs, world switches — on the same platform, TEE stack and TeeNpuDriver
// instance those figures submit through, so the driver's measured per-job
// statistics can be checked against the model on one clock.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/runtime.h"
#include "src/llm/engine.h"
#include "src/llm/model_spec.h"

namespace tzllm {
namespace {

RuntimeConfig FunctionalNpuConfig() {
  RuntimeConfig config;
  config.model = TestSmallModel();
  config.system = SystemKind::kTzLlm;
  config.use_npu = true;
  config.materialize_model = true;
  config.engine.prefill_batch = 8;
  config.engine.npu_prefill = true;
  return config;
}

TEST(CodriverCrossCheckTest, FunctionalTaNeedsMaterializedModel) {
  RuntimeConfig config = FunctionalNpuConfig();
  config.materialize_model = false;
  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_FALSE(ta.ok());
  EXPECT_EQ(ta.status().code(), ErrorCode::kFailedPrecondition);
}

TEST(CodriverCrossCheckTest, MeasuredPerJobStatsMatchTheFigureModel) {
  SocPlatform plat;
  SystemRuntime runtime(&plat, FunctionalNpuConfig());
  ASSERT_TRUE(runtime.Setup().ok());

  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok()) << ta.status().ToString();
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());
  auto out = (*ta)->Generate("cross check the co driver overheads", 6);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  TeeNpuDriver& driver = runtime.tee_npu();
  const uint64_t jobs = driver.secure_jobs_completed();
  ASSERT_GT(jobs, 0u);
  // Fused format: 2 jobs carry 7 matmuls per layer-chunk.
  EXPECT_EQ(driver.total_matmuls_completed() * 2, jobs * 7);

  // The cross-check proper: the per-job switch overhead the functional path
  // actually paid (takeover->launch + completion->release, measured on the
  // virtual clock through the real protocol) must sit in the same regime as
  // the PerJobSwitchCost constant the fig09/fig10 models charge per secure
  // job — the figures' co-driver pricing is thereby validated against the
  // protocol implementation, not assumed.
  const SimDuration measured = driver.total_measured_switch_time() / jobs;
  const SimDuration model = TeeNpuDriver::PerJobSwitchCost();
  EXPECT_GE(measured, model / 2)
      << "measured " << measured << " vs model " << model;
  EXPECT_LE(measured, 2 * model)
      << "measured " << measured << " vs model " << model;

  // And the offload changed no math: the same engine options on the plain
  // unprotected CPU engine produce the same tokens over the same weights
  // (runtime provisions with weight seed 0xC0FFEE).
  EngineOptions cpu_options = runtime.config().engine;
  cpu_options.npu_prefill = false;
  auto reference =
      LlmEngine::CreateUnprotected(runtime.spec(), 0xC0FFEE, cpu_options)
          ->Generate("cross check the co driver overheads", 6);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(out->output_tokens, reference->output_tokens);
}

TEST(CodriverCrossCheckTest, RecoveryStatsStayConsistentUnderFaults) {
  // The fig17 degradation stats must stay mutually consistent when the
  // recovery machinery actually runs: inject one transient fault through
  // the EngineOptions plan (the same plumbing TZLLM_FAULT_PLAN uses), let
  // the retry absorb it, and cross-check the driver's counters against the
  // fused-format invariant and the CPU-reference tokens.
  RuntimeConfig config = FunctionalNpuConfig();
  config.engine.fault_plan = "payload@3";
  config.engine.npu_job_timeout = 50 * kMillisecond;
  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok()) << ta.status().ToString();
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());
  auto out = (*ta)->Generate("cross check the co driver overheads", 6);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  TeeNpuDriver& driver = runtime.tee_npu();
  EXPECT_GE(driver.faults_injected(), 1u);
  EXPECT_GE(driver.jobs_recovered(), 1u);
  EXPECT_EQ(driver.fallback_jobs(), 0u);  // One transient fault, 2 retries.
  EXPECT_EQ(driver.fallback_matmuls(), 0u);
  // Every completed job — original or retry — carries its full fused group.
  // A retry re-completes one member of a QKV(3)+tail(4) pair, skewing the
  // exact 7-matmuls-per-2-jobs shape by at most 1 per recovered job; the
  // stats must stay within exactly that envelope.
  const uint64_t jobs = driver.secure_jobs_completed();
  ASSERT_GT(jobs, 0u);
  const int64_t skew =
      static_cast<int64_t>(driver.total_matmuls_completed() * 2) -
      static_cast<int64_t>(jobs * 7);
  EXPECT_LE(skew < 0 ? -skew : skew,
            static_cast<int64_t>(driver.jobs_recovered()));
  // A recovered job was abandoned once before its successful retry.
  EXPECT_GE(driver.jobs_abandoned() + driver.payload_failures(),
            driver.jobs_recovered());

  // Recovery changed no math: tokens still match the unfaulted CPU engine.
  EngineOptions cpu_options = runtime.config().engine;
  cpu_options.npu_prefill = false;
  cpu_options.fault_plan.clear();
  auto reference =
      LlmEngine::CreateUnprotected(runtime.spec(), 0xC0FFEE, cpu_options)
          ->Generate("cross check the co driver overheads", 6);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(out->output_tokens, reference->output_tokens);
}

TEST(CodriverCrossCheckTest, LoadModelRejectsBadFaultAndDeadlineConfig) {
  // Malformed plan string: LoadModel fails with InvalidArgument instead of
  // silently running unfaulted (the CI sweep must notice a typo'd plan) —
  // with NPU prefill on, and on a CPU-only configuration too.
  RuntimeConfig cpu_only = FunctionalNpuConfig();
  cpu_only.use_npu = false;
  cpu_only.engine.npu_prefill = false;
  for (RuntimeConfig config : {FunctionalNpuConfig(), cpu_only}) {
    SCOPED_TRACE(config.engine.npu_prefill ? "npu" : "cpu");
    config.engine.fault_plan = "bogus@1";
    SocPlatform plat;
    SystemRuntime runtime(&plat, config);
    ASSERT_TRUE(runtime.Setup().ok());
    auto ta = runtime.CreateFunctionalTa();
    ASSERT_TRUE(ta.ok());
    const Status st = (*ta)->LoadModel(runtime.spec().config().name);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  }
  // Non-positive per-job deadline: rejected up front.
  {
    RuntimeConfig config = FunctionalNpuConfig();
    config.engine.npu_job_timeout = 0;
    SocPlatform plat;
    SystemRuntime runtime(&plat, config);
    ASSERT_TRUE(runtime.Setup().ok());
    auto ta = runtime.CreateFunctionalTa();
    ASSERT_TRUE(ta.ok());
    const Status st = (*ta)->LoadModel(runtime.spec().config().name);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace tzllm

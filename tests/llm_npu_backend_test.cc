// ComputeBackend seam: NPU-offloaded prefill through the secure co-driver
// must compute exactly the same function as the CPU path under the fused
// per-layer job format, and the co-driver's TZASC validation must reject
// fused job contexts whose sub-buffers stray outside the TA's protected
// regions, with the real shadow-queue / takeover / world-switch machinery
// running under the simulator clock for every job.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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

constexpr uint64_t kWeightSeed = 4242;

std::vector<TokenId> MakePrompt(const LlmConfig& c, int n) {
  std::vector<TokenId> tokens(n);
  for (int i = 0; i < n; ++i) {
    tokens[i] = 1 + (i * 7) % (c.vocab_size - 2);
  }
  return tokens;
}

// Secure stack + a functional model: REE control plane, TEE data plane, a TA
// with a protected scratch window hosting the NPU job execution contexts.
class NpuBackendTest : public ::testing::Test {
 protected:
  NpuBackendTest() : spec_(ModelSpec::Create(TestSmallModel())) {
    ReeMemoryLayout layout;
    layout.dram_bytes = plat_.config().dram_bytes;
    layout.kernel_bytes = 256 * kMiB;
    layout.cma_bytes = 1 * kGiB;
    layout.cma2_bytes = 256 * kMiB;
    mm_ = std::make_unique<ReeMemoryManager>(layout, &plat_.dram());
    tz_ = std::make_unique<TzDriver>(&plat_, mm_.get());
    ree_npu_ = std::make_unique<ReeNpuDriver>(&plat_);
    ree_npu_->Init();
    tee_ = std::make_unique<TeeOs>(&plat_, tz_.get(), 42);
    EXPECT_TRUE(tee_->Boot().ok());
    tee_npu_ = std::make_unique<TeeNpuDriver>(&plat_, tee_.get());
    tee_npu_->Init();
    ta_ = *tee_->CreateTa("llm");
    EXPECT_TRUE(
        tee_->ExtendAllocated(ta_, SecureRegionId::kScratch, 16 * kMiB).ok());
    EXPECT_TRUE(
        tee_->ExtendProtected(ta_, SecureRegionId::kScratch, 16 * kMiB).ok());
    scratch_ = tee_->RegionBase(SecureRegionId::kScratch);
    weights_ = Tzguf::ReferenceWeights(spec_, kWeightSeed);
  }

  NpuBackendConfig BackendConfig(const EngineOptions& options,
                                 PhysAddr ctx_base) {
    NpuBackendConfig config;
    config.platform = &plat_;
    config.driver = tee_npu_.get();
    config.ta = ta_;
    config.ctx_base = ctx_base;
    config.ctx_bytes = NpuBackend::ContextBytes(spec_, options);
    // The payloads must run the engine's table so the fused layer tail's
    // norm/silu glue matches the CPU path bit-for-bit (llm_ta.cc wires the
    // same way).
    config.kernels = KernelsFor(options);
    return config;
  }

  // Prefill logits through a CPU executor with `options`.
  std::vector<float> CpuPrefill(const EngineOptions& options,
                                const std::vector<TokenId>& prompt) {
    HostWeightSource source(weights_);
    TransformerExecutor exec(&spec_, &source, options);
    KvCache kv(spec_, KernelsFor(options));
    auto logits = exec.Prefill(prompt, &kv);
    EXPECT_TRUE(logits.ok()) << logits.status().ToString();
    return logits.ok() ? *logits : std::vector<float>();
  }

  // Prefill logits through an NPU-offloaded executor; `backend` outlives
  // the call so the caller can inspect its stats.
  Result<std::vector<float>> NpuPrefill(const EngineOptions& options,
                                        const std::vector<TokenId>& prompt,
                                        NpuBackend* backend) {
    HostWeightSource source(weights_);
    TransformerExecutor exec(&spec_, &source, options, backend);
    KvCache kv(spec_, KernelsFor(options));
    return exec.Prefill(prompt, &kv);
  }

  SocPlatform plat_;
  ModelSpec spec_;
  std::unique_ptr<ReeMemoryManager> mm_;
  std::unique_ptr<TzDriver> tz_;
  std::unique_ptr<ReeNpuDriver> ree_npu_;
  std::unique_ptr<TeeOs> tee_;
  std::unique_ptr<TeeNpuDriver> tee_npu_;
  TaId ta_ = -1;
  PhysAddr scratch_ = 0;
  std::vector<Tensor> weights_;
};

TEST_F(NpuBackendTest, NpuPrefillLogitsBitIdenticalToCpu) {
  EngineOptions options;
  options.prefill_batch = 8;
  const auto prompt = MakePrompt(spec_.config(), 20);  // 2.5 chunks.
  const std::vector<float> cpu = CpuPrefill(options, prompt);

  NpuBackend backend(BackendConfig(options, scratch_));
  auto npu = NpuPrefill(options, prompt, &backend);
  ASSERT_TRUE(npu.ok()) << npu.status().ToString();

  // Offloading moved only the matmul groups, and the payloads run the same
  // kernels through the same shared helpers: not one logit may differ.
  ASSERT_EQ(npu->size(), cpu.size());
  for (size_t i = 0; i < cpu.size(); ++i) {
    ASSERT_EQ((*npu)[i], cpu[i]) << "logit " << i;
  }
  EXPECT_EQ(std::max_element(npu->begin(), npu->end()) - npu->begin(),
            std::max_element(cpu.begin(), cpu.end()) - cpu.begin());

  // Fused format: every chunk-layer is 2 jobs (QKV group + layer tail)
  // carrying 7 matmuls between them — not 7 jobs.
  const uint64_t chunks = (prompt.size() + 7) / 8;
  const uint64_t layers = static_cast<uint64_t>(spec_.config().n_layers);
  EXPECT_EQ(backend.jobs_submitted(), chunks * layers * 2);
  EXPECT_EQ(backend.matmuls_submitted(), chunks * layers * 7);
  EXPECT_EQ(tee_npu_->secure_jobs_completed(), backend.jobs_submitted());
  EXPECT_EQ(tee_npu_->total_matmuls_completed(),
            backend.matmuls_submitted());
  EXPECT_EQ(plat_.npu().compute_failures(), 0u);
  // Co-driver overhead stats accumulated real (virtual) time.
  EXPECT_GT(tee_npu_->total_config_time(), 0u);
  EXPECT_GT(tee_npu_->total_job_npu_time(), 0u);
  EXPECT_GT(tee_npu_->total_measured_switch_time(), 0u);
  // The NPU is back in non-secure mode after the last job.
  EXPECT_FALSE(plat_.tzpc().IsSecure(DeviceId::kNpu));
}

TEST_F(NpuBackendTest, NpuPrefillIdenticalToCpuScalarPath) {
  // Pin both engines to the scalar table so every CPU-resident op (attend,
  // norms, softmax) matches bit-for-bit too: the offloaded prefill is then
  // provably identical to the frozen CPU scalar path end to end.
  EngineOptions options;
  options.force_scalar = true;
  options.prefill_batch = 8;
  const auto prompt = MakePrompt(spec_.config(), 16);
  const std::vector<float> scalar_cpu = CpuPrefill(options, prompt);

  NpuBackend backend(BackendConfig(options, scratch_));
  auto npu = NpuPrefill(options, prompt, &backend);
  ASSERT_TRUE(npu.ok()) << npu.status().ToString();
  ASSERT_EQ(npu->size(), scalar_cpu.size());
  for (size_t i = 0; i < scalar_cpu.size(); ++i) {
    ASSERT_EQ((*npu)[i], scalar_cpu[i]) << "logit " << i;
  }
}

TEST_F(NpuBackendTest, DecodeStaysOnCpuAfterNpuPrefill) {
  EngineOptions options;
  options.prefill_batch = 8;
  NpuBackend backend(BackendConfig(options, scratch_));
  HostWeightSource source(weights_);
  TransformerExecutor exec(&spec_, &source, options, &backend);
  KvCache kv(spec_, KernelsFor(options));
  ASSERT_TRUE(exec.Prefill(MakePrompt(spec_.config(), 16), &kv).ok());

  const uint64_t jobs_after_prefill = backend.jobs_submitted();
  EXPECT_GT(jobs_after_prefill, 0u);
  std::vector<float> logits(spec_.config().vocab_size);
  for (TokenId token = 1; token <= 4; ++token) {
    const ForwardRow row{&kv, &token, 1, logits.data()};
    ASSERT_TRUE(exec.Forward(&row, 1, ForwardPhase::kDecode).ok());
  }
  // Decode kept the CPU KernelDispatch path: no new NPU traffic.
  EXPECT_EQ(backend.jobs_submitted(), jobs_after_prefill);
  EXPECT_EQ(tee_npu_->jobs_created(), jobs_after_prefill);
}

TEST_F(NpuBackendTest, JobContextOutsideTzascRejectedAtCreateJob) {
  EngineOptions options;
  options.prefill_batch = 8;
  // Point the execution-context window at arbitrary REE memory: CreateJob's
  // validation against the TA's protected regions must reject every job, so
  // the prefill fails closed instead of DMA-ing through unprotected pages.
  NpuBackend backend(BackendConfig(options, /*ctx_base=*/512 * kMiB));
  auto logits = NpuPrefill(options, MakePrompt(spec_.config(), 16), &backend);
  ASSERT_FALSE(logits.ok());
  EXPECT_EQ(logits.status().code(), ErrorCode::kSecurityViolation);
  EXPECT_GE(tee_npu_->validation_failures(), 1u);
  EXPECT_EQ(tee_npu_->secure_jobs_completed(), 0u);
  // A refusal at submit is never laundered through the recovery path.
  EXPECT_EQ(tee_npu_->fallback_jobs(), 0u);
}

TEST_F(NpuBackendTest, FusedJobSubBufferOutsideTzascRejected) {
  // A fused job carries several sub-buffers; EVERY one must be validated.
  // Build a multi-matmul context whose command stream, I/O page table and
  // first sub-buffers sit legally inside the TA's protected scratch while
  // ONE later sub-buffer strays into REE memory: the co-driver must reject
  // the whole job rather than let a single stray buffer of an
  // otherwise-valid fused context DMA through unprotected pages.
  NpuJobDesc fused;
  fused.cmd_addr = scratch_;
  fused.cmd_size = kPageSize;
  fused.iopt_addr = scratch_ + kPageSize;
  fused.iopt_size = kPageSize;
  fused.buffers = {{scratch_ + 2 * kPageSize, kPageSize},   // in (ok)
                   {scratch_ + 3 * kPageSize, kPageSize},   // out q (ok)
                   {512 * kMiB, kPageSize},                 // out k: REE!
                   {scratch_ + 4 * kPageSize, kPageSize}};  // out v (ok)
  fused.matmuls = {{128, 128, 8}, {64, 128, 8}, {64, 128, 8}};
  auto id = tee_npu_->CreateJob(ta_, fused);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), ErrorCode::kSecurityViolation);
  EXPECT_GE(tee_npu_->validation_failures(), 1u);

  // End to end: an execution context whose first half lies inside the
  // protected region and whose second half strays past its end. The QKV
  // job fits the first half and validates; the layer tail's sub-buffers
  // reach into the second half, so the prefill fails closed partway
  // through — no retry, no CPU fallback.
  EngineOptions options;
  options.prefill_batch = 8;
  NpuBackendConfig config = BackendConfig(options, 0);
  config.ctx_base = scratch_ + 16 * kMiB - config.ctx_bytes / 2;
  NpuBackend backend(config);
  auto logits = NpuPrefill(options, MakePrompt(spec_.config(), 16), &backend);
  ASSERT_FALSE(logits.ok());
  EXPECT_EQ(logits.status().code(), ErrorCode::kSecurityViolation);
  EXPECT_GE(tee_npu_->secure_jobs_completed(), 1u);
  EXPECT_EQ(tee_npu_->fallback_jobs(), 0u);
}

TEST_F(NpuBackendTest, PayloadFailureSurfacesOutOfPrefill) {
  // A job whose functional payload fails mid-prefill must surface a clear
  // Status out of Prefill — not hang the pipeline, not complete with
  // corrupt logits. Recovery is explicitly disabled here (no retries, no
  // CPU fallback) so the raw failure is the observable; the recovery
  // behaviors get their own suite (llm_fault_injection_test.cc).
  EngineOptions options;
  options.prefill_batch = 8;
  NpuBackendConfig config = BackendConfig(options, scratch_);
  config.max_retries = 0;
  config.cpu_fallback = false;
  auto plan = FaultPlan::Parse("payload@5");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  tee_npu_->ArmFaultPlan(*plan);
  NpuBackend backend(config);
  auto logits = NpuPrefill(options, MakePrompt(spec_.config(), 20), &backend);
  ASSERT_FALSE(logits.ok());
  EXPECT_EQ(logits.status().code(), ErrorCode::kInternal);
  EXPECT_EQ(tee_npu_->payload_failures(), 1u);
  EXPECT_EQ(plat_.npu().compute_failures(), 1u);
  EXPECT_EQ(tee_npu_->faults_injected(), 1u);
  // The device was handed back cleanly despite the failure.
  EXPECT_FALSE(plat_.tzpc().IsSecure(DeviceId::kNpu));
}

TEST_F(NpuBackendTest, BackendMatMatGroupMatchesHostKernel) {
  // One MatMatGroup call driven directly: it returns with its job complete
  // and the payload's output equal to the host kernel's bit for bit.
  EngineOptions options;
  options.prefill_batch = 4;
  NpuBackend backend(BackendConfig(options, scratch_));
  const Tensor w = MakeRandomTensor("w", DType::kQ8_0, 8, 32, /*seed=*/7);
  std::vector<float> x(4 * 32, 0.25f), y(4 * 8), y_ref(4 * 8);
  Q8Acts acts;
  acts.QuantizeRows(x.data(), 4, 32);
  const MatMatOp op{w.data.data(), 8, y.data()};
  ASSERT_TRUE(backend.MatMatGroup(&op, 1, acts).ok());
  EXPECT_EQ(backend.jobs_submitted(), 1u);
  EXPECT_EQ(tee_npu_->secure_jobs_completed(), 1u);
  MatMatQ8(w.data.data(), 8, 32, acts, y_ref.data(), /*pool=*/nullptr,
           KernelsFor(options));
  EXPECT_EQ(y, y_ref);
}

TEST_F(NpuBackendTest, ContextBytesCoversEveryChunkJob) {
  // The budget formula must cover the largest fused job of any chunk; a run
  // with the exact budgeted window (placed at the region tail) succeeds.
  EngineOptions options;
  options.prefill_batch = 32;
  const uint64_t ctx_bytes = NpuBackend::ContextBytes(spec_, options);
  ASSERT_LE(ctx_bytes, 16 * kMiB);
  NpuBackend backend(
      BackendConfig(options, scratch_ + 16 * kMiB - ctx_bytes));
  auto logits = NpuPrefill(options, MakePrompt(spec_.config(), 40), &backend);
  EXPECT_TRUE(logits.ok()) << logits.status().ToString();
}

}  // namespace
}  // namespace tzllm

#include "src/core/llm_ta.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/runtime.h"
#include "src/llm/engine.h"

namespace tzllm {
namespace {

constexpr uint64_t kWeightSeed = 31337;
constexpr uint64_t kRootSeed = 77;

// Functional full-stack fixture: provisioned encrypted model on flash,
// booted TEE, attached LLM TA.
class LlmTaTest : public ::testing::Test {
 protected:
  LlmTaTest() : spec_(ModelSpec::Create(TestTinyModel())) {
    ReeMemoryLayout layout;
    layout.dram_bytes = plat_.config().dram_bytes;
    layout.kernel_bytes = 256 * kMiB;
    layout.cma_bytes = 256 * kMiB;
    layout.cma2_bytes = 64 * kMiB;
    mm_ = std::make_unique<ReeMemoryManager>(layout, &plat_.dram());
    tz_ = std::make_unique<TzDriver>(&plat_, mm_.get());
    ree_npu_ = std::make_unique<ReeNpuDriver>(&plat_);
    ree_npu_->Init();
    tee_ = std::make_unique<TeeOs>(&plat_, tz_.get(), kRootSeed);
    EXPECT_TRUE(tee_->Boot().ok());
    tee_npu_ = std::make_unique<TeeNpuDriver>(&plat_, tee_.get());
    tee_npu_->Init();

    auto meta = Tzguf::Provision(&plat_.flash(), tee_->keys(), "tiny", spec_,
                                 kWeightSeed, /*materialize=*/true);
    EXPECT_TRUE(meta.ok());
    auto wrapped = Tzguf::ReadWrappedKey(&plat_.flash(), "tiny");
    EXPECT_TRUE(wrapped.ok());
    tee_->InstallWrappedKey(*wrapped);

    ta_ = std::make_unique<LlmTa>(&plat_, tee_.get(), tz_.get());
    EXPECT_TRUE(ta_->Attach().ok());
    EXPECT_TRUE(tee_->AuthorizeKeyAccess(ta_->ta_id(), "tiny").ok());
  }

  SocPlatform plat_;
  ModelSpec spec_;
  std::unique_ptr<ReeMemoryManager> mm_;
  std::unique_ptr<TzDriver> tz_;
  std::unique_ptr<ReeNpuDriver> ree_npu_;
  std::unique_ptr<TeeOs> tee_;
  std::unique_ptr<TeeNpuDriver> tee_npu_;
  std::unique_ptr<LlmTa> ta_;
};

TEST_F(LlmTaTest, LoadsModelThroughPipeline) {
  ASSERT_TRUE(ta_->LoadModel("tiny").ok());
  EXPECT_TRUE(ta_->restore_result().status.ok());
  EXPECT_GT(ta_->restore_result().makespan, 0u);
  // All parameters protected.
  EXPECT_GE(tee_->RegionStats(SecureRegionId::kParams).protected_bytes,
            spec_.total_param_bytes());
}

TEST_F(LlmTaTest, RuntimeConfigEngineKnobsReachTheExecutor) {
  // RuntimeConfig::engine -> LlmTa -> TransformerExecutor: a TA built with
  // threaded kernels and batched prefill must compute the same function as
  // the default single-threaded TA.
  RuntimeConfig config;
  config.engine.n_threads = 2;
  config.engine.prefill_batch = 8;
  LlmTa threaded(&plat_, tee_.get(), tz_.get(), config.engine);
  ASSERT_TRUE(threaded.Attach().ok());
  ASSERT_TRUE(tee_->AuthorizeKeyAccess(threaded.ta_id(), "tiny").ok());
  ASSERT_TRUE(threaded.LoadModel("tiny").ok());
  auto fast = threaded.Generate("the quick brown fox", 10);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();

  auto base = LlmEngine::CreateUnprotected(spec_, kWeightSeed)
                  ->Generate("the quick brown fox", 10);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(fast->output_tokens, base->output_tokens);
}

TEST_F(LlmTaTest, ProtectedInferenceMatchesUnprotectedReference) {
  // The headline functional property: TZ-LLM computes exactly the same
  // function as unmodified llama.cpp over the same weights.
  ASSERT_TRUE(ta_->LoadModel("tiny").ok());
  auto protected_out = ta_->Generate("the quick brown fox", 10);
  ASSERT_TRUE(protected_out.ok()) << protected_out.status().ToString();

  auto reference = LlmEngine::CreateUnprotected(spec_, kWeightSeed)
                       ->Generate("the quick brown fox", 10);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(protected_out->output_tokens, reference->output_tokens);
  EXPECT_EQ(protected_out->text, reference->text);
}

TEST_F(LlmTaTest, PlaintextNeverVisibleToRee) {
  ASSERT_TRUE(ta_->LoadModel("tiny").ok());
  const PhysAddr base = tee_->RegionBase(SecureRegionId::kParams);
  // Non-secure CPU access to the parameter region faults.
  EXPECT_FALSE(
      plat_.tzasc().CheckCpuAccess(World::kNonSecure, base, 64).ok());
  // Flash holds only ciphertext.
  const std::vector<Tensor> plain =
      Tzguf::ReferenceWeights(spec_, kWeightSeed);
  const TensorSpec& t0 = spec_.tensor(0);
  std::vector<uint8_t> on_flash(t0.data_bytes);
  ASSERT_TRUE(plat_.flash()
                  .PeekBytes("tiny.data", t0.file_offset, t0.data_bytes,
                             on_flash.data())
                  .ok());
  EXPECT_NE(on_flash, plain[0].data);
  // But the DRAM inside the protected region holds the plaintext (decrypted
  // in place) — reachable only by the secure world.
  std::vector<uint8_t> in_dram(t0.data_bytes);
  ASSERT_TRUE(plat_.dram()
                  .Read(base + t0.file_offset, in_dram.data(), t0.data_bytes)
                  .ok());
  EXPECT_EQ(in_dram, plain[0].data);
}

TEST_F(LlmTaTest, TamperedModelDataRejected) {
  ASSERT_TRUE(plat_.flash().CorruptBytes("tiny.data", 1000, 16).ok());
  const Status st = ta_->LoadModel("tiny");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kDataCorruption);
}

TEST_F(LlmTaTest, UnauthorizedTaCannotLoad) {
  LlmTa thief(&plat_, tee_.get(), tz_.get());
  ASSERT_TRUE(thief.Attach().ok());
  // No AuthorizeKeyAccess for this TA.
  const Status st = thief.LoadModel("tiny");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kPermissionDenied);
}

TEST_F(LlmTaTest, UnloadScrubsParameters) {
  ASSERT_TRUE(ta_->LoadModel("tiny").ok());
  const PhysAddr base = tee_->RegionBase(SecureRegionId::kParams);
  const TensorSpec& t0 = spec_.tensor(0);
  ASSERT_TRUE(ta_->Unload().ok());
  // The region is non-secure again and contains only zeros.
  EXPECT_TRUE(
      plat_.tzasc().CheckCpuAccess(World::kNonSecure, base, 64).ok());
  std::vector<uint8_t> out(t0.bytes);
  ASSERT_TRUE(
      plat_.dram().Read(base + t0.file_offset, out.data(), t0.bytes).ok());
  for (uint8_t b : out) {
    ASSERT_EQ(b, 0);
  }
}

TEST_F(LlmTaTest, ReloadAfterUnloadWorks) {
  ASSERT_TRUE(ta_->LoadModel("tiny").ok());
  ASSERT_TRUE(ta_->Unload().ok());
  ASSERT_TRUE(ta_->LoadModel("tiny").ok());
  auto out = ta_->Generate("hello", 4);
  EXPECT_TRUE(out.ok());
}

TEST_F(LlmTaTest, NpuOffloadedPrefillMatchesCpuEndToEnd) {
  // RuntimeConfig wiring: use_npu hands the TA the co-driver, npu_prefill
  // routes the batched-prefill matmuls through it. The offloaded TA must
  // generate exactly the tokens the plain-CPU reference produces.
  RuntimeConfig config;
  config.engine.npu_prefill = true;
  config.engine.prefill_batch = 8;
  LlmTa npu_ta(&plat_, tee_.get(), tz_.get(), config.engine,
               config.use_npu ? tee_npu_.get() : nullptr);
  ASSERT_TRUE(npu_ta.Attach().ok());
  ASSERT_TRUE(tee_->AuthorizeKeyAccess(npu_ta.ta_id(), "tiny").ok());
  ASSERT_TRUE(npu_ta.LoadModel("tiny").ok());
  auto offloaded = npu_ta.Generate("the quick brown fox", 10);
  ASSERT_TRUE(offloaded.ok()) << offloaded.status().ToString();
  EXPECT_GT(tee_npu_->secure_jobs_completed(), 0u);
  EXPECT_EQ(plat_.npu().compute_failures(), 0u);

  auto reference = LlmEngine::CreateUnprotected(spec_, kWeightSeed)
                       ->Generate("the quick brown fox", 10);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(offloaded->output_tokens, reference->output_tokens);
  EXPECT_EQ(offloaded->text, reference->text);
}

TEST_F(LlmTaTest, NpuPrefillWithoutCoDriverFailsClearly) {
  // EngineOptions::npu_prefill on a platform whose runtime wired no NPU
  // (RuntimeConfig::use_npu off -> no co-driver) must fail loudly at load,
  // not fall back silently or crash at first chunk.
  EngineOptions options;
  options.npu_prefill = true;
  LlmTa no_npu(&plat_, tee_.get(), tz_.get(), options, /*npu_driver=*/nullptr);
  ASSERT_TRUE(no_npu.Attach().ok());
  ASSERT_TRUE(tee_->AuthorizeKeyAccess(no_npu.ta_id(), "tiny").ok());
  const Status st = no_npu.LoadModel("tiny");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("no NPU"), std::string::npos);
}

TEST_F(LlmTaTest, AllSchedulingPoliciesProduceIdenticalWeights) {
  // Timing policy must never change functional results.
  ASSERT_TRUE(ta_->LoadModel("tiny", SchedulePolicy::kFifo).ok());
  auto fifo_out = ta_->Generate("abc def", 6);
  ASSERT_TRUE(fifo_out.ok());
  ASSERT_TRUE(ta_->Unload().ok());

  LlmTa ta2(&plat_, tee_.get(), tz_.get());
  ASSERT_TRUE(ta2.Attach().ok());
  ASSERT_TRUE(tee_->AuthorizeKeyAccess(ta2.ta_id(), "tiny").ok());
  ASSERT_TRUE(
      ta2.LoadModel("tiny", SchedulePolicy::kPriorityPreemptive).ok());
  auto pre_out = ta2.Generate("abc def", 6);
  ASSERT_TRUE(pre_out.ok());
  EXPECT_EQ(fifo_out->output_tokens, pre_out->output_tokens);
}

// The default KV pool holds every session's full context in WHOLE pages: a
// max_ctx that is not a multiple of kv_page_positions rounds each slot up
// instead of leaving the pool a page short of one full context (which
// LoadModel rejects). Generation then runs into the partial last page and
// still matches the standalone-cache reference engine token for token.
TEST(LlmTaKvPoolTest, DefaultPoolRoundsEachSlotUpToWholePages) {
  for (const int sessions : {1, 3}) {
    SCOPED_TRACE("max_sessions=" + std::to_string(sessions));
    RuntimeConfig config;
    config.model = TestSmallModel();
    config.model.max_ctx = 100;  // 6.25 pages of the default 16 positions.
    config.system = SystemKind::kTzLlm;
    config.materialize_model = true;
    config.engine.max_sessions = sessions;
    SocPlatform plat;
    SystemRuntime runtime(&plat, config);
    ASSERT_TRUE(runtime.Setup().ok());
    auto ta = runtime.CreateFunctionalTa();
    ASSERT_TRUE(ta.ok());
    const Status loaded = (*ta)->LoadModel(runtime.spec().config().name);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    EXPECT_EQ((*ta)->kv_arena()->pool()->frames(), sessions * 7);

    // A budget past the context window: generation stops at max_ctx (or
    // EOS), with its last positions in the partial seventh page.
    constexpr char kPrompt[] = "whole pages for a partial context";
    auto out = (*ta)->Generate(kPrompt, 128);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    auto reference = LlmEngine::CreateUnprotected(runtime.spec(), 0xC0FFEE)
                         ->Generate(kPrompt, 128);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(out->output_tokens, reference->output_tokens);
  }
}

}  // namespace
}  // namespace tzllm

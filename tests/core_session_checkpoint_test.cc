// Crash-consistent session checkpoint/restore: a generation session (KV
// cache contents, sampler RNG words, position and token budget) can be
// sealed to flash mid-generation, evicted from secure memory, and restored
// — on the same TA or a freshly booted one — resuming with exactly the
// tokens the uninterrupted run would have produced. The blob is sealed by
// the CheckpointService (src/crypto/seal.h, under the model key, bound to
// the checkpoint id), so a tampered checkpoint is detected, not silently
// resumed.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/runtime.h"
#include "src/llm/kv_cache.h"
#include "src/llm/model_spec.h"

namespace tzllm {
namespace {

RuntimeConfig FunctionalConfig(bool use_npu) {
  RuntimeConfig config;
  config.model = TestSmallModel();
  config.system = SystemKind::kTzLlm;
  config.use_npu = use_npu;
  config.materialize_model = true;
  config.engine.prefill_batch = 8;
  config.engine.npu_prefill = use_npu;
  return config;
}

constexpr char kPrompt[] = "checkpoint and resume this generation";
constexpr int kBudget = 10;
constexpr int kStepsBeforeCheckpoint = 3;

// The uninterrupted reference run on a dedicated stack.
GenerationResult ReferenceRun(bool use_npu, const Sampler::Options& sampling) {
  SocPlatform plat;
  SystemRuntime runtime(&plat, FunctionalConfig(use_npu));
  EXPECT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  EXPECT_TRUE(ta.ok());
  EXPECT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());
  auto out = (*ta)->Generate(kPrompt, kBudget, sampling);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : GenerationResult{};
}

// Runs the open session `sid` to completion on the handle surface.
void StepToDone(LlmTa* ta, SessionId sid) {
  while (!ta->session_done(sid)) {
    auto more = ta->StepSession(sid, kBudget);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (*more == 0) {
      break;
    }
  }
}

TEST(SessionCheckpointTest, CheckpointEvictRestoreResumesGreedyIdentically) {
  const GenerationResult reference = ReferenceRun(false, {});
  ASSERT_GT(reference.output_tokens.size(), 0u);

  SocPlatform plat;
  SystemRuntime runtime(&plat, FunctionalConfig(false));
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  auto sid = (*ta)->BeginSession(kPrompt, kBudget);
  ASSERT_TRUE(sid.ok()) << sid.status().ToString();
  auto stepped = (*ta)->StepSession(*sid, kStepsBeforeCheckpoint);
  ASSERT_TRUE(stepped.ok());
  ASSERT_GT(*stepped, 0);

  // Seal + evict: the live session is gone and the KV arena scrubbed.
  ASSERT_TRUE((*ta)->CheckpointSession(*sid).ok());
  EXPECT_FALSE((*ta)->session_active(*sid));
  EXPECT_TRUE((*ta)->HasSessionCheckpoint(*sid));

  // Restore under the same handle and run the remainder to completion.
  auto restored = (*ta)->RestoreSession(*sid);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, *sid);
  EXPECT_TRUE((*ta)->session_active(*sid));
  StepToDone(ta->get(), *sid);
  auto resumed = (*ta)->FinishSession(*sid);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->output_tokens, reference.output_tokens);
  EXPECT_EQ(resumed->text, reference.text);
}

TEST(SessionCheckpointTest, FreshTaRestoresACrashedSession) {
  // Crash consistency: after CheckpointSession the blob on flash is the
  // whole session. Tear the TA down (the "crash"), boot a new one over the
  // same model, restore, and the resumed tokens must equal the
  // uninterrupted run's.
  const GenerationResult reference = ReferenceRun(false, {});
  ASSERT_GT(reference.output_tokens.size(), 0u);

  SocPlatform plat;
  SystemRuntime runtime(&plat, FunctionalConfig(false));
  ASSERT_TRUE(runtime.Setup().ok());
  SessionId crashed_sid = 0;
  {
    auto ta = runtime.CreateFunctionalTa();
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());
    auto sid = (*ta)->BeginSession(kPrompt, kBudget);
    ASSERT_TRUE(sid.ok());
    crashed_sid = *sid;
    ASSERT_TRUE((*ta)->StepSession(crashed_sid, kStepsBeforeCheckpoint).ok());
    ASSERT_TRUE((*ta)->CheckpointSession(crashed_sid).ok());
    // The "crash": release secure memory and drop the TA. Only flash (the
    // sealed checkpoint + the provisioned model) survives — and the handle,
    // which the blob carries.
    ASSERT_TRUE((*ta)->Unload().ok());
  }

  auto ta2 = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta2.ok());
  ASSERT_TRUE((*ta2)->LoadModel(runtime.spec().config().name).ok());
  EXPECT_TRUE((*ta2)->HasSessionCheckpoint(crashed_sid));
  auto restored = (*ta2)->RestoreSession(crashed_sid);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, crashed_sid);
  StepToDone(ta2->get(), crashed_sid);
  auto resumed = (*ta2)->FinishSession(crashed_sid);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->output_tokens, reference.output_tokens);
}

TEST(SessionCheckpointTest, NonGreedySamplerResumesTokenIdentically) {
  // The RNG words ride the checkpoint: a stochastic sampler must draw the
  // exact remaining sequence after restore, not merely a plausible one.
  Sampler::Options sampling;
  sampling.greedy = false;
  sampling.top_k = 8;
  sampling.temperature = 0.9;
  sampling.seed = 12345;
  const GenerationResult reference = ReferenceRun(false, sampling);
  ASSERT_GT(reference.output_tokens.size(), 0u);

  SocPlatform plat;
  SystemRuntime runtime(&plat, FunctionalConfig(false));
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());
  auto sid = (*ta)->BeginSession(kPrompt, kBudget, sampling);
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE((*ta)->StepSession(*sid, kStepsBeforeCheckpoint).ok());
  ASSERT_TRUE((*ta)->CheckpointSession(*sid).ok());
  ASSERT_TRUE((*ta)->RestoreSession(*sid).ok());
  StepToDone(ta->get(), *sid);
  auto resumed = (*ta)->FinishSession(*sid);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->output_tokens, reference.output_tokens);
}

TEST(SessionCheckpointTest, NpuOffloadSessionSurvivesCheckpointRestore) {
  // The checkpointable state is backend-independent: an NPU-offloaded
  // prefill session checkpoints and resumes exactly like the CPU one (the
  // KV bytes are identical by the offload's bit-parity contract).
  const GenerationResult reference = ReferenceRun(true, {});
  ASSERT_GT(reference.output_tokens.size(), 0u);

  SocPlatform plat;
  SystemRuntime runtime(&plat, FunctionalConfig(true));
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());
  auto sid = (*ta)->BeginSession(kPrompt, kBudget);
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE((*ta)->StepSession(*sid, kStepsBeforeCheckpoint).ok());
  ASSERT_TRUE((*ta)->CheckpointSession(*sid).ok());
  ASSERT_TRUE((*ta)->RestoreSession(*sid).ok());
  StepToDone(ta->get(), *sid);
  auto resumed = (*ta)->FinishSession(*sid);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->output_tokens, reference.output_tokens);
}

// The tamper detection is blob-layout-independent: CheckpointService's
// integrity tag fails the unseal before the session blob is parsed.
TEST(SessionCheckpointTest, TamperedCheckpointDetectedOnRestore) {
  SocPlatform plat;
  SystemRuntime runtime(&plat, FunctionalConfig(false));
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());
  auto sid = (*ta)->BeginSession(kPrompt, kBudget);
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE((*ta)->StepSession(*sid, kStepsBeforeCheckpoint).ok());
  ASSERT_TRUE((*ta)->CheckpointSession(*sid).ok());

  // Untrusted flash flips bytes inside the sealed blob: restore must fail
  // with kDataCorruption, never resume a corrupted session.
  const std::string file = runtime.spec().config().name + ".sess." +
                           std::to_string(*sid) + ".ckpt";
  ASSERT_TRUE(plat.flash().CorruptBytes(file, /*offset=*/64, /*len=*/8).ok());
  const auto restore = (*ta)->RestoreSession(*sid);
  ASSERT_FALSE(restore.ok());
  EXPECT_EQ(restore.status().code(), ErrorCode::kDataCorruption);
  EXPECT_FALSE((*ta)->session_active(*sid));
  EXPECT_EQ((*ta)->open_sessions(), 0);
}

TEST(SessionCheckpointTest, SessionApiRejectsMisuse) {
  SocPlatform plat;
  SystemRuntime runtime(&plat, FunctionalConfig(false));
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());

  // Everything needs a loaded model.
  EXPECT_EQ((*ta)->BeginSession(kPrompt, kBudget).status().code(),
            ErrorCode::kFailedPrecondition);
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  // No session yet: a handle that names no open session fails closed for
  // every call — prefilling, stepping, decoding, finishing, abandoning,
  // snapshotting and checkpointing.
  const SessionId stale{99};
  EXPECT_EQ((*ta)->PrefillSessionChunk(stale).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ((*ta)->StepSession(stale, 1).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ((*ta)->DecodeSessions({stale}).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ((*ta)->FinishSession(stale).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ((*ta)->AbandonSession(stale).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ((*ta)->SnapshotSession(stale).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ((*ta)->CheckpointSession(stale).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_FALSE((*ta)->session_active(stale));
  EXPECT_TRUE((*ta)->session_done(stale));
  EXPECT_FALSE((*ta)->HasSessionCheckpoint(stale));
  // Restoring with no checkpoint on flash is NotFound, not a crash.
  EXPECT_EQ((*ta)->RestoreSession(stale).status().code(),
            ErrorCode::kNotFound);

  // With the default max_sessions == 1 a second Begin keeps the legacy
  // "already active" rejection while a session is open.
  auto sid = (*ta)->BeginSession(kPrompt, kBudget);
  ASSERT_TRUE(sid.ok());
  EXPECT_EQ((*ta)->BeginSession(kPrompt, kBudget).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ((*ta)->open_sessions(), 1);
  EXPECT_EQ((*ta)->free_session_slots(), 0);
  ASSERT_TRUE((*ta)->FinishSession(*sid).ok());
  EXPECT_FALSE((*ta)->session_active(*sid));
  EXPECT_EQ((*ta)->open_sessions(), 0);
  // The handle is dead after Finish: stepping it fails closed.
  EXPECT_EQ((*ta)->StepSession(*sid, 1).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST(SessionCheckpointTest, KvSnapshotGuardsGeometryAndTruncation) {
  // KvCache::RestoreState unit coverage: wrong-geometry snapshots are a
  // clean InvalidArgument (different model, or a storage tag other than
  // f16), truncated bodies are kDataCorruption — neither may partially
  // restore.
  const ModelSpec spec = ModelSpec::Create(TestSmallModel());
  KvCache cache(spec);
  std::vector<float> k(spec.config().kv_dim(), 0.5f);
  std::vector<float> v(spec.config().kv_dim(), -0.25f);
  for (int l = 0; l < spec.config().n_layers; ++l) {
    ASSERT_TRUE(cache.AppendBatch(l, 1, k.data(), v.data()).ok());
  }
  cache.FinishPositions(1);

  std::vector<uint8_t> snapshot;
  ASSERT_TRUE(cache.SerializeState(&snapshot).ok());

  // Round-trips into a same-geometry cache.
  KvCache twin(spec);
  ASSERT_TRUE(twin.RestoreState(snapshot.data(), snapshot.size()).ok());
  EXPECT_EQ(twin.seq_len(), cache.seq_len());
  EXPECT_EQ(twin.CurrentBytes(), cache.CurrentBytes());

  // A storage tag other than f16 (0) in the header (byte 12, after layers,
  // kv_dim and max_ctx): geometry mismatch.
  std::vector<uint8_t> bad_tag = snapshot;
  bad_tag[12] = 1;
  const Status mismatch = twin.RestoreState(bad_tag.data(), bad_tag.size());
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.code(), ErrorCode::kInvalidArgument);

  // Truncated body: corruption.
  const Status truncated =
      twin.RestoreState(snapshot.data(), snapshot.size() - 3);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.code(), ErrorCode::kDataCorruption);
}

}  // namespace
}  // namespace tzllm

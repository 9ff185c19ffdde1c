// Parity between the engine schedules: multithreaded kernels and prefill
// chunk sizes must not change a single logit. prefill_batch = 1 is chunks
// of one position through the same Forward pass, and the static row
// partition preserves summation order at any thread count, so these are
// exact-equality checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/llm/engine.h"
#include "src/llm/executor.h"
#include "src/llm/model_spec.h"
#include "src/llm/tzguf.h"

namespace tzllm {
namespace {

constexpr uint64_t kWeightSeed = 2026;

std::vector<TokenId> LongPrompt(const LlmConfig& c, int n) {
  std::vector<TokenId> tokens(n);
  for (int i = 0; i < n; ++i) {
    tokens[i] = 1 + (i * 7) % (c.vocab_size - 2);
  }
  return tokens;
}

Result<std::vector<float>> PrefillLogits(const ModelSpec& spec,
                                         const EngineOptions& options,
                                         const std::vector<TokenId>& tokens) {
  auto engine = LlmEngine::CreateUnprotected(spec, kWeightSeed, options);
  return engine->Prefill(tokens);
}

void ExpectLogitParity(const std::vector<float>& got,
                       const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "logit " << i;
  }
}

class ParityTest : public ::testing::Test {
 protected:
  ParityTest() : spec_(ModelSpec::Create(TestSmallModel())) {}

  ModelSpec spec_;
};

TEST_F(ParityTest, BatchedPrefillMatchesScalarPath) {
  // >= 64-token prompt so multiple batched chunks run.
  const auto tokens = LongPrompt(spec_.config(), 70);
  EngineOptions scalar;  // n_threads = 1, chunks of one position.
  scalar.prefill_batch = 1;
  EngineOptions batched;
  batched.prefill_batch = 32;

  auto a = PrefillLogits(spec_, scalar, tokens);
  auto b = PrefillLogits(spec_, batched, tokens);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectLogitParity(*b, *a);
}

TEST_F(ParityTest, MultithreadedMatchesSingleThread) {
  const auto tokens = LongPrompt(spec_.config(), 70);
  EngineOptions scalar;
  scalar.prefill_batch = 1;
  for (int n_threads : {2, 4}) {
    EngineOptions threaded;
    threaded.n_threads = n_threads;
    threaded.prefill_batch = 32;
    auto a = PrefillLogits(spec_, scalar, tokens);
    auto b = PrefillLogits(spec_, threaded, tokens);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectLogitParity(*b, *a);
  }
}

TEST_F(ParityTest, DecodeAfterBatchedPrefillMatchesScalar) {
  const auto tokens = LongPrompt(spec_.config(), 64);
  EngineOptions scalar;
  scalar.prefill_batch = 1;
  EngineOptions fast;
  fast.n_threads = 4;
  fast.prefill_batch = 16;

  auto scalar_engine = LlmEngine::CreateUnprotected(spec_, kWeightSeed, scalar);
  auto fast_engine = LlmEngine::CreateUnprotected(spec_, kWeightSeed, fast);
  ASSERT_TRUE(scalar_engine->Prefill(tokens).ok());
  ASSERT_TRUE(fast_engine->Prefill(tokens).ok());
  for (TokenId t : {3, 9, 27}) {
    auto a = scalar_engine->DecodeStep(t);
    auto b = fast_engine->DecodeStep(t);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectLogitParity(*b, *a);
  }
}

TEST_F(ParityTest, GenerationIdenticalAcrossSchedules) {
  // End-to-end: greedy generation picks the same tokens whatever the
  // schedule, so threading/batching can be flipped freely in production.
  EngineOptions scalar;
  scalar.prefill_batch = 1;
  EngineOptions fast;
  fast.n_threads = 4;
  fast.prefill_batch = 32;
  auto a = LlmEngine::CreateUnprotected(spec_, kWeightSeed, scalar)
               ->Generate("the quick brown fox jumps over the lazy dog", 12);
  auto b = LlmEngine::CreateUnprotected(spec_, kWeightSeed, fast)
               ->Generate("the quick brown fox jumps over the lazy dog", 12);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->output_tokens, b->output_tokens);
}

TEST_F(ParityTest, QuantizedEngineTracksReferenceKernels) {
  // Anchors every optimized schedule to the seed float-activation path so
  // the quantized engines cannot silently drift together. The quantized
  // path is a different numeric function (activation Q8), so the bound is
  // empirical, not exact: measured max |fast - ref| on this model/prompt is
  // ~0.08 per logit; 0.2 gives headroom without masking a broken scale
  // (a 1% scale error shifts logits by O(1) here). The argmax check pins
  // the functional contract: greedy decoding picks the same token.
  const auto tokens = LongPrompt(spec_.config(), 70);
  EngineOptions reference;
  reference.use_reference_kernels = true;
  auto ref = PrefillLogits(spec_, reference, tokens);
  ASSERT_TRUE(ref.ok());
  const size_t ref_argmax =
      std::max_element(ref->begin(), ref->end()) - ref->begin();

  for (const auto& [n_threads, batch] :
       std::vector<std::pair<int, int>>{{1, 1}, {1, 32}, {4, 32}}) {
    EngineOptions fast;
    fast.n_threads = n_threads;
    fast.prefill_batch = batch;
    auto got = PrefillLogits(spec_, fast, tokens);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), ref->size());
    for (size_t i = 0; i < ref->size(); ++i) {
      ASSERT_NEAR((*got)[i], (*ref)[i], 0.2)
          << "threads=" << n_threads << " batch=" << batch << " logit=" << i;
    }
    const size_t got_argmax =
        std::max_element(got->begin(), got->end()) - got->begin();
    EXPECT_EQ(got_argmax, ref_argmax)
        << "threads=" << n_threads << " batch=" << batch;
  }
}

// --- ISSUE 2 f16-KV parity suite. ---

TEST_F(ParityTest, F16KvAttentionTracksF32KvWithinTolerance) {
  // Same quantized kernels, only the KV storage width differs. f16 rounds
  // K/V entries to ~2^-11 relative precision; the rounding compounds through
  // all layers' attention, and the measured max logit delta on this
  // model/prompt is ~0.05. 0.15 gives ~3x headroom while still catching a
  // broken conversion (a wrong exponent/mantissa shift moves logits by O(1),
  // as the Q8-vs-reference bound in QuantizedEngineTracksReferenceKernels
  // shows for a genuinely different numeric function).
  const auto tokens = LongPrompt(spec_.config(), 70);
  EngineOptions f32kv;
  f32kv.kv_f32 = true;
  EngineOptions f16kv;  // Default storage: f16.
  for (int n_threads : {1, 4}) {
    f32kv.n_threads = n_threads;
    f16kv.n_threads = n_threads;
    auto ref = PrefillLogits(spec_, f32kv, tokens);
    auto got = PrefillLogits(spec_, f16kv, tokens);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), ref->size());
    for (size_t i = 0; i < ref->size(); ++i) {
      ASSERT_NEAR((*got)[i], (*ref)[i], 0.15)
          << "threads=" << n_threads << " logit=" << i;
    }
    const size_t ref_argmax =
        std::max_element(ref->begin(), ref->end()) - ref->begin();
    const size_t got_argmax =
        std::max_element(got->begin(), got->end()) - got->begin();
    EXPECT_EQ(got_argmax, ref_argmax) << "threads=" << n_threads;
  }
}

TEST_F(ParityTest, ThreadedF16AttentionBitIdenticalToSerial) {
  // Exact schedule parity: the fused attention partitions independent
  // (position, head) work items, so n_threads > 1 must reproduce the
  // n_threads = 1 serial loop bit-for-bit — prefill and decode.
  const auto tokens = LongPrompt(spec_.config(), 70);
  EngineOptions serial;  // n_threads = 1: no pool, plain serial head loop.
  auto serial_engine = LlmEngine::CreateUnprotected(spec_, kWeightSeed, serial);
  auto a = serial_engine->Prefill(tokens);
  ASSERT_TRUE(a.ok());
  for (int n_threads : {2, 4}) {
    EngineOptions threaded;
    threaded.n_threads = n_threads;
    auto engine = LlmEngine::CreateUnprotected(spec_, kWeightSeed, threaded);
    auto b = engine->Prefill(tokens);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "threads=" << n_threads;  // Bit-identical.
    // Decode walks the same fused attention with a growing context.
    auto serial_fresh =
        LlmEngine::CreateUnprotected(spec_, kWeightSeed, serial);
    ASSERT_TRUE(serial_fresh->Prefill(tokens).ok());
    for (TokenId t : {3, 9, 27}) {
      auto sa = serial_fresh->DecodeStep(t);
      auto sb = engine->DecodeStep(t);
      ASSERT_TRUE(sa.ok());
      ASSERT_TRUE(sb.ok());
      EXPECT_EQ(*sa, *sb) << "threads=" << n_threads << " token=" << t;
    }
  }
}

TEST_F(ParityTest, F16KvGreedyGenerationMatchesF32Kv) {
  // Functional contract at the generation level: the half-width cache picks
  // the same greedy tokens as the full-width baseline.
  EngineOptions f32kv;
  f32kv.kv_f32 = true;
  EngineOptions f16kv;
  f16kv.n_threads = 4;
  auto a = LlmEngine::CreateUnprotected(spec_, kWeightSeed, f32kv)
               ->Generate("the quick brown fox jumps over the lazy dog", 12);
  auto b = LlmEngine::CreateUnprotected(spec_, kWeightSeed, f16kv)
               ->Generate("the quick brown fox jumps over the lazy dog", 12);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->output_tokens, b->output_tokens);
}

// --- ISSUE 3 SIMD-vs-scalar parity suite. On a host without a SIMD
// backend both engines bind the scalar table and the comparisons hold
// trivially; the CI matrix covers that leg explicitly via TZLLM_SIMD=off.

TEST_F(ParityTest, SimdTracksForcedScalarWithinTolerance) {
  // Same quantized kernels, same f16 KV cache — only the inner-loop table
  // differs. The integer-dot matmuls and the f32->f16 appends are
  // bit-identical across tables (simd/kernels.h contract); the QK/AV dots
  // and RMSNorm re-lane float accumulation, so the bound reuses the
  // established 0.15/logit tolerance of the f16-KV suite (measured drift
  // here is far smaller since the KV contents are identical).
  const auto tokens = LongPrompt(spec_.config(), 70);
  EngineOptions scalar;
  scalar.force_scalar = true;
  EngineOptions simd;  // ActiveKernels(): best table the CPU supports.
  for (int n_threads : {1, 4}) {
    scalar.n_threads = n_threads;
    simd.n_threads = n_threads;
    auto ref = PrefillLogits(spec_, scalar, tokens);
    auto got = PrefillLogits(spec_, simd, tokens);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), ref->size());
    for (size_t i = 0; i < ref->size(); ++i) {
      ASSERT_NEAR((*got)[i], (*ref)[i], 0.15)
          << "threads=" << n_threads << " logit=" << i;
    }
    const size_t ref_argmax =
        std::max_element(ref->begin(), ref->end()) - ref->begin();
    const size_t got_argmax =
        std::max_element(got->begin(), got->end()) - got->begin();
    EXPECT_EQ(got_argmax, ref_argmax) << "threads=" << n_threads;
  }
}

TEST_F(ParityTest, SimdGreedyGenerationMatchesForcedScalar) {
  // Functional contract: greedy decoding picks the same tokens whichever
  // kernel table runs, so TZLLM_SIMD / force_scalar can be flipped freely.
  EngineOptions scalar;
  scalar.force_scalar = true;
  scalar.n_threads = 2;
  EngineOptions simd;
  simd.n_threads = 2;
  auto a = LlmEngine::CreateUnprotected(spec_, kWeightSeed, scalar)
               ->Generate("the quick brown fox jumps over the lazy dog", 12);
  auto b = LlmEngine::CreateUnprotected(spec_, kWeightSeed, simd)
               ->Generate("the quick brown fox jumps over the lazy dog", 12);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->output_tokens, b->output_tokens);
}

TEST_F(ParityTest, KvArenaBytesIdenticalWhicheverTableFillsThem) {
  // The f32->f16 append converter is bit-identical across tables (the AVX2
  // path reproduces the scalar flush-subnormals behavior), so a cache filled
  // by a SIMD engine holds the exact bytes a scalar engine would store —
  // checkpoints and parity baselines don't depend on the host CPU. Includes
  // values below the f16 normal threshold to pin the flush boundary.
  KvCache scalar_kv(spec_, KvStorage::kF16, ScalarKernels());
  KvCache simd_kv(spec_, KvStorage::kF16, ActiveKernels());
  const int kv_dim = scalar_kv.kv_dim();
  std::vector<float> k(kv_dim), v(kv_dim);
  for (int i = 0; i < kv_dim; ++i) {
    k[i] = 0.37f * static_cast<float>(i - kv_dim / 2);
    v[i] = i % 5 == 0 ? 3e-05f : -0.021f * static_cast<float>(i);
  }
  ASSERT_TRUE(scalar_kv.Append(0, k.data(), v.data()).ok());
  ASSERT_TRUE(simd_kv.Append(0, k.data(), v.data()).ok());
  for (int i = 0; i < kv_dim; ++i) {
    EXPECT_EQ(scalar_kv.KeyHalfAt(0, 0)[i], simd_kv.KeyHalfAt(0, 0)[i]) << i;
    EXPECT_EQ(scalar_kv.ValueHalfAt(0, 0)[i], simd_kv.ValueHalfAt(0, 0)[i])
        << i;
  }
}

TEST_F(ParityTest, RopeTableMatchesLegacyApplyRope) {
  const int head_dim = spec_.config().head_dim();
  const int n_heads = spec_.config().n_heads;
  const RopeTable& table = spec_.rope();
  ASSERT_FALSE(table.empty());
  std::vector<float> a(n_heads * head_dim), b(n_heads * head_dim);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = b[i] = 0.1f * static_cast<float>(i % 13) - 0.5f;
  }
  for (int pos : {0, 1, 17, spec_.config().max_ctx - 1}) {
    auto x = a, y = b;
    ApplyRope(x.data(), n_heads, head_dim, pos);
    ApplyRopeTable(y.data(), n_heads, head_dim, pos, table);
    for (size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i], y[i]) << "pos=" << pos << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace tzllm

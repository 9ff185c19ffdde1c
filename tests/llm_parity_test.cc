// Parity between the engine schedules: multithreaded kernels and prefill
// chunk sizes must not change a single logit. prefill_batch = 1 is chunks
// of one position through the same Forward pass, and the static row
// partition preserves summation order at any thread count, so these are
// exact-equality checks. Every schedule and kernel table is also anchored
// to FloatOracle, an independent float implementation of the model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/llm/engine.h"
#include "src/llm/executor.h"
#include "src/llm/model_spec.h"
#include "src/llm/sampler.h"
#include "src/llm/tokenizer.h"
#include "src/llm/tzguf.h"

namespace tzllm {
namespace {

constexpr uint64_t kWeightSeed = 2026;
constexpr char kPrompt[] = "the quick brown fox jumps over the lazy dog";

// The model's math in plain loops, one position at a time: dequantized
// weights, float activations, an f32 KV cache and ApplyRope. It shares no
// code with TransformerExecutor::Attend, the kernel tables or KvCache, so a
// bug in any of them (a wrong GQA head map, attention scale or f16 convert)
// shows up as a gap between the engine and the oracle instead of moving
// both sides of a comparison together.
class FloatOracle {
 public:
  FloatOracle(const ModelSpec& spec, uint64_t weight_seed)
      : spec_(spec), c_(spec.config()), keys_(c_.n_layers),
        values_(c_.n_layers) {
    for (const Tensor& t : Tzguf::ReferenceWeights(spec, weight_seed)) {
      std::vector<float> w(t.NumElements());
      if (t.dtype == DType::kQ8_0) {
        DequantizeQ8(t.data.data(), w.size(), w.data());
      } else if (t.dtype == DType::kF32) {
        std::memcpy(w.data(), t.data.data(), w.size() * sizeof(float));
      } else {
        ADD_FAILURE() << "unexpected dtype of " << t.name;
      }
      weights_.push_back(std::move(w));
    }
  }

  // Runs `token` at the next position and returns its logits.
  std::vector<float> Step(TokenId token) {
    const int d = c_.d_model, kv_dim = c_.kv_dim(), ff = c_.d_ff;
    const int head_dim = c_.head_dim();
    // Query head `head` reads KV head head / group.
    const int group = c_.n_heads / c_.n_kv_heads;
    const float* embd =
        W(TensorRole::kTokEmbedding, -1) + static_cast<size_t>(token) * d;
    std::vector<float> x(embd, embd + d);  // The residual stream.
    std::vector<float> q(d), k(kv_dim), v(kv_dim), attn(d), gate(ff), up(ff);
    for (int l = 0; l < c_.n_layers; ++l) {
      const std::vector<float> h = Norm(x, W(TensorRole::kAttnNorm, l));
      MatVec(W(TensorRole::kWq, l), d, d, h.data(), q.data());
      MatVec(W(TensorRole::kWk, l), kv_dim, d, h.data(), k.data());
      MatVec(W(TensorRole::kWv, l), kv_dim, d, h.data(), v.data());
      ApplyRope(q.data(), c_.n_heads, head_dim, pos_);
      ApplyRope(k.data(), c_.n_kv_heads, head_dim, pos_);
      keys_[l].insert(keys_[l].end(), k.begin(), k.end());
      values_[l].insert(values_[l].end(), v.begin(), v.end());
      std::vector<double> scores(pos_ + 1);
      for (int head = 0; head < c_.n_heads; ++head) {
        const float* qh = q.data() + head * head_dim;
        const size_t kv_off = static_cast<size_t>(head / group) * head_dim;
        double max = -1e300;
        for (int p = 0; p <= pos_; ++p) {
          const float* kp = keys_[l].data() + p * kv_dim + kv_off;
          double dot = 0.0;
          for (int i = 0; i < head_dim; ++i) {
            dot += static_cast<double>(qh[i]) * kp[i];
          }
          scores[p] = dot / std::sqrt(static_cast<double>(head_dim));
          max = std::max(max, scores[p]);
        }
        double sum = 0.0;
        for (int p = 0; p <= pos_; ++p) {
          scores[p] = std::exp(scores[p] - max);
          sum += scores[p];
        }
        for (int i = 0; i < head_dim; ++i) {
          double acc = 0.0;
          for (int p = 0; p <= pos_; ++p) {
            acc += scores[p] * values_[l][p * kv_dim + kv_off + i];
          }
          attn[head * head_dim + i] = static_cast<float>(acc / sum);
        }
      }
      AddMatVec(W(TensorRole::kWo, l), d, d, attn.data(), x.data());
      const std::vector<float> f = Norm(x, W(TensorRole::kFfnNorm, l));
      MatVec(W(TensorRole::kWGate, l), ff, d, f.data(), gate.data());
      MatVec(W(TensorRole::kWUp, l), ff, d, f.data(), up.data());
      for (int i = 0; i < ff; ++i) {
        gate[i] = gate[i] / (1.0f + std::exp(-gate[i])) * up[i];
      }
      AddMatVec(W(TensorRole::kWDown, l), d, ff, gate.data(), x.data());
    }
    ++pos_;
    const std::vector<float> h = Norm(x, W(TensorRole::kOutputNorm, -1));
    std::vector<float> logits(c_.vocab_size);
    MatVec(W(TensorRole::kLmHead, -1), c_.vocab_size, d, h.data(),
           logits.data());
    return logits;
  }

  // The last position's logits after running every prompt token.
  std::vector<float> Prefill(const std::vector<TokenId>& tokens) {
    std::vector<float> logits;
    for (TokenId t : tokens) {
      logits = Step(t);
    }
    return logits;
  }

  // LlmEngine::Generate's loop: the same tokenizer, greedy Sampler and stop
  // rules (EOS, a full context).
  std::vector<TokenId> Generate(const std::string& prompt, int max_new) {
    Sampler sampler;
    TokenId token =
        sampler.Sample(Prefill(Tokenizer(c_.vocab_size).Encode(prompt)));
    std::vector<TokenId> out;
    for (int i = 0; i < max_new; ++i) {
      if (token == Tokenizer::kEos || pos_ >= c_.max_ctx) {
        break;
      }
      out.push_back(token);
      token = sampler.Sample(Step(token));
    }
    return out;
  }

 private:
  const float* W(TensorRole role, int layer) const {
    return weights_[spec_.Find(role, layer)->index].data();
  }

  std::vector<float> Norm(const std::vector<float>& x,
                          const float* gain) const {
    double sq = 0.0;
    for (float e : x) {
      sq += static_cast<double>(e) * e;
    }
    const double inv = 1.0 / std::sqrt(sq / x.size() + 1e-5);
    std::vector<float> out(x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      out[i] = static_cast<float>(x[i] * inv * gain[i]);
    }
    return out;
  }

  // y = W x for a row-major rows x cols matrix.
  static void MatVec(const float* w, int rows, int cols, const float* x,
                     float* y) {
    for (int r = 0; r < rows; ++r) {
      double acc = 0.0;
      for (int c = 0; c < cols; ++c) {
        acc += static_cast<double>(w[static_cast<size_t>(r) * cols + c]) *
               x[c];
      }
      y[r] = static_cast<float>(acc);
    }
  }

  // y += W x: a residual connection.
  static void AddMatVec(const float* w, int rows, int cols, const float* x,
                        float* y) {
    std::vector<float> delta(rows);
    MatVec(w, rows, cols, x, delta.data());
    for (int r = 0; r < rows; ++r) {
      y[r] += delta[r];
    }
  }

  const ModelSpec& spec_;
  const LlmConfig& c_;
  std::vector<std::vector<float>> weights_;  // By tensor index.
  std::vector<std::vector<float>> keys_, values_;  // [layer][pos][kv_dim].
  int pos_ = 0;
};

size_t Argmax(const std::vector<float>& v) {
  return std::max_element(v.begin(), v.end()) - v.begin();
}

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
               ->Generate(kPrompt, 12);
  auto b = LlmEngine::CreateUnprotected(spec_, kWeightSeed, fast)
               ->Generate(kPrompt, 12);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->output_tokens, b->output_tokens);
}

TEST_F(ParityTest, QuantizedEngineTracksFloatOracle) {
  // Anchors every schedule and kernel table to the float oracle, so the
  // quantized engines cannot drift together. The engine quantizes
  // activations to Q8 and stores K/V at f16, so the bound is empirical, not
  // exact: the measured max |engine - oracle| on this model/prompt is
  // ~0.075 per logit under every table. A wrong GQA head map or attention
  // scale moves logits well past 0.15. The argmax check pins the functional
  // contract: greedy decoding picks the same token.
  const auto tokens = LongPrompt(spec_.config(), 70);
  const std::vector<float> want =
      FloatOracle(spec_, kWeightSeed).Prefill(tokens);
  for (const bool force_scalar : {false, true}) {
    for (const auto& [n_threads, batch] :
         std::vector<std::pair<int, int>>{{1, 1}, {1, 32}, {4, 32}}) {
      EngineOptions options;
      options.n_threads = n_threads;
      options.prefill_batch = batch;
      options.force_scalar = force_scalar;
      auto got = PrefillLogits(spec_, options, tokens);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_NEAR((*got)[i], want[i], 0.15)
            << "force_scalar=" << force_scalar << " threads=" << n_threads
            << " batch=" << batch << " logit=" << i;
      }
      EXPECT_EQ(Argmax(*got), Argmax(want))
          << "force_scalar=" << force_scalar << " threads=" << n_threads
          << " batch=" << batch;
    }
  }
}

TEST_F(ParityTest, GreedyGenerationMatchesFloatOracle) {
  // Functional contract at the generation level: the engine picks the
  // oracle's greedy tokens.
  const std::vector<TokenId> want =
      FloatOracle(spec_, kWeightSeed).Generate(kPrompt, 12);
  ASSERT_EQ(want.size(), 12u);
  for (int n_threads : {1, 4}) {
    EngineOptions options;
    options.n_threads = n_threads;
    auto got = LlmEngine::CreateUnprotected(spec_, kWeightSeed, options)
                   ->Generate(kPrompt, 12);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->output_tokens, want) << "threads=" << n_threads;
  }
}

// --- Threaded attention over the f16 cache. ---

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

// --- ISSUE 3 SIMD-vs-scalar parity suite. On a host without a SIMD
// backend both engines bind the scalar table and the comparisons hold
// trivially; the CI matrix covers that leg explicitly via TZLLM_SIMD=off.

TEST_F(ParityTest, SimdTracksForcedScalarWithinTolerance) {
  // Same quantized kernels, same f16 KV cache — only the inner-loop table
  // differs. The integer-dot matmuls and the f32->f16 appends are
  // bit-identical across tables (simd/kernels.h contract); the QK/AV dots
  // and RMSNorm re-lane float accumulation, so the bound reuses the
  // 0.15/logit tolerance of the oracle suite (measured drift here is far
  // smaller since the KV contents are identical).
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
               ->Generate(kPrompt, 12);
  auto b = LlmEngine::CreateUnprotected(spec_, kWeightSeed, simd)
               ->Generate(kPrompt, 12);
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
  KvCache scalar_kv(spec_, ScalarKernels());
  KvCache simd_kv(spec_, ActiveKernels());
  const int kv_dim = scalar_kv.kv_dim();
  std::vector<float> k(kv_dim), v(kv_dim);
  for (int i = 0; i < kv_dim; ++i) {
    k[i] = 0.37f * static_cast<float>(i - kv_dim / 2);
    v[i] = i % 5 == 0 ? 3e-05f : -0.021f * static_cast<float>(i);
  }
  ASSERT_TRUE(scalar_kv.AppendBatch(0, 1, k.data(), v.data()).ok());
  ASSERT_TRUE(simd_kv.AppendBatch(0, 1, k.data(), v.data()).ok());
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

#include "src/llm/executor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/llm/tzguf.h"

namespace tzllm {
namespace {

// One decode step of `token` through a one-row Forward pass.
Result<std::vector<float>> Decode(TransformerExecutor* exec,
                                  const ModelSpec& spec, TokenId token,
                                  KvCache* kv) {
  std::vector<float> logits(spec.config().vocab_size);
  const ForwardRow row{kv, &token, 1, logits.data()};
  TZLLM_RETURN_IF_ERROR(exec->Forward(&row, 1, ForwardPhase::kDecode));
  return logits;
}

std::vector<uint8_t> Snapshot(const KvCache& kv) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(kv.SerializeState(&bytes).ok());
  return bytes;
}

TEST(NumericsTest, RmsNormUnitGain) {
  const int n = 4;
  const float x[n] = {1.0f, -2.0f, 3.0f, -4.0f};
  const float gain[n] = {1.0f, 1.0f, 1.0f, 1.0f};
  float out[n];
  RmsNorm(x, gain, out, n);
  // RMS of out should be ~1.
  double sum = 0.0;
  for (float v : out) {
    sum += v * v;
  }
  EXPECT_NEAR(std::sqrt(sum / n), 1.0, 1e-4);
  // Sign preserved, ratios preserved.
  EXPECT_LT(out[1], 0.0f);
  EXPECT_NEAR(out[2] / out[0], 3.0f, 1e-4);
}

TEST(NumericsTest, SoftmaxSumsToOneAndOrders) {
  float x[3] = {1.0f, 3.0f, 2.0f};
  Softmax(x, 3);
  EXPECT_NEAR(x[0] + x[1] + x[2], 1.0f, 1e-5);
  EXPECT_GT(x[1], x[2]);
  EXPECT_GT(x[2], x[0]);
}

TEST(NumericsTest, SoftmaxNumericallyStable) {
  float x[2] = {1000.0f, 1001.0f};
  Softmax(x, 2);
  EXPECT_FALSE(std::isnan(x[0]));
  EXPECT_NEAR(x[0] + x[1], 1.0f, 1e-5);
}

TEST(NumericsTest, RopePreservesNormAndIsPositionDependent) {
  const int head_dim = 8;
  float a[head_dim], b[head_dim];
  for (int i = 0; i < head_dim; ++i) {
    a[i] = b[i] = static_cast<float>(i + 1);
  }
  ApplyRope(a, 1, head_dim, 3);
  ApplyRope(b, 1, head_dim, 4);
  double norm_a = 0.0, ref = 0.0;
  bool differs = false;
  for (int i = 0; i < head_dim; ++i) {
    norm_a += a[i] * a[i];
    ref += (i + 1.0) * (i + 1.0);
    differs |= std::fabs(a[i] - b[i]) > 1e-5;
  }
  EXPECT_NEAR(norm_a, ref, 1e-2);  // Rotation preserves norm.
  EXPECT_TRUE(differs);            // Position changes the rotation.
  // Position 0 is the identity.
  float c[head_dim];
  for (int i = 0; i < head_dim; ++i) {
    c[i] = static_cast<float>(i + 1);
  }
  ApplyRope(c, 1, head_dim, 0);
  for (int i = 0; i < head_dim; ++i) {
    EXPECT_NEAR(c[i], i + 1.0f, 1e-5);
  }
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : spec_(ModelSpec::Create(TestTinyModel())),
        weights_(Tzguf::ReferenceWeights(spec_, 77)),
        source_(weights_),
        executor_(&spec_, &source_),
        kv_(spec_) {}

  ModelSpec spec_;
  std::vector<Tensor> weights_;
  HostWeightSource source_;
  TransformerExecutor executor_;
  KvCache kv_;
};

TEST_F(ExecutorTest, PrefillProducesFiniteLogits) {
  auto logits = executor_.Prefill({10, 20, 30}, &kv_);
  ASSERT_TRUE(logits.ok());
  ASSERT_EQ(logits->size(),
            static_cast<size_t>(spec_.config().vocab_size));
  for (float v : *logits) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(kv_.seq_len(), 3);
}

TEST_F(ExecutorTest, DeterministicAcrossRuns) {
  auto a = executor_.Prefill({1, 2, 3, 4}, &kv_);
  ASSERT_TRUE(a.ok());
  KvCache kv2(spec_);
  TransformerExecutor exec2(&spec_, &source_);
  auto b = exec2.Prefill({1, 2, 3, 4}, &kv2);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(ExecutorTest, IncrementalDecodeMatchesPrefill) {
  // Logits for token sequence t0..t3 computed via prefill must equal
  // prefill(t0..t2) + decode(t3): the KV-cache correctness property.
  const std::vector<TokenId> tokens = {5, 6, 7, 8};
  auto full = executor_.Prefill(tokens, &kv_);
  ASSERT_TRUE(full.ok());

  KvCache kv2(spec_);
  TransformerExecutor exec2(&spec_, &source_);
  auto partial = exec2.Prefill({5, 6, 7}, &kv2);
  ASSERT_TRUE(partial.ok());
  auto step = Decode(&exec2, spec_, 8, &kv2);
  ASSERT_TRUE(step.ok());
  ASSERT_EQ(step->size(), full->size());
  for (size_t i = 0; i < full->size(); ++i) {
    EXPECT_NEAR((*step)[i], (*full)[i], 1e-4f) << i;
  }
}

TEST_F(ExecutorTest, PromptChangesLogits) {
  auto a = executor_.Prefill({1, 2, 3}, &kv_);
  ASSERT_TRUE(a.ok());
  KvCache kv2(spec_);
  TransformerExecutor exec2(&spec_, &source_);
  auto b = exec2.Prefill({3, 2, 1}, &kv2);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);  // Order matters (positional encoding + causality).
}

TEST_F(ExecutorTest, RejectsBadTokens) {
  EXPECT_FALSE(executor_.Prefill({-1}, &kv_).ok());
  EXPECT_FALSE(executor_.Prefill({100000}, &kv_).ok());
  EXPECT_FALSE(executor_.Prefill({}, &kv_).ok());
}

TEST_F(ExecutorTest, ContextLimitEnforced) {
  std::vector<TokenId> long_prompt(spec_.config().max_ctx + 1, 1);
  EXPECT_FALSE(executor_.Prefill(long_prompt, &kv_).ok());
}

TEST_F(ExecutorTest, DecodePhaseRowMatchesPrefillPhaseRow) {
  // The phase only picks the backend; on the CPU both route to the same
  // kernels, so the one-token row lands the same floats and cache bytes.
  // KV recompute relies on this: it re-prefills decoded positions as
  // prefill rows.
  ASSERT_TRUE(executor_.Prefill({5, 6, 7}, &kv_).ok());
  KvCache kv2(spec_);
  TransformerExecutor exec2(&spec_, &source_);
  ASSERT_TRUE(exec2.Prefill({5, 6, 7}, &kv2).ok());

  auto decoded = Decode(&executor_, spec_, 8, &kv_);
  ASSERT_TRUE(decoded.ok());
  std::vector<float> buf(spec_.config().vocab_size, -1e30f);
  const TokenId token = 8;
  const ForwardRow row{&kv2, &token, 1, buf.data()};
  ASSERT_TRUE(exec2.Forward(&row, 1, ForwardPhase::kPrefill).ok());
  EXPECT_EQ(*decoded, buf);
  EXPECT_EQ(Snapshot(kv_), Snapshot(kv2));
}

TEST_F(ExecutorTest, MalformedBatchesRejectedBeforeAnyAppend) {
  ASSERT_TRUE(executor_.Prefill({5, 6, 7, 8, 9}, &kv_).ok());
  const std::vector<uint8_t> before = Snapshot(kv_);
  KvCache other(spec_);
  std::vector<float> a(spec_.config().vocab_size);
  std::vector<float> b(spec_.config().vocab_size);
  const TokenId tokens[] = {1, 2};
  auto code = [&](const ForwardRow* rows, int n, ForwardPhase phase) {
    return executor_.Forward(rows, n, phase).code();
  };

  EXPECT_EQ(code(nullptr, 0, ForwardPhase::kDecode),
            ErrorCode::kInvalidArgument);
  const ForwardRow one{&kv_, tokens, 1, a.data()};
  EXPECT_EQ(code(&one, 0, ForwardPhase::kDecode), ErrorCode::kInvalidArgument);
  const ForwardRow null_cache[] = {{&kv_, tokens, 1, a.data()},
                                   {nullptr, tokens, 1, b.data()}};
  EXPECT_EQ(code(null_cache, 2, ForwardPhase::kDecode),
            ErrorCode::kInvalidArgument);
  const ForwardRow empty_row[] = {{&kv_, tokens, 0, a.data()}};
  EXPECT_EQ(code(empty_row, 1, ForwardPhase::kPrefill),
            ErrorCode::kInvalidArgument);
  const ForwardRow no_logits[] = {{&kv_, tokens, 1, nullptr}};
  EXPECT_EQ(code(no_logits, 1, ForwardPhase::kDecode),
            ErrorCode::kInvalidArgument);
  // One cache named twice would stack both rows on position 5.
  const ForwardRow repeated[] = {{&kv_, tokens, 1, a.data()},
                                 {&kv_, tokens + 1, 1, b.data()}};
  EXPECT_EQ(code(repeated, 2, ForwardPhase::kDecode),
            ErrorCode::kInvalidArgument);
  // An overflowing second row fails the whole batch, first row included.
  std::vector<TokenId> too_long(spec_.config().max_ctx, 1);
  const ForwardRow overflow[] = {
      {&kv_, tokens, 1, a.data()},
      {&other, too_long.data(), spec_.config().max_ctx + 1, b.data()}};
  EXPECT_EQ(code(overflow, 2, ForwardPhase::kPrefill),
            ErrorCode::kResourceExhausted);

  EXPECT_EQ(kv_.seq_len(), 5);
  EXPECT_EQ(other.seq_len(), 0);
  EXPECT_EQ(Snapshot(kv_), before);
}

// Three caches at different positions take rows of 5, 1 and 3 tokens in ONE
// Forward pass; every row must land exactly what it lands alone.
TEST(ExecutorRaggedTest, RaggedRowsMatchEachRowAlone) {
  const ModelSpec spec = ModelSpec::Create(TestSmallModel());
  HostWeightSource source(Tzguf::ReferenceWeights(spec, 77));
  const std::vector<std::vector<TokenId>> prefixes = {
      {3, 4, 5}, {9, 8, 7, 6, 5, 4, 3}, {}};
  const std::vector<std::vector<TokenId>> rows_tokens = {
      {11, 12, 13, 14, 15}, {21}, {31, 32, 33}};
  const int vocab = spec.config().vocab_size;
  for (int n_threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(n_threads));
    EngineOptions options;
    options.n_threads = n_threads;
    TransformerExecutor batched(&spec, &source, options);
    TransformerExecutor solo(&spec, &source, options);
    std::vector<std::unique_ptr<KvCache>> caches, solo_caches;
    for (const auto& prefix : prefixes) {
      caches.push_back(std::make_unique<KvCache>(spec));
      solo_caches.push_back(std::make_unique<KvCache>(spec));
      if (!prefix.empty()) {
        ASSERT_TRUE(batched.Prefill(prefix, caches.back().get()).ok());
        ASSERT_TRUE(solo.Prefill(prefix, solo_caches.back().get()).ok());
      }
    }
    std::vector<std::vector<float>> logits(3, std::vector<float>(vocab));
    std::vector<ForwardRow> rows;
    for (size_t r = 0; r < 3; ++r) {
      rows.push_back({caches[r].get(), rows_tokens[r].data(),
                      static_cast<int>(rows_tokens[r].size()),
                      logits[r].data()});
    }
    ASSERT_TRUE(batched.Forward(rows.data(), 3, ForwardPhase::kPrefill).ok());

    for (size_t r = 0; r < 3; ++r) {
      std::vector<float> alone(vocab);
      const ForwardRow row{solo_caches[r].get(), rows_tokens[r].data(),
                           static_cast<int>(rows_tokens[r].size()),
                           alone.data()};
      ASSERT_TRUE(solo.Forward(&row, 1, ForwardPhase::kPrefill).ok());
      EXPECT_EQ(std::memcmp(logits[r].data(), alone.data(),
                            sizeof(float) * vocab),
                0)
          << "row " << r;
      EXPECT_EQ(caches[r]->seq_len(),
                static_cast<int>(prefixes[r].size() + rows_tokens[r].size()));
      EXPECT_EQ(Snapshot(*caches[r]), Snapshot(*solo_caches[r]))
          << "row " << r;
    }
  }
}

TEST_F(ExecutorTest, RejectsOddHeadDimGeometry) {
  // head_dim = 60 / 4 = 15: the RoPE pair loops would read head[i + 1] one
  // float past the head. The executor must fail fast with a clear status,
  // on every entry point, instead of computing garbage.
  LlmConfig bad = TestTinyModel();
  bad.d_model = 60;
  bad.n_heads = 4;
  bad.n_kv_heads = 2;
  const ModelSpec bad_spec = ModelSpec::Create(bad);
  const auto weights = Tzguf::ReferenceWeights(bad_spec, 77);
  HostWeightSource source(weights);
  TransformerExecutor exec(&bad_spec, &source);
  KvCache kv(bad_spec);
  auto prefill = exec.Prefill({1, 2}, &kv);
  ASSERT_FALSE(prefill.ok());
  EXPECT_EQ(prefill.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(prefill.status().message().find("head_dim"), std::string::npos);
  std::vector<float> buf(bad.vocab_size);
  const TokenId token = 1;
  const ForwardRow row{&kv, &token, 1, buf.data()};
  EXPECT_EQ(exec.Forward(&row, 1, ForwardPhase::kDecode).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(exec.Forward(&row, 1, ForwardPhase::kPrefill).code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace tzllm

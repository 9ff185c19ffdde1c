#include "src/llm/engine.h"

#include <gtest/gtest.h>

#include <vector>

namespace tzllm {
namespace {

TEST(EngineTest, GeneratesDeterministicGreedyOutput) {
  auto engine = LlmEngine::CreateUnprotected(
      ModelSpec::Create(TestTinyModel()), 123);
  auto a = engine->Generate("hello world", 8);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a->prompt_tokens.empty());

  auto engine2 = LlmEngine::CreateUnprotected(
      ModelSpec::Create(TestTinyModel()), 123);
  auto b = engine2->Generate("hello world", 8);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->output_tokens, b->output_tokens);
  EXPECT_EQ(a->text, b->text);
}

TEST(EngineTest, DifferentSeedsGiveDifferentModels) {
  auto a = LlmEngine::CreateUnprotected(ModelSpec::Create(TestTinyModel()), 1)
               ->Generate("the quick brown fox", 8);
  auto b = LlmEngine::CreateUnprotected(ModelSpec::Create(TestTinyModel()), 2)
               ->Generate("the quick brown fox", 8);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->output_tokens, b->output_tokens);
}

TEST(EngineTest, TopKSamplingIsSeedStable) {
  auto engine = LlmEngine::CreateUnprotected(
      ModelSpec::Create(TestTinyModel()), 5);
  Sampler::Options opts;
  opts.greedy = false;
  opts.top_k = 8;
  opts.seed = 99;
  auto a = engine->Generate("summarize this", 6, opts);
  ASSERT_TRUE(a.ok());
  auto engine2 = LlmEngine::CreateUnprotected(
      ModelSpec::Create(TestTinyModel()), 5);
  auto b = engine2->Generate("summarize this", 6, opts);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->output_tokens, b->output_tokens);
}

TEST(EngineTest, RespectsMaxTokens) {
  auto engine = LlmEngine::CreateUnprotected(
      ModelSpec::Create(TestTinyModel()), 9);
  auto out = engine->Generate("abc", 3);
  ASSERT_TRUE(out.ok());
  EXPECT_LE(out->output_tokens.size(), 3u);
}

TEST(EngineTest, EmptyPromptRejected) {
  auto engine = LlmEngine::CreateUnprotected(
      ModelSpec::Create(TestTinyModel()), 9);
  EXPECT_FALSE(engine->Generate("", 4).ok());
}

TEST(EngineTest, DecodeStepIntoMatchesByValueDecodeStep) {
  const ModelSpec spec = ModelSpec::Create(TestTinyModel());
  auto a = LlmEngine::CreateUnprotected(spec, 31);
  auto b = LlmEngine::CreateUnprotected(spec, 31);
  const auto tokens = a->tokenizer().Encode("hello world");
  ASSERT_TRUE(a->Prefill(tokens).ok());
  ASSERT_TRUE(b->Prefill(tokens).ok());
  std::vector<float> buf(spec.config().vocab_size);
  for (TokenId t : {2, 5, 11}) {
    auto by_value = a->DecodeStep(t);
    ASSERT_TRUE(by_value.ok());
    ASSERT_TRUE(b->DecodeStepInto(t, buf.data()).ok());
    EXPECT_EQ(*by_value, buf);
  }
}

TEST(EngineTest, KvResidentBytesVisibleAndF16Accounted) {
  const ModelSpec spec = ModelSpec::Create(TestTinyModel());
  auto engine = LlmEngine::CreateUnprotected(spec, 7);
  const auto tokens = engine->tokenizer().Encode("count my cache bytes");
  ASSERT_TRUE(engine->Prefill(tokens).ok());
  const uint64_t expected =
      static_cast<uint64_t>(tokens.size()) * spec.config().n_layers *
      spec.config().kv_dim() * kKvVectorsPerPosition *
      kKvAccountedBytesPerElem;
  EXPECT_EQ(engine->kv().CurrentBytes(), expected);
}

TEST(EngineTest, LowLevelApiMatchesGenerate) {
  auto engine = LlmEngine::CreateUnprotected(
      ModelSpec::Create(TestTinyModel()), 21);
  const auto tokens = engine->tokenizer().Encode("hello");
  auto logits = engine->Prefill(tokens);
  ASSERT_TRUE(logits.ok());
  Sampler greedy;
  const TokenId first = greedy.Sample(*logits);

  auto engine2 = LlmEngine::CreateUnprotected(
      ModelSpec::Create(TestTinyModel()), 21);
  auto gen = engine2->Generate("hello", 1);
  ASSERT_TRUE(gen.ok());
  ASSERT_EQ(gen->output_tokens.size(), 1u);
  EXPECT_EQ(gen->output_tokens[0], first);
}

}  // namespace
}  // namespace tzllm

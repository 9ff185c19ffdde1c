#include "src/llm/engine.h"

#include "src/llm/tzguf.h"

namespace tzllm {

LlmEngine::LlmEngine(const ModelSpec& spec,
                     std::unique_ptr<WeightSource> weights,
                     const EngineOptions& options)
    : spec_(spec), weights_(std::move(weights)) {
  tokenizer_ = std::make_unique<Tokenizer>(spec_.config().vocab_size);
  kv_ = std::make_unique<KvCache>(spec_, KernelsFor(options));
  executor_ = std::make_unique<TransformerExecutor>(&spec_, weights_.get(),
                                                    options);
}

std::unique_ptr<LlmEngine> LlmEngine::CreateUnprotected(
    const ModelSpec& spec, uint64_t weight_seed,
    const EngineOptions& options) {
  auto weights = std::make_unique<HostWeightSource>(
      Tzguf::ReferenceWeights(spec, weight_seed));
  return std::make_unique<LlmEngine>(spec, std::move(weights), options);
}

Result<std::vector<float>> LlmEngine::Prefill(
    const std::vector<TokenId>& tokens) {
  return executor_->Prefill(tokens, kv_.get());
}

Result<std::vector<float>> LlmEngine::DecodeStep(TokenId token) {
  std::vector<float> logits(spec_.config().vocab_size);
  TZLLM_RETURN_IF_ERROR(DecodeStepInto(token, logits.data()));
  return logits;
}

Status LlmEngine::DecodeStepInto(TokenId token, float* logits) {
  const ForwardRow row{kv_.get(), &token, 1, logits};
  return executor_->Forward(&row, 1, ForwardPhase::kDecode);
}

Result<GenerationResult> LlmEngine::Generate(const std::string& prompt,
                                             int max_new_tokens,
                                             const Sampler::Options& sampling) {
  GenerationResult result;
  result.prompt_tokens = tokenizer_->Encode(prompt);
  if (result.prompt_tokens.empty()) {
    return Status(ErrorCode::kInvalidArgument, "empty prompt");
  }
  kv_->Reset();
  auto logits = executor_->Prefill(result.prompt_tokens, kv_.get());
  if (!logits.ok()) {
    return logits.status();
  }
  Sampler sampler(sampling);
  TokenId token = sampler.Sample(*logits);
  const int limit = spec_.config().max_ctx;
  // One logits buffer reused across the whole decode loop (DecodeStepInto
  // writes in place; the by-value DecodeStep would allocate per step).
  std::vector<float> next(spec_.config().vocab_size);
  for (int i = 0; i < max_new_tokens; ++i) {
    if (token == Tokenizer::kEos || kv_->seq_len() >= limit) {
      break;
    }
    result.output_tokens.push_back(token);
    TZLLM_RETURN_IF_ERROR(DecodeStepInto(token, next.data()));
    token = sampler.Sample(next);
  }
  result.text = tokenizer_->Decode(result.output_tokens);
  return result;
}

}  // namespace tzllm

#include "src/llm/cost_model.h"

#include <cmath>

#include "src/llm/kv_cache.h"

namespace tzllm {

double CostModel::MatmulFlops(const OpNode& node, int n_tokens) const {
  return 2.0 * static_cast<double>(node.weight_elems) * n_tokens;
}

SimDuration CostModel::LightOpTime(const OpNode& node, int n_tokens) const {
  // CPU-resident ops (norms, rope, softmax, activation) are bandwidth bound;
  // model them as a calibrated fraction of the *layer's* CPU matmul time,
  // split across the layer's light ops, plus the quadratic attention term.
  const LlmConfig& c = spec_->config();
  const uint64_t d = c.d_model;
  const uint64_t ff = c.d_ff;
  const uint64_t kv = c.kv_dim();
  const double layer_matmul_flops =
      2.0 * (2.0 * d * d + 2.0 * d * kv + 3.0 * d * ff) * n_tokens;
  constexpr int kLightOpsPerLayer = 4;  // attn_norm, attention, ffn_norm, act.
  double t = kCpuLightOpFraction * (layer_matmul_flops / kCpuMatmulFlops) /
             kLightOpsPerLayer;
  if (node.kind == OpKind::kAttention) {
    // QK^T and attention-weighted V (fused kernels).
    t += kAttentionQuadCoeff * static_cast<double>(n_tokens) * n_tokens * d /
         kCpuMatmulFlops;
  }
  return FromSeconds(t);
}

SimDuration CostModel::PrefillOpTime(const OpNode& node, int n_tokens,
                                     Backend backend) const {
  if (node.weight_elems == 0 || node.kind == OpKind::kAttnNorm ||
      node.kind == OpKind::kFfnNorm || node.kind == OpKind::kOutputNorm ||
      node.kind == OpKind::kEmbed) {
    return LightOpTime(node, n_tokens);
  }
  const double flops = MatmulFlops(node, n_tokens);
  const double rate =
      backend == Backend::kNpu ? kNpuMatmulFlops : kCpuMatmulFlops;
  return FromSeconds(flops / rate);
}

SimDuration CostModel::DecodeOpTime(const OpNode& node, int pos,
                                    Backend backend) const {
  if (node.weight_bytes == 0) {
    // Attention over the KV cache: stream K and V rows [0, pos) at the f16
    // width the arena actually stores — the same constants
    // KvCache::CurrentBytes accounts with.
    const uint64_t kv_bytes = kKvVectorsPerPosition *
                              spec_->config().kv_dim() *
                              static_cast<uint64_t>(pos) *
                              kKvAccountedBytesPerElem;
    return TransferTime(kv_bytes, kCpuDecodeBw) + 2 * kMicrosecond;
  }
  if (node.kind == OpKind::kAttnNorm || node.kind == OpKind::kFfnNorm ||
      node.kind == OpKind::kOutputNorm || node.kind == OpKind::kEmbed) {
    // Norm weights are tiny; fixed small cost.
    return 2 * kMicrosecond;
  }
  const double bw = backend == Backend::kNpu ? kNpuDecodeBw : kCpuDecodeBw;
  return TransferTime(node.weight_bytes, bw);
}

SimDuration CostModel::PrefillComputeTime(const ComputeGraph& graph,
                                          int n_tokens,
                                          bool npu_available) const {
  SimDuration total = 0;
  for (const OpNode& node : graph.nodes()) {
    const Backend b = npu_available ? node.backend : Backend::kCpu;
    total += PrefillOpTime(node, n_tokens, b);
    if (npu_available && node.backend == Backend::kNpu) {
      total += kNpuJobLaunchOverhead;
    }
  }
  return total;
}

SimDuration CostModel::DecodeComputeTime(const ComputeGraph& graph, int pos,
                                         bool npu_available) const {
  SimDuration total = 0;
  for (const OpNode& node : graph.nodes()) {
    const Backend b = npu_available ? node.backend : Backend::kCpu;
    total += DecodeOpTime(node, pos, b);
    if (npu_available && node.backend == Backend::kNpu) {
      total += kNpuJobLaunchOverhead;
    }
  }
  return total;
}

}  // namespace tzllm

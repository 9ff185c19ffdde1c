#include <cmath>

#include "src/llm/backend/backend.h"
#include "src/llm/simd/kernels.h"

namespace tzllm {

void RunLayerTail(const LayerTailOp& op, const Q8Acts& x_attn,
                  const KernelDispatch* kernels, ThreadPool* pool) {
  const uint64_t d = static_cast<uint64_t>(op.d_model);
  const uint64_t ff = static_cast<uint64_t>(op.d_ff);
  // x_attn is consumed by the Wo matmul before the first requantization
  // below may overwrite an aliased op.acts.
  MatMatQ8(op.wo, d, d, x_attn, op.proj, pool, kernels);
  // Attention-output residual, then the FFN norm over all m positions.
  for (int i = 0; i < op.m * op.d_model; ++i) {
    op.hiddens[i] += op.proj[i];
  }
  for (int i = 0; i < op.m; ++i) {
    kernels->rms_norm(op.hiddens + static_cast<size_t>(i) * d,
                      op.ffn_norm_gain, op.norm + static_cast<size_t>(i) * d,
                      op.d_model);
  }
  op.acts->QuantizeRows(op.norm, op.m, d, kernels);
  MatMatQ8(op.w_gate, ff, d, *op.acts, op.gate, pool, kernels);
  MatMatQ8(op.w_up, ff, d, *op.acts, op.up, pool, kernels);
  for (int i = 0; i < op.m * op.d_ff; ++i) {
    const float g = op.gate[i];
    const float silu = g / (1.0f + std::exp(-g));
    op.gate[i] = silu * op.up[i];
  }
  op.acts->QuantizeRows(op.gate, op.m, ff, kernels);
  MatMatQ8(op.w_down, d, ff, *op.acts, op.down, pool, kernels);
  for (int i = 0; i < op.m * op.d_model; ++i) {
    op.hiddens[i] += op.down[i];
  }
}

Status CpuBackend::MatMatGroup(const MatMatOp* ops, int n, const Q8Acts& x) {
  for (int i = 0; i < n; ++i) {
    MatMatQ8(ops[i].w, ops[i].rows, x.cols, x, ops[i].y, pool_, kernels_);
  }
  return OkStatus();
}

Status CpuBackend::LayerTail(const LayerTailOp& op, const Q8Acts& x_attn) {
  RunLayerTail(op, x_attn, kernels_, pool_);
  return OkStatus();
}

}  // namespace tzllm

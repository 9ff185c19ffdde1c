// Functional transformer forward pass (real math) over Q8_0 weights: RMSNorm
// -> GQA attention with RoPE -> SwiGLU FFN, pre-norm residual architecture —
// the computation llama.cpp performs for the Llama family.
//
// Weights are pulled through the WeightSource interface so the same executor
// runs against host memory (REE baselines) or TZASC-protected secure memory
// (the LLM TA): the integration tests assert bit-identical logits between
// the two, proving the protected path computes the same function.

#ifndef SRC_LLM_EXECUTOR_H_
#define SRC_LLM_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/llm/backend/backend.h"
#include "src/llm/engine_options.h"
#include "src/llm/kv_cache.h"
#include "src/llm/model_spec.h"
#include "src/llm/simd/kernels.h"
#include "src/llm/tokenizer.h"

namespace tzllm {

// Access to tensor bytes by spec index. Implementations: HostWeightSource
// (plain buffers) and the TA's secure-memory source.
class WeightSource {
 public:
  virtual ~WeightSource() = default;
  // Returns a pointer to the tensor's bytes (layout per TensorSpec dtype),
  // or an error if the tensor is unavailable.
  virtual Result<const uint8_t*> TensorData(int tensor_index) = 0;
};

class HostWeightSource : public WeightSource {
 public:
  explicit HostWeightSource(std::vector<Tensor> tensors)
      : tensors_(std::move(tensors)) {}

  Result<const uint8_t*> TensorData(int tensor_index) override {
    if (tensor_index < 0 ||
        tensor_index >= static_cast<int>(tensors_.size())) {
      return Status(ErrorCode::kInvalidArgument, "bad tensor index");
    }
    if (!tensors_[tensor_index].materialized()) {
      return Status(ErrorCode::kFailedPrecondition, "tensor not materialized");
    }
    return tensors_[tensor_index].data.data();
  }

  const std::vector<Tensor>& tensors() const { return tensors_; }

 private:
  std::vector<Tensor> tensors_;
};

// Which backend a Forward pass's matmuls run on (paper §4.3: prefill chunks
// offload to the NPU, decode tokens stay on the CPU).
enum class ForwardPhase : uint8_t {
  kPrefill,  // The prefill backend: the NPU when one is wired.
  kDecode,   // Always the executor's own CPU backend.
};

// One row of a ragged Forward batch: `m` consecutive tokens appended to `kv`
// at its current position. A decode token is a row with m = 1.
struct ForwardRow {
  KvCache* kv = nullptr;
  const TokenId* tokens = nullptr;
  int m = 0;
  // vocab_size floats receiving the logits of the row's last position, or
  // nullptr when the row wants none (a prompt chunk other than the last).
  // Decode rows must provide one.
  float* logits = nullptr;
};

class TransformerExecutor {
 public:
  // `prefill_backend` (optional, non-owning, must outlive the executor)
  // swaps where kPrefill matmuls run: nullptr keeps them on the executor's
  // own CpuBackend; the LLM TA passes an NpuBackend to offload them through
  // the secure co-driver. kDecode matmuls and the LM head always run on the
  // CPU backend, and so does everything when prefill_batch <= 1.
  TransformerExecutor(const ModelSpec* spec, WeightSource* weights,
                      const EngineOptions& options = {},
                      ComputeBackend* prefill_backend = nullptr);

  // Runs the whole prompt into `kv` and returns the last position's logits
  // (vocab_size floats): chunks of prefill_batch positions, each one
  // kPrefill Forward row — the same chunk loop the LLM TA runs.
  Result<std::vector<float>> Prefill(const std::vector<TokenId>& tokens,
                                     KvCache* kv);

  // The one forward pass: `n` rows over distinct caches, each appended at
  // its own cache's position. Per layer every weight streams once over all
  // rows' positions (one QKV group, one fused layer tail), with RoPE, the KV
  // append and attention per row against its own cache; the rows that want
  // logits share one LM-head MatMat on the CPU. Every row is bit-identical
  // to running it alone, and to any chunking of it. All checks (empty batch
  // or row, missing cache or decode logits, a cache named twice, context
  // overflow) fail before anything is pinned or appended; every cache is
  // then pinned, in row order, for the whole pass.
  Status Forward(const ForwardRow* rows, int n, ForwardPhase phase);

  // Wall-clock seconds spent in Attend since construction. Only
  // accumulated when options.collect_stats is set.
  double attend_seconds() const { return attend_seconds_; }

 private:
  // Activation buffers for a pass of up to `capacity` positions,
  // position-major (row i belongs to the pass's i-th position). Every
  // buffer an NPU job references lives here, which is what makes the jobs
  // zero-copy.
  struct Activations {
    int capacity = 0;
    std::vector<float> hiddens, norm, q, k, v, attn, proj, gate, up, down;
    Q8Acts qkv_acts, attn_acts;
  };
  // One row's slice of a pass: `m` positions of `kv` from absolute position
  // `start`.
  struct RowSpan {
    KvCache* kv;
    int start;
    int m;
  };
  // The quantized pass over pinned caches; leaves each row's cache one pass
  // further and its logits (if wanted) filled.
  Status ForwardRows(const ForwardRow* rows, int n, ComputeBackend* backend);
  // The two stages of one layer over act_. Stage one: attention norm and
  // quantization of `m` rows, then the QKV group on `backend`.
  Status RunQkv(int layer, int m, ComputeBackend* backend);
  // Stage two, once QKV landed: per span of spans_ RoPE at its positions,
  // KV append and attention, then the whole post-attention segment (Wo +
  // residual + FFN) as one fused layer tail over every span's rows.
  Status AttendAndRunTail(int layer, ComputeBackend* backend);
  // The shared LM head: one CPU MatMat over the last position of every row
  // that wants logits (rows are laid out in act_ as ForwardRows packs them).
  Status LmHead(const ForwardRow* rows, int n);

  // Fused causal attention for `m` consecutive positions starting at
  // `start`: fills out rows [m][d_model] from q rows [m][d_model] and the KV
  // cache rows [0, start + i] of `layer`. The m x n_heads head loops are one
  // flat work list, statically partitioned over the pool (same deterministic
  // schedule as the matmul kernels): each (position, head) item is
  // independent, so the result is bit-identical at any thread count. Reads
  // the f16 cache through the table's dot_qk_f16 / axpy_f16 slots.
  void Attend(int layer, int start, int m, const float* q, float* out,
              const KvCache& kv);
  Status EmbedToken(TokenId token, float* hidden);

  Result<const uint8_t*> Weights(TensorRole role, int layer);

  void Rope(float* vec, int n_heads, int pos) const;
  // Grows act_ to hold passes of up to `m` positions (never shrinks).
  void Reserve(int m);

  const ModelSpec* spec_;
  WeightSource* weights_;
  EngineOptions options_;
  // The SIMD backend every inner loop routes through: the scalar table when
  // options force it (force_scalar), otherwise the CPUID-resolved
  // process-wide table. One resolution at construction — hot
  // loops pay an indirect call, never a feature branch.
  const KernelDispatch* kernels_;
  // ResolvedThreads(options): 0 = auto, always clamped to the hardware —
  // oversubscription never wins (fig17 measured threads_4 *slower* than
  // threads_1 on a 1-core box), so it is not a configuration the executor
  // will run.
  int n_threads_;
  std::unique_ptr<ThreadPool> pool_;
  // The backend seam. cpu_backend_ always exists and serves kDecode passes
  // and the LM head; kPrefill passes go through prefill_backend_, which is
  // either the same CpuBackend or a caller-provided backend (NPU offload).
  std::unique_ptr<CpuBackend> cpu_backend_;
  ComputeBackend* prefill_backend_ = nullptr;
  // Geometry validation result, computed once; entry points fail fast on it
  // (e.g. odd head_dim would read past the head in the RoPE pair loops).
  Status init_status_;
  double attend_seconds_ = 0.0;

  // Reusable state (grown once; no allocation in the token loop): the
  // pass's activations, its row spans and step pins, the LM-head staging
  // rows, and one max_ctx attention-scores row per pool part.
  Activations act_;
  std::vector<RowSpan> spans_;
  std::vector<KvCachePin> pins_;
  std::vector<float> logits_rows_;
  std::vector<float> scores_;
};

// Numerics helpers shared with tests — always the portable-scalar table
// (simd/kernels_scalar.cc), so test baselines don't move with the host CPU.
void RmsNorm(const float* x, const float* gain, float* out, int n);
void Softmax(float* x, int n);
void ApplyRope(float* vec, int n_heads, int head_dim, int pos);
// Table-driven RoPE; bit-identical to ApplyRope for positions in the table.
void ApplyRopeTable(float* vec, int n_heads, int head_dim, int pos,
                    const RopeTable& table);

}  // namespace tzllm

#endif  // SRC_LLM_EXECUTOR_H_

// Model architecture descriptions: the four on-device LLMs the paper
// evaluates (§7, "Models and deployment") plus tiny functional-test models.
//
// For the paper models the per-tensor byte sizes are scaled so the Q8_0
// total matches the quoted parameter sizes (1.0 / 3.3 / 3.7 / 7.9 GiB —
// Figure 1's "8137 MB" for Llama-3-8B is 7.95 GiB). Scaled models cannot be
// materialized; the tiny models (scale 1.0) carry real weights.

#ifndef SRC_LLM_MODEL_SPEC_H_
#define SRC_LLM_MODEL_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/llm/tensor.h"

namespace tzllm {

struct LlmConfig {
  std::string name;
  int n_layers = 0;
  int d_model = 0;
  int n_heads = 0;
  int n_kv_heads = 0;
  int d_ff = 0;
  int vocab_size = 0;
  int max_ctx = 2048;
  // If non-zero, tensor byte sizes are scaled so the total matches.
  uint64_t target_param_bytes = 0;

  int head_dim() const { return d_model / n_heads; }
  int kv_dim() const { return n_kv_heads * head_dim(); }
};

enum class TensorRole : uint8_t {
  kTokEmbedding,
  kAttnNorm,
  kWq,
  kWk,
  kWv,
  kWo,
  kFfnNorm,
  kWGate,
  kWUp,
  kWDown,
  kOutputNorm,
  kLmHead,
};

// Precomputed RoPE rotation table: head_dim floats per position, laid out as
// interleaved (cos, sin) pairs for each rotation pair index. Built once per
// ModelSpec so the hot loop never calls std::pow/cos/sin per element.
class RopeTable {
 public:
  RopeTable() = default;
  RopeTable(int head_dim, int max_ctx);

  bool empty() const { return data_.empty(); }
  int head_dim() const { return head_dim_; }
  int max_ctx() const { return max_ctx_; }
  // head_dim floats: cos/sin of pos * freq_j for rotation pair j.
  const float* Row(int pos) const {
    return data_.data() + static_cast<size_t>(pos) * head_dim_;
  }

 private:
  int head_dim_ = 0;
  int max_ctx_ = 0;
  std::vector<float> data_;
};

struct TensorSpec {
  int index = 0;
  std::string name;
  TensorRole role = TensorRole::kTokEmbedding;
  int layer = -1;  // -1 for global tensors.
  uint64_t rows = 0;
  uint64_t cols = 0;
  DType dtype = DType::kQ8_0;
  // Payload size (natural storage size x model scale).
  uint64_t data_bytes = 0;
  // Storage extent in the data file / parameter region: data_bytes rounded
  // up to a page. Page alignment is load-bearing: TZASC protection is page-
  // granular, and extend_protected must never cover bytes a later flash DMA
  // still has to write (§4.2).
  uint64_t bytes = 0;
  uint64_t file_offset = 0;
};

class ModelSpec {
 public:
  static ModelSpec Create(const LlmConfig& config);

  const LlmConfig& config() const { return config_; }
  const std::vector<TensorSpec>& tensors() const { return tensors_; }
  const TensorSpec& tensor(int index) const { return tensors_.at(index); }

  uint64_t total_param_bytes() const { return total_param_bytes_; }
  double size_scale() const { return size_scale_; }
  bool materializable() const { return size_scale_ == 1.0; }

  // Finds the tensor for (role, layer); layer = -1 for globals.
  const TensorSpec* Find(TensorRole role, int layer) const;

  // Head-geometry checks the functional engine depends on: positive
  // dimensions, d_model divisible into heads, GQA head grouping, and — the
  // sharp edge — an even head_dim (RoPE rotates (i, i+1) element pairs; an
  // odd head_dim would read one float past every head). The executor fails
  // fast on this instead of corrupting activations.
  Status ValidateGeometry() const;

  // Rotation table covering positions [0, max_ctx). Empty for paper-scale
  // (non-materializable) specs — they never run the functional engine — and
  // for configs without a valid head geometry; the executor falls back to
  // per-call ApplyRope when empty.
  const RopeTable& rope() const { return rope_; }

  // KV-cache bytes for a context of `n_tokens` (f16 K and V per layer, the
  // width the KV page pool stores).
  uint64_t KvCacheBytes(int n_tokens) const;
  // Activation workspace bytes (fixed-size buffers, §4.2).
  uint64_t ActivationBytes() const;

 private:
  LlmConfig config_;
  std::vector<TensorSpec> tensors_;
  RopeTable rope_;
  uint64_t total_param_bytes_ = 0;
  double size_scale_ = 1.0;
};

// --- Paper model presets. ---
LlmConfig TinyLlama1_1B();  // 1.0 GiB at Q8_0.
LlmConfig Qwen2_5_3B();     // 3.3 GiB.
LlmConfig Phi3_3_8B();      // 3.7 GiB.
LlmConfig Llama3_8B();      // 7.9 GiB.
// All four, in the paper's order.
std::vector<LlmConfig> PaperModels();

// --- Functional-test presets (materializable). ---
LlmConfig TestTinyModel();   // 2 layers, d=64: fast real inference.
LlmConfig TestSmallModel();  // 4 layers, d=128: heavier integration tests.

}  // namespace tzllm

#endif  // SRC_LLM_MODEL_SPEC_H_

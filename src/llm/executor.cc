#include "src/llm/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

namespace tzllm {

namespace {

// Below this many multiply-accumulates the attention fork/join costs more
// than the heads themselves (first decode positions, tiny test models); such
// calls run inline on the caller. Same rationale and magnitude as the matmul
// kernels' threshold in tensor.cc.
constexpr uint64_t kAttnParallelMinWork = 48 * 1024;

}  // namespace

void RmsNorm(const float* x, const float* gain, float* out, int n) {
  ScalarKernels()->rms_norm(x, gain, out, n);
}

void Softmax(float* x, int n) { ScalarKernels()->softmax(x, n); }

void ApplyRope(float* vec, int n_heads, int head_dim, int pos) {
  for (int h = 0; h < n_heads; ++h) {
    float* head = vec + h * head_dim;
    for (int i = 0; i < head_dim; i += 2) {
      const float freq =
          std::pow(10000.0f, -static_cast<float>(i) / head_dim);
      const float angle = pos * freq;
      const float c = std::cos(angle);
      const float s = std::sin(angle);
      const float x0 = head[i];
      const float x1 = head[i + 1];
      head[i] = x0 * c - x1 * s;
      head[i + 1] = x0 * s + x1 * c;
    }
  }
}

void ApplyRopeTable(float* vec, int n_heads, int head_dim, int pos,
                    const RopeTable& table) {
  const float* row = table.Row(pos);
  for (int h = 0; h < n_heads; ++h) {
    float* head = vec + h * head_dim;
    for (int i = 0; i < head_dim; i += 2) {
      const float c = row[i];
      const float s = row[i + 1];
      const float x0 = head[i];
      const float x1 = head[i + 1];
      head[i] = x0 * c - x1 * s;
      head[i + 1] = x0 * s + x1 * c;
    }
  }
}

TransformerExecutor::TransformerExecutor(const ModelSpec* spec,
                                         WeightSource* weights,
                                         const EngineOptions& options,
                                         ComputeBackend* prefill_backend)
    : spec_(spec), weights_(weights), options_(options),
      kernels_(KernelsFor(options)),
      n_threads_(ResolvedThreads(options)),
      init_status_(spec->ValidateGeometry()) {
  if (n_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(n_threads_);
  }
  cpu_backend_ = std::make_unique<CpuBackend>(pool_.get(), kernels_);
  // prefill_batch <= 1 keeps prefill on the CPU (npu_prefill_active()).
  const bool offload =
      prefill_backend != nullptr && options_.prefill_batch > 1;
  prefill_backend_ = offload ? prefill_backend : cpu_backend_.get();
  // One attention-scores row per pool part (each (position, head) work item
  // fully rewrites its part's row before reading it).
  scores_.resize(static_cast<size_t>(std::max(1, n_threads_)) *
                 spec_->config().max_ctx);
}

Result<const uint8_t*> TransformerExecutor::Weights(TensorRole role,
                                                    int layer) {
  const TensorSpec* t = spec_->Find(role, layer);
  if (t == nullptr) {
    return Status(ErrorCode::kNotFound, "tensor spec missing");
  }
  return weights_->TensorData(t->index);
}

void TransformerExecutor::Rope(float* vec, int n_heads, int pos) const {
  const int head_dim = spec_->config().head_dim();
  const RopeTable& table = spec_->rope();
  if (table.empty() || pos >= table.max_ctx()) {
    ApplyRope(vec, n_heads, head_dim, pos);
  } else {
    ApplyRopeTable(vec, n_heads, head_dim, pos, table);
  }
}

void TransformerExecutor::Reserve(int m) {
  if (m <= act_.capacity) {
    return;
  }
  const LlmConfig& c = spec_->config();
  const size_t rows = static_cast<size_t>(m);
  const size_t d = c.d_model, kv = c.kv_dim(), ff = c.d_ff;
  act_.hiddens.resize(rows * d);
  act_.norm.resize(rows * d);
  act_.q.resize(rows * d);
  act_.k.resize(rows * kv);
  act_.v.resize(rows * kv);
  act_.attn.resize(rows * d);
  act_.proj.resize(rows * d);
  act_.gate.resize(rows * ff);
  act_.up.resize(rows * ff);
  act_.down.resize(rows * d);
  act_.capacity = m;
}

Status TransformerExecutor::EmbedToken(TokenId token, float* hidden) {
  const LlmConfig& c = spec_->config();
  if (token < 0 || token >= c.vocab_size) {
    return InvalidArgument("token out of vocabulary");
  }
  auto embd = Weights(TensorRole::kTokEmbedding, -1);
  if (!embd.ok()) {
    return embd.status();
  }
  // Row `token` of the Q8_0 embedding matrix.
  const uint64_t row_blocks = c.d_model / kQ8BlockElems;
  const uint8_t* row = *embd + static_cast<uint64_t>(token) * row_blocks *
                                   kQ8BlockBytes;
  DequantizeQ8(row, c.d_model, hidden);
  return OkStatus();
}

void TransformerExecutor::Attend(int layer, int start, int m, const float* q,
                                 float* out, const KvCache& kv) {
  const LlmConfig& c = spec_->config();
  const int d = c.d_model;
  const int head_dim = c.head_dim();
  const int n_heads = c.n_heads;
  const int kv_dim = c.kv_dim();
  const int group = n_heads / c.n_kv_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));

  // One flat work list of m x n_heads independent (position, head) items,
  // split into one contiguous range per pool part (the same static
  // partition as the matmul kernels, so the schedule — and the floats — is
  // identical at every thread count). Each item fully writes scores[0, pos]
  // before reading it, so one private max_ctx scratch row per part is
  // enough; the items themselves never share state.
  const uint64_t items = static_cast<uint64_t>(m) * n_heads;
  auto run_items = [&](uint64_t w0, uint64_t w1, float* scores) {
    for (uint64_t w = w0; w < w1; ++w) {
      const int i = static_cast<int>(w / n_heads);
      const int h = static_cast<int>(w % n_heads);
      const int pos = start + i;
      const int kv_head = h / group;
      const float* qh = q + static_cast<size_t>(i) * d + h * head_dim;
      const size_t head_off = static_cast<size_t>(kv_head) * head_dim;
      // Cache rows are contiguous in runs of RunLen(p) positions per plane
      // (one page); the walk hops bases between runs but visits positions —
      // and accumulates floats — in position order, so the page size never
      // moves a float.
      // The caller holds a step pin, so every page base stays valid across
      // this parallel region.
      for (int p = 0; p <= pos;) {
        const int run = std::min(kv.RunLen(p), pos + 1 - p);
        const uint16_t* kp = kv.KeyHalfAt(layer, p) + head_off;
        for (int r = 0; r < run; ++r, kp += kv_dim) {
          scores[p + r] = kernels_->dot_qk_f16(qh, kp, head_dim) * scale;
        }
        p += run;
      }
      kernels_->softmax(scores, pos + 1);
      float* oh = out + static_cast<size_t>(i) * d + h * head_dim;
      std::fill(oh, oh + head_dim, 0.0f);
      for (int p = 0; p <= pos;) {
        const int run = std::min(kv.RunLen(p), pos + 1 - p);
        const uint16_t* vp = kv.ValueHalfAt(layer, p) + head_off;
        for (int r = 0; r < run; ++r, vp += kv_dim) {
          kernels_->axpy_f16(scores[p + r], vp, oh, head_dim);
        }
        p += run;
      }
    }
  };

  std::chrono::steady_clock::time_point t0;
  if (options_.collect_stats) {
    t0 = std::chrono::steady_clock::now();
  }
  // ~2 MACs per cached element per head; below the threshold the heads run
  // inline on the caller.
  const uint64_t work = items * static_cast<uint64_t>(start + m) * head_dim * 2;
  if (pool_ != nullptr && items > 1 && work >= kAttnParallelMinWork) {
    // Partition over part indices (chunk == 1 per part), not raw items, so
    // each part knows its own scratch row; the item split per part mirrors
    // the pool's contiguous static partition.
    const uint64_t n_parts = static_cast<uint64_t>(pool_->n_threads());
    pool_->ParallelFor(0, n_parts, [&](uint64_t p0, uint64_t p1) {
      for (uint64_t part = p0; part < p1; ++part) {
        run_items(part * items / n_parts, (part + 1) * items / n_parts,
                  scores_.data() + part * c.max_ctx);
      }
    });
  } else {
    run_items(0, items, scores_.data());
  }
  if (options_.collect_stats) {
    attend_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
}

Status TransformerExecutor::Forward(const ForwardRow* rows, int n,
                                    ForwardPhase phase) {
  TZLLM_RETURN_IF_ERROR(init_status_);
  if (rows == nullptr || n <= 0) {
    return InvalidArgument("empty forward batch");
  }
  for (int r = 0; r < n; ++r) {
    const ForwardRow& row = rows[r];
    if (row.kv == nullptr) {
      return InvalidArgument("forward row missing its KV cache");
    }
    if (row.tokens == nullptr || row.m <= 0) {
      return InvalidArgument("empty forward row");
    }
    if (phase == ForwardPhase::kDecode && row.logits == nullptr) {
      return InvalidArgument("decode row missing its logits buffer");
    }
    // seq_len() only advances when the pass finishes, so two rows over one
    // cache would stack their appends on the same positions.
    for (int j = 0; j < r; ++j) {
      if (rows[j].kv == row.kv) {
        return InvalidArgument("forward batch names one KV cache twice");
      }
    }
    if (row.kv->seq_len() + row.m > spec_->config().max_ctx) {
      return ResourceExhausted("KV cache full (context length exceeded)");
    }
  }
  // Pin every cache for the whole pass, in row order: the layer loop
  // interleaves the rows' appends, and an unpinned neighbor's page could
  // otherwise be evicted between one row's append and its attend.
  for (int r = 0; r < n; ++r) {
    auto pin = rows[r].kv->PinForStep();
    if (!pin.ok()) {
      pins_.clear();
      return pin.status();
    }
    pins_.push_back(std::move(*pin));
  }
  const Status st = ForwardRows(
      rows, n,
      phase == ForwardPhase::kPrefill ? prefill_backend_ : cpu_backend_.get());
  pins_.clear();
  return st;
}

Status TransformerExecutor::ForwardRows(const ForwardRow* rows, int n,
                                        ComputeBackend* backend) {
  const LlmConfig& c = spec_->config();
  const size_t d = c.d_model;
  spans_.clear();
  int total = 0;
  for (int r = 0; r < n; ++r) {
    spans_.push_back({rows[r].kv, rows[r].kv->seq_len(), rows[r].m});
    total += rows[r].m;
  }
  Reserve(total);
  float* hidden = act_.hiddens.data();
  for (int r = 0; r < n; ++r) {
    for (int i = 0; i < rows[r].m; ++i, hidden += d) {
      TZLLM_RETURN_IF_ERROR(EmbedToken(rows[r].tokens[i], hidden));
    }
  }
  for (int l = 0; l < c.n_layers; ++l) {
    TZLLM_RETURN_IF_ERROR(RunQkv(l, total, backend));
    TZLLM_RETURN_IF_ERROR(AttendAndRunTail(l, backend));
  }
  for (int r = 0; r < n; ++r) {
    rows[r].kv->FinishPositions(rows[r].m);
  }
  return LmHead(rows, n);
}

Status TransformerExecutor::RunQkv(int l, int m, ComputeBackend* backend) {
  const LlmConfig& c = spec_->config();
  const size_t d = c.d_model;
  TZLLM_ASSIGN_OR_RETURN(w_norm, Weights(TensorRole::kAttnNorm, l));
  for (int i = 0; i < m; ++i) {
    kernels_->rms_norm(act_.hiddens.data() + i * d,
                       reinterpret_cast<const float*>(w_norm),
                       act_.norm.data() + i * d, c.d_model);
  }
  act_.qkv_acts.QuantizeRows(act_.norm.data(), m, d, kernels_);
  TZLLM_ASSIGN_OR_RETURN(wq, Weights(TensorRole::kWq, l));
  TZLLM_ASSIGN_OR_RETURN(wk, Weights(TensorRole::kWk, l));
  TZLLM_ASSIGN_OR_RETURN(wv, Weights(TensorRole::kWv, l));
  const MatMatOp qkv[] = {
      {wq, static_cast<uint64_t>(d), act_.q.data()},
      {wk, static_cast<uint64_t>(c.kv_dim()), act_.k.data()},
      {wv, static_cast<uint64_t>(c.kv_dim()), act_.v.data()}};
  return backend->MatMatGroup(qkv, 3, act_.qkv_acts);
}

Status TransformerExecutor::AttendAndRunTail(int l, ComputeBackend* backend) {
  const LlmConfig& c = spec_->config();
  const size_t d = c.d_model, kv_dim = c.kv_dim();
  size_t off = 0;  // First activation row of the span.
  for (const RowSpan& s : spans_) {
    float* q = act_.q.data() + off * d;
    float* k = act_.k.data() + off * kv_dim;
    for (int i = 0; i < s.m; ++i) {
      Rope(q + i * d, c.n_heads, s.start + i);
      Rope(k + i * kv_dim, c.n_kv_heads, s.start + i);
    }
    TZLLM_RETURN_IF_ERROR(
        s.kv->AppendBatch(l, s.m, k, act_.v.data() + off * kv_dim));
    // Every (position, head) pair of the span is independent once its K/V
    // rows are in the cache; causality is the p <= pos bound inside Attend.
    Attend(l, s.start, s.m, q, act_.attn.data() + off * d, *s.kv);
    off += s.m;
  }
  act_.attn_acts.QuantizeRows(act_.attn.data(), off, d, kernels_);
  TZLLM_ASSIGN_OR_RETURN(wo, Weights(TensorRole::kWo, l));
  TZLLM_ASSIGN_OR_RETURN(w_ffn_norm, Weights(TensorRole::kFfnNorm, l));
  TZLLM_ASSIGN_OR_RETURN(w_gate, Weights(TensorRole::kWGate, l));
  TZLLM_ASSIGN_OR_RETURN(w_up, Weights(TensorRole::kWUp, l));
  TZLLM_ASSIGN_OR_RETURN(w_down, Weights(TensorRole::kWDown, l));
  LayerTailOp tail;
  tail.m = static_cast<int>(off);
  tail.d_model = c.d_model;
  tail.d_ff = c.d_ff;
  tail.wo = wo;
  tail.ffn_norm_gain = reinterpret_cast<const float*>(w_ffn_norm);
  tail.w_gate = w_gate;
  tail.w_up = w_up;
  tail.w_down = w_down;
  tail.hiddens = act_.hiddens.data();
  tail.proj = act_.proj.data();
  tail.norm = act_.norm.data();
  tail.gate = act_.gate.data();
  tail.up = act_.up.data();
  tail.down = act_.down.data();
  // The requantization scratch aliases the attention activations by
  // contract: the Wo matmul consumes them first.
  tail.acts = &act_.attn_acts;
  return backend->LayerTail(tail, act_.attn_acts);
}

Status TransformerExecutor::LmHead(const ForwardRow* rows, int n) {
  const LlmConfig& c = spec_->config();
  const size_t d = c.d_model, vocab = c.vocab_size;
  // Norm each wanting row's last position, quantize them together and
  // stream the vocabulary weights once for all of them. Each row norms,
  // quantizes and dots independently, so sharing the pass moves no float.
  TZLLM_ASSIGN_OR_RETURN(w_norm, Weights(TensorRole::kOutputNorm, -1));
  size_t last = 0, wanted = 0;
  for (int r = 0; r < n; ++r) {
    last += rows[r].m;
    if (rows[r].logits != nullptr) {
      kernels_->rms_norm(act_.hiddens.data() + (last - 1) * d,
                         reinterpret_cast<const float*>(w_norm),
                         act_.norm.data() + wanted++ * d, c.d_model);
    }
  }
  if (wanted == 0) {
    return OkStatus();
  }
  act_.qkv_acts.QuantizeRows(act_.norm.data(), wanted, d, kernels_);
  TZLLM_ASSIGN_OR_RETURN(w_head, Weights(TensorRole::kLmHead, -1));
  logits_rows_.resize(wanted * vocab);
  const MatMatOp head[] = {{w_head, vocab, logits_rows_.data()}};
  TZLLM_RETURN_IF_ERROR(cpu_backend_->MatMatGroup(head, 1, act_.qkv_acts));
  const float* out = logits_rows_.data();
  for (int r = 0; r < n; ++r) {
    if (rows[r].logits != nullptr) {
      std::memcpy(rows[r].logits, out, sizeof(float) * vocab);
      out += vocab;
    }
  }
  return OkStatus();
}

Result<std::vector<float>> TransformerExecutor::Prefill(
    const std::vector<TokenId>& tokens, KvCache* kv) {
  TZLLM_RETURN_IF_ERROR(init_status_);
  if (tokens.empty() || kv == nullptr) {
    return InvalidArgument("empty prompt or missing KV cache");
  }
  const int total = static_cast<int>(tokens.size());
  if (kv->seq_len() + total > spec_->config().max_ctx) {
    return ResourceExhausted("KV cache full (context length exceeded)");
  }
  std::vector<float> logits(spec_->config().vocab_size);
  const int chunk = std::max(1, options_.prefill_batch);
  for (int off = 0; off < total; off += chunk) {
    const int m = std::min(chunk, total - off);
    const ForwardRow row{kv, tokens.data() + off, m,
                         off + m == total ? logits.data() : nullptr};
    TZLLM_RETURN_IF_ERROR(Forward(&row, 1, ForwardPhase::kPrefill));
  }
  return logits;
}

}  // namespace tzllm

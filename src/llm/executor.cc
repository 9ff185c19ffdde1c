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
  cpu_backend_ = std::make_unique<CpuBackend>(options_, pool_.get(), kernels_);
  prefill_backend_ =
      prefill_backend != nullptr ? prefill_backend : cpu_backend_.get();
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
  if (options_.use_reference_kernels || table.empty() ||
      pos >= table.max_ctx()) {
    ApplyRope(vec, n_heads, head_dim, pos);
  } else {
    ApplyRopeTable(vec, n_heads, head_dim, pos, table);
  }
}

void TransformerExecutor::EnsureWorkspace(int m) {
  if (m <= workspace_m_) {
    return;
  }
  const LlmConfig& c = spec_->config();
  const size_t d = c.d_model, kv = c.kv_dim(), ff = c.d_ff;
  hiddens_.resize(m * d);
  norm_.resize(m * d);
  q_.resize(m * d);
  k_.resize(m * kv);
  v_.resize(m * kv);
  attn_.resize(m * d);
  proj_.resize(m * d);
  gate_.resize(m * ff);
  up_.resize(m * ff);
  down_.resize(m * d);
  // One attention-scores row per pool part (each (position, head) work item
  // fully rewrites its part's row before reading it), independent of m.
  scores_.resize(static_cast<size_t>(std::max(1, n_threads_)) * c.max_ctx);
  workspace_m_ = m;
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
  const bool f16 = kv.storage() == KvStorage::kF16;

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
      if (f16) {
        for (int p = 0; p <= pos;) {
          const int run = std::min(kv.RunLen(p), pos + 1 - p);
          const uint16_t* kp = kv.KeyHalfAt(layer, p) + head_off;
          for (int r = 0; r < run; ++r, kp += kv_dim) {
            scores[p + r] = kernels_->dot_qk_f16(qh, kp, head_dim) * scale;
          }
          p += run;
        }
      } else {
        for (int p = 0; p <= pos;) {
          const int run = std::min(kv.RunLen(p), pos + 1 - p);
          const float* kp = kv.KeyAt(layer, p) + head_off;
          for (int r = 0; r < run; ++r, kp += kv_dim) {
            scores[p + r] = kernels_->dot_qk_f32(qh, kp, head_dim) * scale;
          }
          p += run;
        }
      }
      kernels_->softmax(scores, pos + 1);
      float* oh = out + static_cast<size_t>(i) * d + h * head_dim;
      std::fill(oh, oh + head_dim, 0.0f);
      if (f16) {
        for (int p = 0; p <= pos;) {
          const int run = std::min(kv.RunLen(p), pos + 1 - p);
          const uint16_t* vp = kv.ValueHalfAt(layer, p) + head_off;
          for (int r = 0; r < run; ++r, vp += kv_dim) {
            kernels_->axpy_f16(scores[p + r], vp, oh, head_dim);
          }
          p += run;
        }
      } else {
        for (int p = 0; p <= pos;) {
          const int run = std::min(kv.RunLen(p), pos + 1 - p);
          const float* vp = kv.ValueAt(layer, p) + head_off;
          for (int r = 0; r < run; ++r, vp += kv_dim) {
            kernels_->axpy_f32(scores[p + r], vp, oh, head_dim);
          }
          p += run;
        }
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

Status TransformerExecutor::ForwardPosition(float* hidden, int pos,
                                            KvCache* kv) {
  const LlmConfig& c = spec_->config();
  const int d = c.d_model;
  const int kv_dim = c.kv_dim();
  EnsureWorkspace(1);
  // Paged caches: restore any spilled page and hold everything resident for
  // the position (appends mid-loop allocate born-pinned pages).
  TZLLM_ASSIGN_OR_RETURN(step_pin, kv->PinForStep());
  (void)step_pin;

  for (int l = 0; l < c.n_layers; ++l) {
    // --- Attention block. ---
    TZLLM_ASSIGN_OR_RETURN(w_norm, Weights(TensorRole::kAttnNorm, l));
    kernels_->rms_norm(hidden, reinterpret_cast<const float*>(w_norm),
                       norm_.data(), d);

    TZLLM_ASSIGN_OR_RETURN(wq, Weights(TensorRole::kWq, l));
    TZLLM_ASSIGN_OR_RETURN(wk, Weights(TensorRole::kWk, l));
    TZLLM_ASSIGN_OR_RETURN(wv, Weights(TensorRole::kWv, l));
    const MatTarget qkv[] = {
        {wq, static_cast<uint64_t>(d), q_.data()},
        {wk, static_cast<uint64_t>(kv_dim), k_.data()},
        {wv, static_cast<uint64_t>(kv_dim), v_.data()}};
    TZLLM_RETURN_IF_ERROR(cpu_backend_->MatVec(norm_.data(), d, qkv, 3));

    Rope(q_.data(), c.n_heads, pos);
    Rope(k_.data(), c.n_kv_heads, pos);
    TZLLM_RETURN_IF_ERROR(kv->Append(l, k_.data(), v_.data()));

    Attend(l, pos, /*m=*/1, q_.data(), attn_.data(), *kv);

    TZLLM_ASSIGN_OR_RETURN(wo, Weights(TensorRole::kWo, l));
    const MatTarget proj[] = {{wo, static_cast<uint64_t>(d), proj_.data()}};
    TZLLM_RETURN_IF_ERROR(cpu_backend_->MatVec(attn_.data(), d, proj, 1));
    for (int i = 0; i < d; ++i) {
      hidden[i] += proj_[i];
    }

    // --- FFN block (SwiGLU). ---
    TZLLM_ASSIGN_OR_RETURN(w_ffn_norm, Weights(TensorRole::kFfnNorm, l));
    kernels_->rms_norm(hidden, reinterpret_cast<const float*>(w_ffn_norm),
                       norm_.data(), d);

    TZLLM_ASSIGN_OR_RETURN(w_gate, Weights(TensorRole::kWGate, l));
    TZLLM_ASSIGN_OR_RETURN(w_up, Weights(TensorRole::kWUp, l));
    TZLLM_ASSIGN_OR_RETURN(w_down, Weights(TensorRole::kWDown, l));
    const MatTarget gate_up[] = {
        {w_gate, static_cast<uint64_t>(c.d_ff), gate_.data()},
        {w_up, static_cast<uint64_t>(c.d_ff), up_.data()}};
    TZLLM_RETURN_IF_ERROR(cpu_backend_->MatVec(norm_.data(), d, gate_up, 2));
    for (int i = 0; i < c.d_ff; ++i) {
      const float g = gate_[i];
      const float silu = g / (1.0f + std::exp(-g));
      gate_[i] = silu * up_[i];
    }
    const MatTarget down[] = {{w_down, static_cast<uint64_t>(d), down_.data()}};
    TZLLM_RETURN_IF_ERROR(cpu_backend_->MatVec(gate_.data(), c.d_ff, down, 1));
    for (int i = 0; i < d; ++i) {
      hidden[i] += down_[i];
    }
  }
  kv->FinishPosition();
  return OkStatus();
}

Status TransformerExecutor::ForwardChunk(const TokenId* tokens, int m,
                                         KvCache* kv) {
  const LlmConfig& c = spec_->config();
  const int d = c.d_model;
  const int kv_dim = c.kv_dim();
  const int start = kv->seq_len();
  if (start + m > c.max_ctx) {
    return ResourceExhausted("KV cache full (context length exceeded)");
  }
  EnsureWorkspace(m);
  TZLLM_ASSIGN_OR_RETURN(step_pin, kv->PinForStep());
  (void)step_pin;
  // Every heavyweight matmul of the chunk goes through the backend seam as
  // a grouped submission; the submit+Await pairs here make this the serial
  // schedule (the pipelined one lives in ForwardPromptPipelined).
  ComputeBackend* backend = prefill_backend_;

  for (int i = 0; i < m; ++i) {
    TZLLM_RETURN_IF_ERROR(EmbedToken(tokens[i], hiddens_.data() + i * d));
  }

  for (int l = 0; l < c.n_layers; ++l) {
    // --- Attention block, all m positions per weight pass. ---
    TZLLM_ASSIGN_OR_RETURN(w_norm, Weights(TensorRole::kAttnNorm, l));
    for (int i = 0; i < m; ++i) {
      kernels_->rms_norm(hiddens_.data() + i * d,
                         reinterpret_cast<const float*>(w_norm),
                         norm_.data() + i * d, d);
    }
    acts_.QuantizeRows(norm_.data(), m, d);

    TZLLM_ASSIGN_OR_RETURN(wq, Weights(TensorRole::kWq, l));
    TZLLM_ASSIGN_OR_RETURN(wk, Weights(TensorRole::kWk, l));
    TZLLM_ASSIGN_OR_RETURN(wv, Weights(TensorRole::kWv, l));
    const MatMatOp qkv[] = {
        {wq, static_cast<uint64_t>(d), q_.data()},
        {wk, static_cast<uint64_t>(kv_dim), k_.data()},
        {wv, static_cast<uint64_t>(kv_dim), v_.data()}};
    TZLLM_ASSIGN_OR_RETURN(qkv_ticket,
                           backend->SubmitMatMatGroup(qkv, 3, acts_));
    TZLLM_RETURN_IF_ERROR(backend->Await(qkv_ticket));

    for (int i = 0; i < m; ++i) {
      Rope(q_.data() + i * d, c.n_heads, start + i);
      Rope(k_.data() + i * kv_dim, c.n_kv_heads, start + i);
    }
    TZLLM_RETURN_IF_ERROR(kv->AppendBatch(l, m, k_.data(), v_.data()));

    // The whole chunk's attention is one fused call: every (position, head)
    // pair is independent once the chunk's K/V rows are in the cache;
    // causality is the p <= pos bound inside Attend.
    Attend(l, start, m, q_.data(), attn_.data(), *kv);

    // --- Post-attention segment (Wo + residual + FFN), one fused
    // submission. ---
    acts_.QuantizeRows(attn_.data(), m, d);
    TZLLM_ASSIGN_OR_RETURN(
        tail, BuildLayerTail(l, m, hiddens_.data(), proj_.data(),
                             norm_.data(), gate_.data(), up_.data(),
                             down_.data(), &acts_));
    TZLLM_ASSIGN_OR_RETURN(tail_ticket, backend->SubmitLayerTail(tail, acts_));
    TZLLM_RETURN_IF_ERROR(backend->Await(tail_ticket));
  }
  kv->FinishPositions(m);
  return OkStatus();
}

Result<LayerTailOp> TransformerExecutor::BuildLayerTail(
    int l, int m, float* hiddens, float* proj, float* norm, float* gate,
    float* up, float* down, Q8Acts* acts) {
  const LlmConfig& c = spec_->config();
  TZLLM_ASSIGN_OR_RETURN(wo, Weights(TensorRole::kWo, l));
  TZLLM_ASSIGN_OR_RETURN(w_ffn_norm, Weights(TensorRole::kFfnNorm, l));
  TZLLM_ASSIGN_OR_RETURN(w_gate, Weights(TensorRole::kWGate, l));
  TZLLM_ASSIGN_OR_RETURN(w_up, Weights(TensorRole::kWUp, l));
  TZLLM_ASSIGN_OR_RETURN(w_down, Weights(TensorRole::kWDown, l));
  LayerTailOp tail;
  tail.m = m;
  tail.d_model = c.d_model;
  tail.d_ff = c.d_ff;
  tail.wo = wo;
  tail.ffn_norm_gain = reinterpret_cast<const float*>(w_ffn_norm);
  tail.w_gate = w_gate;
  tail.w_up = w_up;
  tail.w_down = w_down;
  tail.hiddens = hiddens;
  tail.proj = proj;
  tail.norm = norm;
  tail.gate = gate;
  tail.up = up;
  tail.down = down;
  tail.acts = acts;
  return tail;
}

Status TransformerExecutor::PipeAdmit(PipeChunk* ch, int index, int start,
                                      const TokenId* tokens, int m) {
  const LlmConfig& c = spec_->config();
  const size_t d = c.d_model;
  // Buffers are sized up front by ForwardPromptPipelined, never here: the
  // OTHER slot's in-flight jobs hold raw pointers into its vectors (the
  // zero-copy contract), so admission must not reallocate anything.
  if (m > pipe_m_) {
    return Internal("pipeline slot admitted a chunk larger than its sizing");
  }
  ch->index = index;
  ch->start = start;
  ch->m = m;
  ch->layer = 0;
  ch->attend_next = false;
  ch->qkv_ticket = kCompletedTicket;
  ch->tail_ticket = kCompletedTicket;
  for (int i = 0; i < m; ++i) {
    TZLLM_RETURN_IF_ERROR(
        EmbedToken(tokens[i], ch->hiddens.data() + i * static_cast<int>(d)));
  }
  return OkStatus();
}

Status TransformerExecutor::PipeAdvance(PipeChunk* ch, KvCache* kv) {
  const LlmConfig& c = spec_->config();
  const int d = c.d_model;
  const int kv_dim = c.kv_dim();
  ComputeBackend* backend = prefill_backend_;
  const int l = ch->layer;

  if (!ch->attend_next) {
    // S0: the previous layer's tail must have landed in hiddens before the
    // attention norm reads it. While we waited (and while we norm +
    // quantize here), the other chunk's jobs run on the NPU timeline.
    TZLLM_RETURN_IF_ERROR(backend->Await(ch->tail_ticket));
    ch->tail_ticket = kCompletedTicket;
    TZLLM_ASSIGN_OR_RETURN(w_norm, Weights(TensorRole::kAttnNorm, l));
    for (int i = 0; i < ch->m; ++i) {
      kernels_->rms_norm(ch->hiddens.data() + i * d,
                         reinterpret_cast<const float*>(w_norm),
                         ch->norm.data() + i * d, d);
    }
    ch->qkv_acts.QuantizeRows(ch->norm.data(), ch->m, d);
    TZLLM_ASSIGN_OR_RETURN(wq, Weights(TensorRole::kWq, l));
    TZLLM_ASSIGN_OR_RETURN(wk, Weights(TensorRole::kWk, l));
    TZLLM_ASSIGN_OR_RETURN(wv, Weights(TensorRole::kWv, l));
    const MatMatOp qkv[] = {
        {wq, static_cast<uint64_t>(d), ch->q.data()},
        {wk, static_cast<uint64_t>(kv_dim), ch->k.data()},
        {wv, static_cast<uint64_t>(kv_dim), ch->v.data()}};
    TZLLM_ASSIGN_OR_RETURN(ticket,
                           backend->SubmitMatMatGroup(qkv, 3, ch->qkv_acts));
    ch->qkv_ticket = ticket;
    ch->attend_next = true;
    return OkStatus();
  }

  // S1: QKV landed; RoPE + KV append + attention on the CPU, then the whole
  // post-attention segment as one fused job. The cross-chunk dependency —
  // this chunk's attention reads every earlier chunk's KV rows at this
  // layer — holds because the wavefront advances chunks in order within
  // each layer.
  TZLLM_RETURN_IF_ERROR(backend->Await(ch->qkv_ticket));
  ch->qkv_ticket = kCompletedTicket;
  for (int i = 0; i < ch->m; ++i) {
    Rope(ch->q.data() + i * d, c.n_heads, ch->start + i);
    Rope(ch->k.data() + i * kv_dim, c.n_kv_heads, ch->start + i);
  }
  TZLLM_RETURN_IF_ERROR(
      kv->AppendBatch(l, ch->m, ch->k.data(), ch->v.data()));
  Attend(l, ch->start, ch->m, ch->q.data(), ch->attn.data(), *kv);

  ch->attn_acts.QuantizeRows(ch->attn.data(), ch->m, d);
  TZLLM_ASSIGN_OR_RETURN(
      tail, BuildLayerTail(l, ch->m, ch->hiddens.data(), ch->proj.data(),
                           ch->norm.data(), ch->gate.data(), ch->up.data(),
                           ch->down.data(), &ch->attn_acts));
  TZLLM_ASSIGN_OR_RETURN(ticket,
                         backend->SubmitLayerTail(tail, ch->attn_acts));
  ch->tail_ticket = ticket;
  ch->attend_next = false;
  ++ch->layer;
  return OkStatus();
}

Result<std::vector<float>> TransformerExecutor::ForwardPromptPipelined(
    const std::vector<TokenId>& tokens, KvCache* kv) {
  const LlmConfig& c = spec_->config();
  const size_t chunk = static_cast<size_t>(std::max(1, options_.prefill_batch));
  const int base = kv->seq_len();
  if (base + static_cast<int>(tokens.size()) > c.max_ctx) {
    return Status(ErrorCode::kResourceExhausted,
                  "KV cache full (context length exceeded)");
  }
  EnsureWorkspace(1);  // Attention scratch (scores_) and the logits path.
  // One pin spans the whole wavefront: chunk attentions read earlier
  // chunks' pages while later chunks append, so nothing may move.
  TZLLM_ASSIGN_OR_RETURN(step_pin, kv->PinForStep());
  (void)step_pin;
  const int n_chunks =
      static_cast<int>((tokens.size() + chunk - 1) / chunk);
  // Size the slots the wavefront will actually occupy (a single-chunk
  // prompt never touches the second one) for the largest chunk BEFORE it
  // starts: once jobs are in flight they hold raw pointers into these
  // vectors, so no admission may reallocate them (PipeAdmit enforces
  // this).
  const int m_max = static_cast<int>(std::min(chunk, tokens.size()));
  const int slots_needed = std::min(2, n_chunks);
  if (m_max > pipe_m_ || slots_needed > pipe_slots_) {
    const size_t d = c.d_model, kvd = c.kv_dim(), ff = c.d_ff;
    const size_t m_new = static_cast<size_t>(std::max(m_max, pipe_m_));
    const int n_size = std::max(slots_needed, pipe_slots_);
    for (int s = 0; s < n_size; ++s) {
      PipeChunk& slot = pipe_[s];
      slot.hiddens.resize(m_new * d);
      slot.norm.resize(m_new * d);
      slot.q.resize(m_new * d);
      slot.k.resize(m_new * kvd);
      slot.v.resize(m_new * kvd);
      slot.attn.resize(m_new * d);
      slot.proj.resize(m_new * d);
      slot.gate.resize(m_new * ff);
      slot.up.resize(m_new * ff);
      slot.down.resize(m_new * d);
    }
    pipe_m_ = static_cast<int>(m_new);
    pipe_slots_ = n_size;
  }

  // Run the wavefront; on any error the backend is drained before
  // returning so no in-flight job writes through freed state.
  auto run = [&]() -> Result<PipeChunk*> {
    int next_chunk = 0;
    PipeChunk* last = nullptr;
    std::vector<PipeChunk*> active;
    auto admit = [&](PipeChunk* slot) -> Status {
      const size_t off = static_cast<size_t>(next_chunk) * chunk;
      const int m =
          static_cast<int>(std::min(chunk, tokens.size() - off));
      TZLLM_RETURN_IF_ERROR(PipeAdmit(slot, next_chunk,
                                      base + static_cast<int>(off),
                                      tokens.data() + off, m));
      active.push_back(slot);
      ++next_chunk;
      return OkStatus();
    };
    for (int s = 0; s < 2 && next_chunk < n_chunks; ++s) {
      TZLLM_RETURN_IF_ERROR(admit(&pipe_[s]));
    }
    while (!active.empty()) {
      // Advance every in-flight chunk one stage, in chunk order — that
      // order is what serializes per-layer KV appends across chunks.
      for (PipeChunk* ch : active) {
        TZLLM_RETURN_IF_ERROR(PipeAdvance(ch, kv));
      }
      // Retire chunks that submitted their last layer tail; their slot is
      // refilled with the next chunk, which becomes the youngest member of
      // the wavefront.
      for (size_t i = 0; i < active.size();) {
        PipeChunk* ch = active[i];
        if (ch->layer < c.n_layers || ch->attend_next) {
          ++i;
          continue;
        }
        TZLLM_RETURN_IF_ERROR(prefill_backend_->Await(ch->tail_ticket));
        ch->tail_ticket = kCompletedTicket;
        kv->FinishPositions(ch->m);
        if (ch->index == n_chunks - 1) {
          last = ch;
        }
        active.erase(active.begin() + i);
        if (next_chunk < n_chunks) {
          TZLLM_RETURN_IF_ERROR(admit(ch));
        }
      }
    }
    if (last == nullptr) {
      return Status(ErrorCode::kInternal, "pipelined prefill lost its tail");
    }
    return last;
  };

  auto last = run();
  if (!last.ok()) {
    // Drain in-flight jobs before surfacing the error: their payloads write
    // through pointers into chunk workspaces this frame owns. The original
    // error is the one the caller needs; Sync's is at best a duplicate.
    (void)prefill_backend_->Sync();
    return last.status();
  }
  return Logits((*last)->hiddens.data() +
                static_cast<size_t>((*last)->m - 1) * c.d_model);
}

Status TransformerExecutor::LogitsInto(const float* hidden, float* out) {
  const LlmConfig& c = spec_->config();
  auto w_norm = Weights(TensorRole::kOutputNorm, -1);
  if (!w_norm.ok()) {
    return w_norm.status();
  }
  EnsureWorkspace(1);
  kernels_->rms_norm(hidden, reinterpret_cast<const float*>(*w_norm),
                     norm_.data(), c.d_model);
  auto head = Weights(TensorRole::kLmHead, -1);
  if (!head.ok()) {
    return head.status();
  }
  const MatTarget logits[] = {
      {*head, static_cast<uint64_t>(c.vocab_size), out}};
  return cpu_backend_->MatVec(norm_.data(), c.d_model, logits, 1);
}

Result<std::vector<float>> TransformerExecutor::Logits(const float* hidden) {
  std::vector<float> logits(spec_->config().vocab_size);
  TZLLM_RETURN_IF_ERROR(LogitsInto(hidden, logits.data()));
  return logits;
}

Result<std::vector<float>> TransformerExecutor::Prefill(
    const std::vector<TokenId>& tokens, KvCache* kv) {
  TZLLM_RETURN_IF_ERROR(init_status_);
  if (tokens.empty()) {
    return Status(ErrorCode::kInvalidArgument, "empty prompt");
  }
  if (!options_.use_reference_kernels && options_.prefill_batch > 1 &&
      tokens.size() > 1) {
    return ForwardPrompt(tokens, kv);
  }
  return PrefillPerPosition(tokens, kv);
}

Result<std::vector<float>> TransformerExecutor::PrefillPerPosition(
    const std::vector<TokenId>& tokens, KvCache* kv) {
  EnsureWorkspace(1);
  // hiddens_ row 0 is free here: ForwardPosition only touches the other
  // workspace buffers, so the residual stream can live in the workspace
  // instead of a fresh allocation per call.
  float* hidden = hiddens_.data();
  for (size_t i = 0; i < tokens.size(); ++i) {
    TZLLM_RETURN_IF_ERROR(EmbedToken(tokens[i], hidden));
    TZLLM_RETURN_IF_ERROR(ForwardPosition(hidden, kv->seq_len(), kv));
  }
  return Logits(hidden);
}

Result<std::vector<float>> TransformerExecutor::ForwardPrompt(
    const std::vector<TokenId>& tokens, KvCache* kv) {
  TZLLM_RETURN_IF_ERROR(init_status_);
  if (tokens.empty()) {
    return Status(ErrorCode::kInvalidArgument, "empty prompt");
  }
  if (options_.use_reference_kernels) {
    // The batched chunks are quantized-kernel only; a reference-configured
    // executor must stay on the seed path rather than mix numerics.
    return PrefillPerPosition(tokens, kv);
  }
  if (prefill_backend_->asynchronous() && options_.npu_pipeline) {
    // NPU offload: the pipelined wavefront overlaps one chunk's CPU
    // attention with another chunk's fused jobs. Same floats — only
    // independent work is reordered. npu_pipeline=false keeps an async
    // backend on the serial chunk schedule below (submit, then await at
    // each dependency) — the {serial, pipelined} axis of the
    // fault-recovery matrix.
    return ForwardPromptPipelined(tokens, kv);
  }
  const size_t chunk =
      static_cast<size_t>(std::max(1, options_.prefill_batch));
  const int d = spec_->config().d_model;
  size_t last_m = 0;
  for (size_t off = 0; off < tokens.size(); off += last_m) {
    last_m = std::min(chunk, tokens.size() - off);
    TZLLM_RETURN_IF_ERROR(
        ForwardChunk(tokens.data() + off, static_cast<int>(last_m), kv));
  }
  return Logits(hiddens_.data() + (last_m - 1) * d);
}

Status TransformerExecutor::DecodeStepInto(TokenId token, KvCache* kv,
                                           float* logits) {
  TZLLM_RETURN_IF_ERROR(init_status_);
  EnsureWorkspace(1);
  float* hidden = hiddens_.data();
  TZLLM_RETURN_IF_ERROR(EmbedToken(token, hidden));
  TZLLM_RETURN_IF_ERROR(ForwardPosition(hidden, kv->seq_len(), kv));
  return LogitsInto(hidden, logits);
}

Result<std::vector<float>> TransformerExecutor::DecodeStep(TokenId token,
                                                           KvCache* kv) {
  std::vector<float> logits(spec_->config().vocab_size);
  TZLLM_RETURN_IF_ERROR(DecodeStepInto(token, kv, logits.data()));
  return logits;
}

Status TransformerExecutor::DecodeStepBatch(const DecodeEntry* entries,
                                            int n) {
  TZLLM_RETURN_IF_ERROR(init_status_);
  if (entries == nullptr || n <= 0) {
    return InvalidArgument("empty decode batch");
  }
  if (n == 1 || options_.use_reference_kernels) {
    // A single session gains nothing from the MatMat path, and a reference
    // engine must stay on the seed per-position kernels (no mixed numerics);
    // both route through the solo step, so one-session serving IS solo
    // decode, not a claim about it.
    for (int i = 0; i < n; ++i) {
      TZLLM_RETURN_IF_ERROR(
          DecodeStepInto(entries[i].token, entries[i].kv, entries[i].logits));
    }
    return OkStatus();
  }
  const LlmConfig& c = spec_->config();
  const int d = c.d_model;
  const int kv_dim = c.kv_dim();
  for (int i = 0; i < n; ++i) {
    if (entries[i].kv == nullptr || entries[i].logits == nullptr) {
      return InvalidArgument("decode batch entry missing its cache or logits");
    }
    if (entries[i].kv->seq_len() >= c.max_ctx) {
      return ResourceExhausted("KV cache full (context length exceeded)");
    }
  }
  EnsureWorkspace(n);
  // Pin every cache in the group for the whole step: the per-layer loop
  // interleaves session appends, and an unpinned neighbor's page could
  // otherwise be evicted between a session's append and its attend.
  std::vector<KvCachePin> step_pins;
  step_pins.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto pin = entries[i].kv->PinForStep();
    if (!pin.ok()) {
      return pin.status();
    }
    step_pins.push_back(std::move(*pin));
  }
  for (int i = 0; i < n; ++i) {
    TZLLM_RETURN_IF_ERROR(
        EmbedToken(entries[i].token, hiddens_.data() + i * d));
  }

  for (int l = 0; l < c.n_layers; ++l) {
    // --- Attention block: all n sessions share each weight pass. ---
    TZLLM_ASSIGN_OR_RETURN(w_norm, Weights(TensorRole::kAttnNorm, l));
    for (int i = 0; i < n; ++i) {
      kernels_->rms_norm(hiddens_.data() + i * d,
                         reinterpret_cast<const float*>(w_norm),
                         norm_.data() + i * d, d);
    }
    acts_.QuantizeRows(norm_.data(), n, d);

    TZLLM_ASSIGN_OR_RETURN(wq, Weights(TensorRole::kWq, l));
    TZLLM_ASSIGN_OR_RETURN(wk, Weights(TensorRole::kWk, l));
    TZLLM_ASSIGN_OR_RETURN(wv, Weights(TensorRole::kWv, l));
    const MatMatOp qkv[] = {
        {wq, static_cast<uint64_t>(d), q_.data()},
        {wk, static_cast<uint64_t>(kv_dim), k_.data()},
        {wv, static_cast<uint64_t>(kv_dim), v_.data()}};
    TZLLM_ASSIGN_OR_RETURN(qkv_ticket,
                           cpu_backend_->SubmitMatMatGroup(qkv, 3, acts_));
    TZLLM_RETURN_IF_ERROR(cpu_backend_->Await(qkv_ticket));

    // Per-session RoPE, KV append and attention: each row rotates at ITS
    // cache's current position and attends only against its own cache —
    // exactly the solo step's m=1 Attend call (same work partition, same
    // inline/pool threshold), so batching cannot mix sessions or move a
    // float. Entries must reference distinct caches; seq_len() only
    // advances at FinishPosition below, so a duplicated cache would stack
    // two appends on one position.
    for (int i = 0; i < n; ++i) {
      const int pos = entries[i].kv->seq_len();
      Rope(q_.data() + i * d, c.n_heads, pos);
      Rope(k_.data() + i * kv_dim, c.n_kv_heads, pos);
      TZLLM_RETURN_IF_ERROR(entries[i].kv->Append(
          l, k_.data() + i * kv_dim, v_.data() + i * kv_dim));
      Attend(l, pos, /*m=*/1, q_.data() + i * d, attn_.data() + i * d,
             *entries[i].kv);
    }

    // --- Post-attention segment, one fused pass over all n rows. ---
    acts_.QuantizeRows(attn_.data(), n, d);
    TZLLM_ASSIGN_OR_RETURN(
        tail, BuildLayerTail(l, n, hiddens_.data(), proj_.data(),
                             norm_.data(), gate_.data(), up_.data(),
                             down_.data(), &acts_));
    TZLLM_ASSIGN_OR_RETURN(tail_ticket,
                           cpu_backend_->SubmitLayerTail(tail, acts_));
    TZLLM_RETURN_IF_ERROR(cpu_backend_->Await(tail_ticket));
  }

  for (int i = 0; i < n; ++i) {
    entries[i].kv->FinishPosition();
  }
  // One shared LM-head pass: norm every session's hidden row, quantize them
  // together, and stream the vocabulary weights ONCE for the whole batch
  // (per-session LogitsInto would re-read the largest matrix in the model n
  // times per step). Each row norms, quantizes and dots independently —
  // bit-identical to the solo logits path, like every other batched matmul
  // in this step.
  TZLLM_ASSIGN_OR_RETURN(w_out_norm, Weights(TensorRole::kOutputNorm, -1));
  for (int i = 0; i < n; ++i) {
    kernels_->rms_norm(hiddens_.data() + i * d,
                       reinterpret_cast<const float*>(w_out_norm),
                       norm_.data() + i * d, d);
  }
  acts_.QuantizeRows(norm_.data(), n, d);
  TZLLM_ASSIGN_OR_RETURN(w_head, Weights(TensorRole::kLmHead, -1));
  logits_rows_.resize(static_cast<size_t>(n) * c.vocab_size);
  const MatMatOp lm[] = {
      {w_head, static_cast<uint64_t>(c.vocab_size), logits_rows_.data()}};
  TZLLM_ASSIGN_OR_RETURN(lm_ticket,
                         cpu_backend_->SubmitMatMatGroup(lm, 1, acts_));
  TZLLM_RETURN_IF_ERROR(cpu_backend_->Await(lm_ticket));
  for (int i = 0; i < n; ++i) {
    std::memcpy(entries[i].logits,
                logits_rows_.data() + static_cast<size_t>(i) * c.vocab_size,
                sizeof(float) * c.vocab_size);
  }
  return OkStatus();
}

Status TransformerExecutor::PrefillChunk(const TokenId* tokens, int m,
                                         bool per_position, KvCache* kv,
                                         float* logits) {
  TZLLM_RETURN_IF_ERROR(init_status_);
  if (tokens == nullptr || m <= 0) {
    return InvalidArgument("empty prefill chunk");
  }
  if (per_position) {
    // The seed schedule, one chunk's worth. Each position restarts from its
    // embedding, so nothing carries across chunks but the KV cache —
    // chunking at ANY boundary reproduces PrefillPerPosition exactly.
    EnsureWorkspace(1);
    float* hidden = hiddens_.data();
    for (int i = 0; i < m; ++i) {
      TZLLM_RETURN_IF_ERROR(EmbedToken(tokens[i], hidden));
      TZLLM_RETURN_IF_ERROR(ForwardPosition(hidden, kv->seq_len(), kv));
    }
    return logits != nullptr ? LogitsInto(hidden, logits) : OkStatus();
  }
  // The serial batched schedule, one chunk per call: identical to
  // ForwardPrompt's loop body, so a prompt fed in prefill_batch-sized
  // chunks lands the same KV rows and logits as the one-shot call.
  TZLLM_RETURN_IF_ERROR(ForwardChunk(tokens, m, kv));
  if (logits != nullptr) {
    return LogitsInto(
        hiddens_.data() + static_cast<size_t>(m - 1) * spec_->config().d_model,
        logits);
  }
  return OkStatus();
}

}  // namespace tzllm

// NpuBackend — batched-prefill work as *fused* secure NPU jobs (paper §4.3).
//
// One call = one job: a whole matmul group (QKV) or a whole post-attention
// layer tail (Wo + residual + FFN) rides a single execution context —
// command stream, I/O page table and every sub-buffer laid out in the TA's
// TZASC-protected scratch window and validated by the co-driver — so the
// per-job world-switch cost (~54 us modeled) is paid 2x per layer-chunk
// instead of 7x. Jobs are zero-copy: the pinned input buffer is the
// caller's own activation buffer, stable for the duration of the call, so
// context preparation is descriptor packing, not memcpy.
//
// Durations are priced by CostModel::NpuFusedJobTime; the functional
// payload runs the same host helpers (MatMatQ8 / RunLayerTail) over the
// engine's kernel table, so the offloaded result is bit-identical to the
// CPU path. Each call submits its job and waits for it; the backend
// charges the host's measured wall time between calls to the simulator
// clock, so the virtual prefill makespan composes real CPU segments with
// modeled NPU execution in one coherent number.

#include <algorithm>

#include "src/common/units.h"
#include "src/llm/backend/backend.h"
#include "src/llm/cost_model.h"
#include "src/llm/engine_options.h"
#include "src/llm/model_spec.h"
#include "src/llm/simd/kernels.h"
#include "src/tee/npu_driver.h"

namespace tzllm {

namespace {

uint64_t ActsBytes(uint64_t m, uint64_t cols) {
  return AlignUp(m * cols + m * (cols / kQ8BlockElems) * sizeof(float),
                 kPageSize);
}

uint64_t OutBytes(uint64_t m, uint64_t rows) {
  return AlignUp(m * rows * sizeof(float), kPageSize);
}

// EVERY buffer a fused layer-tail payload touches beyond the pinned input:
// the residual stream, the proj/norm scratch, the d_ff-wide requantization
// activations and the gate/up/down rows. Single source of truth for the
// submit-time descriptor AND the ContextBytes budget — the TZASC
// validation story ("every sub-buffer validated") only holds if this list
// is exhaustive, so additions to RunLayerTail must extend it.
std::vector<uint64_t> TailBufferBytes(uint64_t m, uint64_t d, uint64_t ff) {
  return {OutBytes(m, d),   // hiddens (read + write)
          OutBytes(m, d),   // proj
          OutBytes(m, d),   // norm
          ActsBytes(m, ff), // requantization acts (largest use: d_ff cols)
          OutBytes(m, ff),  // gate
          OutBytes(m, ff),  // up
          OutBytes(m, d)};  // down
}

}  // namespace

uint64_t NpuBackend::ContextBytes(const ModelSpec& spec,
                                  const EngineOptions& options) {
  const LlmConfig& c = spec.config();
  const uint64_t m =
      static_cast<uint64_t>(std::max(1, options.prefill_batch));
  const uint64_t d = static_cast<uint64_t>(c.d_model);
  const uint64_t ff = static_cast<uint64_t>(c.d_ff);
  const uint64_t kv = static_cast<uint64_t>(c.kv_dim());
  // The two job shapes, each: command + iopt page, pinned input
  // activations, then every data buffer the payload touches. The one
  // execution context must hold the larger.
  const uint64_t qkv_ctx = 2 * kPageSize + ActsBytes(m, d) + OutBytes(m, d) +
                           2 * OutBytes(m, kv);
  uint64_t tail_ctx = 2 * kPageSize + ActsBytes(m, d);
  for (uint64_t bytes : TailBufferBytes(m, d, ff)) {
    tail_ctx += bytes;
  }
  return std::max(qkv_ctx, tail_ctx);
}

NpuBackend::NpuBackend(const NpuBackendConfig& config) : config_(config) {
  if (config_.kernels == nullptr) {
    config_.kernels = ScalarKernels();
  }
}

void NpuBackend::AdvanceHostTime() {
  const auto now = std::chrono::steady_clock::now();
  double dt = 0;
  {
    MutexLock lock(&mu_);
    if (host_mark_valid_) {
      dt = std::chrono::duration<double>(now - host_mark_).count();
    }
    host_mark_valid_ = true;
    host_mark_ = now;
  }
  if (dt > 0) {
    // The CPU worked for dt wall seconds since the last backend call;
    // advance the virtual clock through that segment. Driving the
    // simulator runs completion chains on this stack: mu_ is released
    // first.
    Simulator& sim = config_.platform->sim();
    sim.RunUntil(sim.Now() + FromSeconds(dt));
  }
}

void NpuBackend::MarkHostTime() {
  MutexLock lock(&mu_);
  host_mark_valid_ = true;
  host_mark_ = std::chrono::steady_clock::now();
}

Status NpuBackend::RunJob(const std::vector<NpuMatmulShape>& shapes,
                          uint64_t in_bytes,
                          const std::vector<uint64_t>& out_bytes,
                          const std::function<Status()>& compute) {
  if (config_.driver == nullptr || config_.platform == nullptr) {
    return FailedPrecondition("NpuBackend not wired to a co-driver");
  }
  if (config_.job_timeout == 0) {
    return InvalidArgument(
        "NpuBackendConfig::job_timeout must be positive (a zero deadline "
        "turns a lost job into a hang)");
  }
  if (config_.max_retries < 0) {
    return InvalidArgument("negative NPU retry budget");
  }
  AdvanceHostTime();
  // A refusal at submit — a context outside the TA's TZASC regions, say —
  // fails closed: no retry and no CPU fallback may turn a security
  // rejection into a completed prefill.
  TZLLM_ASSIGN_OR_RETURN(id, SubmitJob(shapes, in_bytes, out_bytes, compute));
  Simulator& sim = config_.platform->sim();
  const SimTime before = sim.Now();
  Status st = config_.driver->WaitForJob(id, config_.job_timeout);
  // Bounded recovery, entirely on the virtual clock so the makespan metric
  // stays honest. WaitForJob has settled the failed job — completed with
  // its error, or abandoned with its sequence slot closed — so a
  // resubmission's takeover passes the co-driver's anti-reorder check. Each
  // retry waits out the backoff (letting an aborted device finish its
  // reset), reuses the execution context and occupies a fresh job id /
  // sequence number. A transient fault clears within max_retries; a
  // persistent one exhausts them and — with cpu_fallback — the payload
  // runs on the host instead. The payload IS the CPU implementation of the
  // group (the same kernel-table helpers CpuBackend runs), so fallback
  // output is bit-identical.
  for (int attempt = 0; !st.ok() && attempt < config_.max_retries;
       ++attempt) {
    sim.RunUntil(sim.Now() + config_.retry_backoff);
    auto retry = SubmitJob(shapes, in_bytes, out_bytes, compute);
    if (!retry.ok()) {
      st = retry.status();
      break;
    }
    st = config_.driver->WaitForJob(*retry, config_.job_timeout);
    if (st.ok()) {
      config_.driver->RecordRecovery(1, 0, 0);
    }
  }
  if (!st.ok() && config_.cpu_fallback) {
    st = compute();
    if (st.ok()) {
      config_.driver->RecordRecovery(0, 1, shapes.size());
    }
  }
  {
    MutexLock lock(&mu_);
    await_stall_time_ += sim.Now() - before;
  }
  MarkHostTime();
  return st;
}

Result<uint64_t> NpuBackend::SubmitJob(
    const std::vector<NpuMatmulShape>& shapes, uint64_t in_bytes,
    const std::vector<uint64_t>& out_bytes,
    const std::function<Status()>& compute) {
  const PhysAddr base = config_.ctx_base;
  NpuJobDesc desc;
  desc.cmd_addr = base;
  desc.cmd_size = kPageSize;
  desc.iopt_addr = base + kPageSize;
  desc.iopt_size = kPageSize;
  // Sub-buffer packing: pinned input first, then each data buffer of the
  // fused group, page-aligned, every one individually validated against the
  // TA's protected regions by CreateJob. Weight pages stream through the
  // params-region TZASC grant the co-driver programs for the secure window.
  PhysAddr cursor = base + 2 * kPageSize;
  desc.buffers.emplace_back(cursor, in_bytes);
  cursor += in_bytes;
  for (uint64_t bytes : out_bytes) {
    desc.buffers.emplace_back(cursor, bytes);
    cursor += bytes;
  }
  if (cursor - base > config_.ctx_bytes) {
    return ResourceExhausted("fused NPU job exceeds its execution context");
  }
  desc.matmuls = shapes;
  desc.duration = CostModel::NpuFusedJobTime(shapes);
  desc.compute = compute;

  auto id = config_.driver->SubmitJob(config_.ta, desc, nullptr);
  if (!id.ok()) {
    return id.status();
  }
  MutexLock lock(&mu_);
  ++jobs_submitted_;
  matmuls_submitted_ += shapes.size();
  return *id;
}

Status NpuBackend::MatMatGroup(const MatMatOp* ops, int n, const Q8Acts& x) {
  std::vector<NpuMatmulShape> shapes;
  std::vector<uint64_t> outs;
  for (int i = 0; i < n; ++i) {
    shapes.push_back({ops[i].rows, x.cols, static_cast<int>(x.m)});
    outs.push_back(OutBytes(x.m, ops[i].rows));
  }
  // Zero-copy functional payload: references the caller's activation
  // buffer and output rows directly.
  return RunJob(shapes, ActsBytes(x.m, x.cols), outs,
                [group = std::vector<MatMatOp>(ops, ops + n), xp = &x,
                 kernels = config_.kernels]() -> Status {
                  for (const MatMatOp& op : group) {
                    MatMatQ8(op.w, op.rows, xp->cols, *xp, op.y,
                             /*pool=*/nullptr, kernels);
                  }
                  return OkStatus();
                });
}

Status NpuBackend::LayerTail(const LayerTailOp& op, const Q8Acts& x_attn) {
  const uint64_t d = static_cast<uint64_t>(op.d_model);
  const uint64_t ff = static_cast<uint64_t>(op.d_ff);
  const uint64_t m = static_cast<uint64_t>(op.m);
  // The whole post-attention segment as ONE job: four matmuls plus their
  // elementwise glue in a single execution context. Buffers: the pinned
  // attention activations plus every scratch/output row the fused chain
  // touches (TailBufferBytes — exhaustive by contract).
  return RunJob({{d, d, op.m}, {ff, d, op.m}, {ff, d, op.m}, {d, ff, op.m}},
                ActsBytes(m, d), TailBufferBytes(m, d, ff),
                [op, xp = &x_attn, kernels = config_.kernels]() -> Status {
                  RunLayerTail(op, *xp, kernels, /*pool=*/nullptr);
                  return OkStatus();
                });
}

}  // namespace tzllm

// NpuBackend — batched-prefill work as *fused* secure NPU jobs (paper §4.3).
//
// One submission = one job: a whole matmul group (QKV) or a whole
// post-attention layer tail (Wo + residual + FFN) rides a single execution
// context — command stream, I/O page table and every sub-buffer laid out in
// the TA's TZASC-protected scratch window and validated by the co-driver —
// so the per-job world-switch cost (~54 us modeled) is paid 2x per
// layer-chunk instead of 7x. Jobs are zero-copy: the pinned input buffer is
// the caller's own activation buffer, stable until the ticket retires (the
// ComputeBackend lifetime contract), so context preparation is descriptor
// packing, not memcpy.
//
// Durations are priced by CostModel::NpuFusedJobTime; the functional
// payload runs the same host helpers (MatMatQ8 / layer-tail stages) over
// the engine's kernel table, so the offloaded result is bit-identical to
// the CPU path. Completion is per job: the executor's pipelined prefill
// defers each blocking Await to the true dependency point, computing
// another chunk's attention on the CPU while jobs run on the (simulated)
// NPU timeline (TryPoll/TryPollJob expose the matching non-blocking query
// for diagnostics and poll-driven schedulers). With hybrid_timeline on,
// the backend charges
// the host's measured wall time between backend calls to the simulator
// clock, so the virtual prefill makespan composes real CPU segments with
// modeled NPU execution — overlap and pipeline bubbles both show up in one
// coherent number.

#include <algorithm>
#include <utility>

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
  // activations, then every data buffer the payload touches. The unfused
  // stage jobs are strict subsets of the fused tail (same lists, split),
  // so the max over these two covers every granularity.
  const uint64_t qkv_slot = 2 * kPageSize + ActsBytes(m, d) +
                            OutBytes(m, d) + 2 * OutBytes(m, kv);
  uint64_t tail_slot = 2 * kPageSize + ActsBytes(m, d);
  for (uint64_t bytes : TailBufferBytes(m, d, ff)) {
    tail_slot += bytes;
  }
  return kJobSlots * std::max(qkv_slot, tail_slot);
}

NpuBackend::NpuBackend(const NpuBackendConfig& config)
    : config_(config), slot_bytes_(config.ctx_bytes / kJobSlots) {
  if (config_.kernels == nullptr) {
    config_.kernels = ScalarKernels();
  }
}

NpuBackend::~NpuBackend() {
  // Never leave a job's completion callback pointing at destroyed state.
  (void)Sync();
}

void NpuBackend::AdvanceHostTime() {
  if (!config_.hybrid_timeline || config_.platform == nullptr) {
    return;
  }
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
    // advance the virtual clock through that segment so concurrently
    // in-flight NPU jobs complete "during" it — this is the overlap.
    // Driving the simulator runs completion chains on this stack: mu_ is
    // released first.
    Simulator& sim = config_.platform->sim();
    sim.RunUntil(sim.Now() + FromSeconds(dt));
  }
}

void NpuBackend::MarkHostTime() {
  if (!config_.hybrid_timeline) {
    return;
  }
  MutexLock lock(&mu_);
  host_mark_valid_ = true;
  host_mark_ = std::chrono::steady_clock::now();
}

Status NpuBackend::AwaitOldest() {
  Pending oldest;
  {
    MutexLock lock(&mu_);
    if (pending_.empty()) {
      return OkStatus();
    }
    oldest = std::move(pending_.front());
    pending_.pop_front();
  }
  Simulator& sim = config_.platform->sim();
  const SimTime before = sim.Now();
  Status st = config_.driver->WaitForJob(oldest.job_id, config_.job_timeout);
  if (st.ok()) {
    const SimDuration stalled = sim.Now() - before;
    MutexLock lock(&mu_);
    await_stall_time_ += stalled;
    return st;
  }
  // Fault quiesce: a failed/lost job can leave execution-sequence holes
  // that make the co-driver reject every younger takeover as a reorder —
  // including the retries themselves if they are issued behind jobs still
  // in limbo. So recovery first settles the ENTIRE in-flight window (each
  // job either completes normally or joins the failed set, its sequence
  // window consumed or closed by WaitForJob's abandon bookkeeping), then
  // replays the failures one at a time into an empty window where a fresh
  // submission's takeover always validates. The in-flight window only ever
  // holds mutually independent work (the executor awaits at every data
  // dependency), so settling younger jobs before replaying older ones
  // cannot change any result.
  std::vector<Pending> failed;
  failed.push_back(std::move(oldest));
  for (;;) {
    Pending p;
    bool have = false;
    {
      MutexLock lock(&mu_);
      if (!pending_.empty()) {
        p = std::move(pending_.front());
        pending_.pop_front();
        have = true;
      }
    }
    if (!have) {
      break;
    }
    const Status pst =
        config_.driver->WaitForJob(p.job_id, config_.job_timeout);
    if (!pst.ok()) {
      failed.push_back(std::move(p));
    }
  }
  Status first;
  for (const Pending& job : failed) {
    const Status jst = RecoverJob(job, st);
    if (!jst.ok() && first.ok()) {
      first = jst;
    }
  }
  const SimDuration stalled = sim.Now() - before;
  MutexLock lock(&mu_);
  await_stall_time_ += stalled;
  return first;
}

Status NpuBackend::RecoverJob(const Pending& job, Status st) {
  // Bounded recovery, entirely on the virtual clock so the makespan metric
  // stays honest: each resubmission waits out the backoff (letting an
  // aborted device finish its reset), reuses the retired job's context
  // slot, and occupies a fresh job id / sequence number. A transient fault
  // clears within max_retries; a persistent one exhausts them and — with
  // cpu_fallback — the job's payload runs on the host instead. The payload
  // IS the CPU implementation of the group (the same kernel-table helpers
  // a CpuBackend submit runs), so fallback output is bit-identical.
  Simulator& sim = config_.platform->sim();
  for (int attempt = 0; attempt < config_.max_retries; ++attempt) {
    sim.RunUntil(sim.Now() + config_.retry_backoff);
    auto id = SubmitJobInSlot(job.slot, job.shapes, job.in_bytes,
                              job.out_bytes, job.compute);
    if (!id.ok()) {
      st = id.status();
      break;
    }
    st = config_.driver->WaitForJob(*id, config_.job_timeout);
    if (st.ok()) {
      {
        MutexLock lock(&mu_);
        ++jobs_recovered_;
      }
      config_.driver->RecordRecovery(1, 0, 0);
      return OkStatus();
    }
  }
  if (config_.cpu_fallback && job.compute) {
    const Status fst = job.compute();
    if (fst.ok()) {
      {
        MutexLock lock(&mu_);
        ++fallback_jobs_;
        fallback_matmuls_ += job.shapes.size();
      }
      config_.driver->RecordRecovery(0, 1, job.shapes.size());
      return OkStatus();
    }
    return fst;
  }
  return st;
}

Result<uint64_t> NpuBackend::SubmitJobInSlot(
    int slot, const std::vector<NpuMatmulShape>& shapes, uint64_t in_bytes,
    const std::vector<uint64_t>& out_bytes, std::function<Status()> compute) {
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
  const PhysAddr base = config_.ctx_base + slot * slot_bytes_;

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
  if (cursor - base > slot_bytes_) {
    return ResourceExhausted("fused NPU job context exceeds its scratch slot");
  }
  desc.matmuls = shapes;
  desc.duration = CostModel::NpuFusedJobTime(shapes);
  desc.compute = std::move(compute);

  auto id = config_.driver->SubmitJob(config_.ta, desc, nullptr);
  if (!id.ok()) {
    return id.status();
  }
  MutexLock lock(&mu_);
  ++jobs_submitted_;
  matmuls_submitted_ += shapes.size();
  return *id;
}

Status NpuBackend::SubmitJob(BackendTicket ticket,
                             const std::vector<NpuMatmulShape>& shapes,
                             uint64_t in_bytes,
                             const std::vector<uint64_t>& out_bytes,
                             std::function<Status()> compute) {
  // Double buffering: a context slot is reusable once the job two
  // submissions ago has retired; jobs complete in submit order (the
  // co-driver enforces monotonic execution sequencing), so retiring the
  // oldest pending job frees the slot this submission reuses.
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (pending_.size() < static_cast<size_t>(kJobSlots)) {
        break;
      }
    }
    TZLLM_RETURN_IF_ERROR(AwaitOldest());
  }
  int slot;
  {
    MutexLock lock(&mu_);
    slot = static_cast<int>(next_slot_++ % kJobSlots);
  }
  // The Pending entry keeps a copy of the payload and the descriptor
  // geometry: that is the replay state AwaitOldest's retry/fallback path
  // rebuilds the job from (the original closure moves into the descriptor
  // and is neutralized on failure, so a copy must outlive the attempt).
  auto id = SubmitJobInSlot(slot, shapes, in_bytes, out_bytes, compute);
  if (!id.ok()) {
    return id.status();
  }
  MutexLock lock(&mu_);
  pending_.push_back(
      {*id, ticket, slot, shapes, in_bytes, out_bytes, std::move(compute)});
  return OkStatus();
}

Result<BackendTicket> NpuBackend::SubmitMatMatGroup(const MatMatOp* ops,
                                                    int n, const Q8Acts& x) {
  AdvanceHostTime();
  BackendTicket ticket;
  {
    MutexLock lock(&mu_);
    ticket = next_ticket_++;
  }
  const int m = static_cast<int>(x.m);
  const uint64_t in_bytes = ActsBytes(x.m, x.cols);
  auto submit_range = [&](int lo, int hi) -> Status {
    std::vector<NpuMatmulShape> shapes;
    std::vector<uint64_t> outs;
    for (int i = lo; i < hi; ++i) {
      shapes.push_back({ops[i].rows, x.cols, m});
      outs.push_back(OutBytes(x.m, ops[i].rows));
    }
    // Zero-copy functional payload: references the caller's activation
    // buffer and output rows directly (stable until the ticket retires).
    std::vector<MatMatOp> group(ops + lo, ops + hi);
    return SubmitJob(ticket, shapes, in_bytes, outs,
                     [group = std::move(group), xp = &x,
                      kernels = config_.kernels]() -> Status {
                       for (const MatMatOp& op : group) {
                         MatMatQ8(op.w, op.rows, xp->cols, *xp, op.y,
                                  /*pool=*/nullptr, kernels);
                       }
                       return OkStatus();
                     });
  };
  Status st;
  if (config_.fuse_jobs) {
    st = submit_range(0, n);  // Whole group, one job.
  } else {
    for (int i = 0; i < n && st.ok(); ++i) {
      st = submit_range(i, i + 1);  // Pre-fusion granularity.
    }
  }
  if (!st.ok()) {
    // Failing a group must not leave earlier jobs of it in flight: their
    // payloads write through captured pointers into the caller's workspace.
    // Drain first, report the original error.
    (void)Sync();
    return st;
  }
  MarkHostTime();
  return ticket;
}

Result<BackendTicket> NpuBackend::SubmitLayerTail(const LayerTailOp& op,
                                                  const Q8Acts& x_attn) {
  AdvanceHostTime();
  BackendTicket ticket;
  {
    MutexLock lock(&mu_);
    ticket = next_ticket_++;
  }
  const uint64_t d = static_cast<uint64_t>(op.d_model);
  const uint64_t ff = static_cast<uint64_t>(op.d_ff);
  const uint64_t m = static_cast<uint64_t>(op.m);
  const uint64_t in_bytes = ActsBytes(m, d);
  const KernelDispatch* kernels = config_.kernels;
  Status st;
  if (config_.fuse_jobs) {
    // The whole post-attention segment as ONE job: four matmuls plus their
    // elementwise glue in a single execution context. Buffers: the pinned
    // attention activations plus every scratch/output row the fused chain
    // touches (TailBufferBytes — exhaustive by contract).
    const std::vector<NpuMatmulShape> shapes = {{d, d, op.m},
                                                {ff, d, op.m},
                                                {ff, d, op.m},
                                                {d, ff, op.m}};
    const std::vector<uint64_t> outs = TailBufferBytes(m, d, ff);
    st = SubmitJob(ticket, shapes, in_bytes, outs,
                   [op, xp = &x_attn, kernels]() -> Status {
                     RunLayerTail(op, *xp, kernels, /*pool=*/nullptr);
                     return OkStatus();
                   });
  } else {
    // Pre-fusion granularity: one job per matmul. Each payload composes the
    // exact stage helpers RunLayerTail uses, and the device executes jobs
    // in submission order, so the unfused schedule computes the identical
    // floats — just with 4x the world switches. Each stage declares its
    // pinned input at the width it actually consumes and every buffer its
    // glue touches.
    struct Stage {
      std::vector<NpuMatmulShape> shapes;
      uint64_t in_bytes;
      std::vector<uint64_t> outs;
      std::function<Status()> compute;
    };
    const Stage stages[] = {
        {{{d, d, op.m}},
         in_bytes,  // x_attn (d_model cols).
         // proj + hiddens + norm + the d_model-wide requantization.
         {OutBytes(m, d), OutBytes(m, d), OutBytes(m, d), ActsBytes(m, d)},
         [op, xp = &x_attn, kernels] {
           MatMatQ8(op.wo, static_cast<uint64_t>(op.d_model), xp->cols, *xp,
                    op.proj, nullptr, kernels);
           LayerTailProjResidualNormQuant(op, kernels);
           return OkStatus();
         }},
        {{{ff, d, op.m}},
         ActsBytes(m, d),  // Requantized norm activations.
         {OutBytes(m, ff)},
         [op, kernels] {
           MatMatQ8(op.w_gate, static_cast<uint64_t>(op.d_ff),
                    static_cast<uint64_t>(op.d_model), *op.acts, op.gate,
                    nullptr, kernels);
           return OkStatus();
         }},
        {{{ff, d, op.m}},
         ActsBytes(m, d),  // Same requantized norm activations.
         // up + gate (silu rewrites it) + the d_ff-wide requantization.
         {OutBytes(m, ff), OutBytes(m, ff), ActsBytes(m, ff)},
         [op, kernels] {
           MatMatQ8(op.w_up, static_cast<uint64_t>(op.d_ff),
                    static_cast<uint64_t>(op.d_model), *op.acts, op.up,
                    nullptr, kernels);
           LayerTailSwiGluQuant(op, kernels);
           return OkStatus();
         }},
        {{{d, ff, op.m}},
         ActsBytes(m, ff),  // Requantized SwiGLU activations (d_ff cols).
         {OutBytes(m, d), OutBytes(m, d)},  // down + hiddens residual.
         [op, kernels] {
           MatMatQ8(op.w_down, static_cast<uint64_t>(op.d_model),
                    static_cast<uint64_t>(op.d_ff), *op.acts, op.down,
                    nullptr, kernels);
           LayerTailDownResidual(op);
           return OkStatus();
         }},
    };
    int stage_index = 0;
    for (const Stage& stage : stages) {
      st = SubmitJob(ticket, stage.shapes, stage.in_bytes, stage.outs,
                     stage.compute);
      if (!st.ok()) {
        break;
      }
      // Recovery soundness: the stages chain through the shared
      // requantization scratch, and a failed job may be retried or replayed
      // on the CPU *after* anything concurrently in flight has executed —
      // so a stage must retire before its dependent successor is submitted,
      // or the successor could consume stale scratch the replay then
      // overwrites too late. Each stage is awaited except the last (its
      // consumers await the ticket); only independent work may share the
      // in-flight window.
      if (++stage_index < 4) {
        st = Await(ticket);
        if (!st.ok()) {
          break;
        }
      }
    }
  }
  if (!st.ok()) {
    (void)Sync();
    return st;
  }
  MarkHostTime();
  return ticket;
}

Status NpuBackend::Await(BackendTicket ticket) {
  if (ticket == kCompletedTicket) {
    return OkStatus();
  }
  AdvanceHostTime();
  Status first;
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (pending_.empty() || pending_.front().ticket > ticket) {
        break;
      }
    }
    const Status st = AwaitOldest();
    if (!st.ok() && first.ok()) {
      first = st;
    }
  }
  if (!first.ok()) {
    // A failed job's group-mates may still be in flight against the same
    // caller workspace; drain them before surfacing the error.
    (void)Sync();
  }
  MarkHostTime();
  return first;
}

Result<bool> NpuBackend::TryPoll(BackendTicket ticket) {
  if (ticket == kCompletedTicket) {
    return true;
  }
  // Snapshot the relevant job ids under mu_, then query the driver with it
  // released (the driver takes its own lock; TryPollJob never drives the
  // simulator, so the window cannot change between the two phases today).
  std::vector<uint64_t> job_ids;
  {
    MutexLock lock(&mu_);
    for (const Pending& p : pending_) {
      if (p.ticket > ticket) {
        break;
      }
      job_ids.push_back(p.job_id);
    }
  }
  for (uint64_t job_id : job_ids) {
    auto done = config_.driver->TryPollJob(job_id);
    if (!done.ok()) {
      return done.status();
    }
    if (!*done) {
      return false;
    }
  }
  return true;
}

Status NpuBackend::Sync() {
  Status first;
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (pending_.empty()) {
        break;
      }
    }
    const Status st = AwaitOldest();
    if (!st.ok() && first.ok()) {
      first = st;
    }
  }
  return first;
}

}  // namespace tzllm

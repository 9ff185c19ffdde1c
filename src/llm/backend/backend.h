// ComputeBackend — the seam between the transformer executor and whatever
// hardware runs its heavyweight matmuls.
//
// Every quantized matmul group of the executor's forward pass routes
// through a ComputeBackend, so the same schedule can run a chunk's QKV/FFN
// work on the CPU kernel pool (CpuBackend) or hand it to the secure NPU
// behind the TEE's minimal co-driver data plane (NpuBackend, paper §4.3).
// Decode stays on the CPU KernelDispatch path by construction: the executor
// always owns a CpuBackend and only the *prefill* seam is swappable.
//
// The submission API is asynchronous: SubmitMatMatGroup/SubmitLayerTail
// return a ticket, and the caller observes completion through Await/TryPoll
// (or the Sync barrier). A synchronous backend (CpuBackend) executes at
// submit time and returns the kCompletedTicket; an asynchronous backend
// (NpuBackend) turns each submission into one fused secure NPU job and lets
// the caller overlap its own CPU work — the executor's prefill wavefront
// computes one chunk's attention while another chunk's fused layer job runs
// on the NPU timeline.
//
// Lifetime contract for asynchronous submissions: every buffer a submission
// references — the quantized activations, the output rows, the layer-tail
// scratch — is caller-owned and must stay untouched until the ticket
// retires (Await returned, or Sync). This is what makes the NPU path
// zero-copy: the job's pinned input *is* the caller's buffer.
//
// Numerics contract: a backend must produce outputs bit-identical to the
// same group run through MatMatQ8 + RunLayerTail over the engine's kernel
// table. For CpuBackend this is definitional (it *is* that code path);
// NpuBackend's functional payloads call the exact same helpers with the
// same table, so swapping backends never changes a single logit.

#ifndef SRC_LLM_BACKEND_BACKEND_H_
#define SRC_LLM_BACKEND_BACKEND_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"
#include "src/hw/npu.h"
#include "src/hw/types.h"
#include "src/llm/tensor.h"

namespace tzllm {

struct EngineOptions;
struct KernelDispatch;
class ModelSpec;
class SocPlatform;
class TeeNpuDriver;
class ThreadPool;

// One matmul of a fused group; all members share the group's quantized
// activations: y[p * rows + r] = W row r . X position p.
struct MatMatOp {
  const uint8_t* w = nullptr;
  uint64_t rows = 0;
  float* y = nullptr;
};

// The whole post-attention segment of one transformer layer over an
// m-position chunk, fused into a single submission:
//
//   proj    = Wo x_attn                  (x_attn = quantized attention out)
//   hiddens += proj                      (residual)
//   norm    = RmsNorm(hiddens, gain)     (per position)
//   acts    = Q8(norm)
//   gate    = Wg acts;  up = Wu acts
//   gate    = silu(gate) * up            (SwiGLU)
//   acts    = Q8(gate)
//   down    = Wd acts
//   hiddens += down                      (residual)
//
// Everything from the attention output to the layer's final residual is a
// straight-line chain with no other consumer, so a backend may run it as
// ONE fused NPU job — this is where 7 jobs per layer-chunk become 2. All
// pointers are caller-owned workspace for the chunk, untouched until the
// ticket retires; `acts` is requantization scratch the chain reuses (it may
// alias the x_attn object passed alongside — the Wo matmul consumes x_attn
// before the first requantization overwrites it).
struct LayerTailOp {
  int m = 0;
  int d_model = 0;
  int d_ff = 0;
  const uint8_t* wo = nullptr;
  const float* ffn_norm_gain = nullptr;
  const uint8_t* w_gate = nullptr;
  const uint8_t* w_up = nullptr;
  const uint8_t* w_down = nullptr;
  float* hiddens = nullptr;  // [m][d_model] residual stream, updated in place.
  float* proj = nullptr;     // [m][d_model] scratch.
  float* norm = nullptr;     // [m][d_model] scratch.
  float* gate = nullptr;     // [m][d_ff] scratch.
  float* up = nullptr;       // [m][d_ff] scratch.
  float* down = nullptr;     // [m][d_model] scratch.
  Q8Acts* acts = nullptr;    // Requantization scratch.
};

// Executes a layer tail on the host with `kernels` — the single functional
// definition of the fused chain, shared by CpuBackend and the NPU job
// payload so both backends compute the identical floats in the identical
// order (and so it cannot drift from what the executor used to inline).
void RunLayerTail(const LayerTailOp& op, const Q8Acts& x_attn,
                  const KernelDispatch* kernels, ThreadPool* pool);

// The elementwise stages between the tail's matmuls, exposed so the
// unfused (one-job-per-matmul) NPU mode composes the exact same stage
// functions RunLayerTail does — fused and unfused schedules are therefore
// bit-identical by construction, not by parallel maintenance.
void LayerTailProjResidualNormQuant(const LayerTailOp& op,
                                    const KernelDispatch* kernels);
void LayerTailSwiGluQuant(const LayerTailOp& op,
                          const KernelDispatch* kernels);
void LayerTailDownResidual(const LayerTailOp& op);

// Completion handle for an asynchronous submission. Monotonic per backend;
// kCompletedTicket means the work already ran synchronously at submit.
using BackendTicket = uint64_t;
inline constexpr BackendTicket kCompletedTicket = 0;

class ComputeBackend {
 public:
  virtual ~ComputeBackend() = default;

  virtual const char* name() const = 0;
  // True when submissions may complete after the submit call returns — the
  // executor's whole-prompt Prefill runs its wavefront on such backends.
  virtual bool asynchronous() const { return false; }

  // Matmul group over pre-quantized activations `x` shared by every member
  // op. May execute asynchronously; see the lifetime
  // contract above.
  virtual Result<BackendTicket> SubmitMatMatGroup(const MatMatOp* ops, int n,
                                                  const Q8Acts& x) = 0;

  // Fused post-attention layer segment (see LayerTailOp). `x_attn` is the
  // chunk's quantized attention output.
  virtual Result<BackendTicket> SubmitLayerTail(const LayerTailOp& op,
                                                const Q8Acts& x_attn) = 0;

  // Blocks until the submission behind `ticket` (and, on an in-order
  // backend, everything submitted before it) has completed; returns its
  // completion status. Await(kCompletedTicket) is a no-op.
  virtual Status Await(BackendTicket ticket) = 0;

  // Non-blocking: true when Await(ticket) would return without waiting.
  virtual Result<bool> TryPoll(BackendTicket ticket) = 0;

  // Barrier: returns once every outstanding submission has completed, with
  // the first failure if any job failed.
  virtual Status Sync() = 0;
};

// The CPU path: quantized integer-dot kernels on the thread pool, inner
// loops through the SIMD table the engine resolved at construction. Fully
// synchronous — every submit executes inline and returns kCompletedTicket.
class CpuBackend : public ComputeBackend {
 public:
  // `pool` (optional) and `kernels` (nullptr = process-wide table) are owned
  // by the caller and must outlive the backend.
  CpuBackend(ThreadPool* pool, const KernelDispatch* kernels)
      : pool_(pool), kernels_(kernels) {}

  const char* name() const override { return "cpu"; }
  Result<BackendTicket> SubmitMatMatGroup(const MatMatOp* ops, int n,
                                          const Q8Acts& x) override;
  Result<BackendTicket> SubmitLayerTail(const LayerTailOp& op,
                                        const Q8Acts& x_attn) override;
  Status Await(BackendTicket /*ticket*/) override { return OkStatus(); }
  Result<bool> TryPoll(BackendTicket /*ticket*/) override { return true; }
  Status Sync() override { return OkStatus(); }

 private:
  ThreadPool* pool_;
  const KernelDispatch* kernels_;
};

// Wiring for the secure NPU prefill path. All pointers are non-owning and
// must outlive the backend.
struct NpuBackendConfig {
  SocPlatform* platform = nullptr;
  TeeNpuDriver* driver = nullptr;
  int ta = -1;  // TaId owning the job execution contexts.
  // Window inside the TA's TZASC-protected scratch region hosting the job
  // execution contexts (command stream, I/O page table, in/out buffers).
  // Must be at least ContextBytes(spec, options) long; the co-driver rejects
  // jobs whose context falls outside the TA's protected regions.
  PhysAddr ctx_base = 0;
  uint64_t ctx_bytes = 0;
  // Kernel table for the functional job payloads — pass the engine's own
  // KernelsFor(options) so the offloaded chain (matmuls AND the layer
  // tail's norm/silu glue) computes bit-identically to the CPU path.
  // nullptr = the frozen scalar table.
  const KernelDispatch* kernels = nullptr;
  // One fused job per matmul group / layer tail (default) vs one job per
  // matmul (the pre-fusion granularity; EngineOptions::npu_fusion).
  bool fuse_jobs = true;
  // Hybrid timeline: charge the host CPU's measured wall time between
  // backend calls to the simulator clock, so the virtual prefill makespan
  // composes real CPU segments with modeled NPU job execution — the number
  // that answers "what would this take on the real SoC", and the one the
  // bench reports for the offloaded path. Off = the virtual clock only
  // advances for NPU/protocol events.
  bool hybrid_timeline = true;
  // Per-job wait deadline on the virtual clock (EngineOptions::
  // npu_job_timeout). Non-positive values are rejected at submit with
  // InvalidArgument — zero would mean "wait forever", which a lost job
  // turns into a hang.
  SimDuration job_timeout = 2000 * kMillisecond;
  // Recovery policy for a failed/timed-out job: bounded resubmissions
  // (each after retry_backoff of virtual time, so the makespan metric
  // stays honest), then — when cpu_fallback — the job's matmul group is
  // re-executed on the CPU path and the prefill continues. Both paths run
  // the same kernel-table helpers the NPU payload would have, so recovery
  // never changes a logit. cpu_fallback=false surfaces the final Status.
  int max_retries = 2;
  SimDuration retry_backoff = 1 * kMillisecond;
  bool cpu_fallback = true;
};

// Packages prefill work as secure NPU jobs: one *fused* job per matmul
// group or layer tail (buffers pinned inside the TA's TZASC regions, every
// sub-buffer validated by the co-driver, duration priced by
// CostModel::NpuFusedJobTime, functional payload the shared host helpers
// over the engine's kernel table for bit-exact results). Jobs are submitted
// through TeeNpuDriver::SubmitJob and double-buffered across kJobSlots
// execution contexts, so preparing job n+1's context overlaps job n's
// execution; completion is observed per ticket — the pipelined schedule
// defers each blocking Await to its dependency point (that deferral is
// the overlap), and TryPoll gives the non-blocking query for diagnostics
// or poll-driven schedulers.
// Locking: mu_ guards the in-flight ticket window (pending_), the
// execution-context slot cursor, the ticket counter, the hybrid-timeline
// host mark and every statistic. Critical sections are leaf-only: WaitForJob
// and the hybrid-timeline advance DRIVE THE SIMULATOR (running arbitrary
// completion chains on this stack), and a driver submit runs the whole SMC
// round trip — none of it ever under mu_.
class NpuBackend : public ComputeBackend {
 public:
  // Execution contexts double-buffered: prepare job n+1 while n runs.
  static constexpr int kJobSlots = 2;

  // Scratch bytes the TA must budget (and protect) for the job execution
  // contexts of chunks up to options.prefill_batch positions of `spec` —
  // what config.ctx_bytes must be computed with. Sized for the largest
  // fused job (a layer tail touches in + hiddens + gate/up scratch + out).
  static uint64_t ContextBytes(const ModelSpec& spec,
                               const EngineOptions& options);

  explicit NpuBackend(const NpuBackendConfig& config);
  ~NpuBackend() override;

  const char* name() const override { return "npu"; }
  bool asynchronous() const override { return true; }
  Result<BackendTicket> SubmitMatMatGroup(const MatMatOp* ops, int n,
                                          const Q8Acts& x) override
      TZLLM_EXCLUDES(mu_);
  Result<BackendTicket> SubmitLayerTail(const LayerTailOp& op,
                                        const Q8Acts& x_attn) override
      TZLLM_EXCLUDES(mu_);
  Status Await(BackendTicket ticket) override TZLLM_EXCLUDES(mu_);
  Result<bool> TryPoll(BackendTicket ticket) override TZLLM_EXCLUDES(mu_);
  Status Sync() override TZLLM_EXCLUDES(mu_);

  uint64_t jobs_submitted() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return jobs_submitted_;
  }
  uint64_t matmuls_submitted() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return matmuls_submitted_;
  }
  // Virtual time the caller spent stalled in Await/Sync driving the
  // simulator to a job's completion (prefill bubbles the pipeline could not
  // hide).
  SimDuration await_stall_time() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return await_stall_time_;
  }
  // Degradation stats: jobs that failed at least once and then completed on
  // the NPU via resubmission, and jobs (plus the matmuls they carried)
  // re-executed on the CPU after retries were exhausted. Mirrored into
  // TeeNpuDriver::RecordRecovery so the driver's stats surface carries the
  // whole fault story.
  uint64_t jobs_recovered() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return jobs_recovered_;
  }
  uint64_t fallback_jobs() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return fallback_jobs_;
  }
  uint64_t fallback_matmuls() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return fallback_matmuls_;
  }
  // In-flight submissions (drained to zero by Sync — including the error
  // paths, so a failed prefill leaves no dangling job context behind).
  size_t pending_jobs() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return pending_.size();
  }

 private:
  // One in-flight fused job occupying a context slot. Carries everything
  // needed to rebuild the job for a retry (or run it on the CPU as the
  // fallback): the descriptor geometry and a copy of the functional
  // payload, which stays valid until the ticket retires by the backend's
  // buffer-lifetime contract.
  struct Pending {
    uint64_t job_id = 0;
    BackendTicket ticket = 0;
    int slot = 0;
    std::vector<NpuMatmulShape> shapes;
    uint64_t in_bytes = 0;
    std::vector<uint64_t> out_bytes;
    std::function<Status()> compute;
  };

  // Charges host wall time since the last backend call to the virtual
  // clock (hybrid timeline), running any NPU/protocol events that fall
  // inside the segment. EXCLUDES(mu_): driving the simulator runs
  // completion chains on this stack.
  void AdvanceHostTime() TZLLM_EXCLUDES(mu_);
  void MarkHostTime() TZLLM_EXCLUDES(mu_);
  // Retires the oldest pending job (jobs complete in submit order — the
  // co-driver enforces monotonic execution sequencing). On failure it
  // quiesces the whole in-flight window, then replays each failed job via
  // RecoverJob.
  Status AwaitOldest() TZLLM_EXCLUDES(mu_);
  // Replays one settled-but-failed job into the (now empty) in-flight
  // window: resubmitted up to config_.max_retries times with retry_backoff
  // of virtual time between attempts; after that, with cpu_fallback, its
  // payload runs on the host — bit-identical by construction — and the
  // prefill continues. `st` is the original failure, returned if recovery
  // is disabled or exhausted.
  Status RecoverJob(const Pending& job, Status st) TZLLM_EXCLUDES(mu_);
  // Builds, validates and submits one fused job into `slot`.
  Result<uint64_t> SubmitJobInSlot(int slot,
                                   const std::vector<NpuMatmulShape>& shapes,
                                   uint64_t in_bytes,
                                   const std::vector<uint64_t>& out_bytes,
                                   std::function<Status()> compute)
      TZLLM_EXCLUDES(mu_);
  // Slot-allocating submit wrapper: retires slots as needed, records the
  // Pending replay entry under `ticket`.
  Status SubmitJob(BackendTicket ticket,
                   const std::vector<NpuMatmulShape>& shapes,
                   uint64_t in_bytes, const std::vector<uint64_t>& out_bytes,
                   std::function<Status()> compute) TZLLM_EXCLUDES(mu_);

  // Immutable after construction.
  NpuBackendConfig config_;
  uint64_t slot_bytes_ = 0;

  mutable Mutex mu_;
  uint64_t next_slot_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t jobs_submitted_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t matmuls_submitted_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t jobs_recovered_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t fallback_jobs_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t fallback_matmuls_ TZLLM_GUARDED_BY(mu_) = 0;
  BackendTicket next_ticket_ TZLLM_GUARDED_BY(mu_) = 1;
  std::deque<Pending> pending_ TZLLM_GUARDED_BY(mu_);
  SimDuration await_stall_time_ TZLLM_GUARDED_BY(mu_) = 0;
  bool host_mark_valid_ TZLLM_GUARDED_BY(mu_) = false;
  std::chrono::steady_clock::time_point host_mark_ TZLLM_GUARDED_BY(mu_);
};

}  // namespace tzllm

#endif  // SRC_LLM_BACKEND_BACKEND_H_

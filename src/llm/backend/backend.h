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
// Both calls are synchronous: when MatMatGroup or LayerTail returns, every
// output row is written (or the call failed) and no work is left in flight.
// The NPU path is zero-copy: a job's pinned input *is* the caller's
// activation buffer, which stays untouched for the duration of the call.
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
#include <functional>
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
// pointers are caller-owned workspace for the chunk; `acts` is
// requantization scratch the chain reuses (it may alias the x_attn object
// passed alongside — the Wo matmul consumes x_attn before the first
// requantization overwrites it).
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
// order.
void RunLayerTail(const LayerTailOp& op, const Q8Acts& x_attn,
                  const KernelDispatch* kernels, ThreadPool* pool);

class ComputeBackend {
 public:
  virtual ~ComputeBackend() = default;

  virtual const char* name() const = 0;

  // Matmul group over pre-quantized activations `x` shared by every member
  // op; returns once every op's output rows are written.
  virtual Status MatMatGroup(const MatMatOp* ops, int n, const Q8Acts& x) = 0;

  // Fused post-attention layer segment (see LayerTailOp). `x_attn` is the
  // chunk's quantized attention output.
  virtual Status LayerTail(const LayerTailOp& op, const Q8Acts& x_attn) = 0;
};

// The CPU path: quantized integer-dot kernels on the thread pool, inner
// loops through the SIMD table the engine resolved at construction.
class CpuBackend : public ComputeBackend {
 public:
  // `pool` (optional) and `kernels` (nullptr = process-wide table) are owned
  // by the caller and must outlive the backend.
  CpuBackend(ThreadPool* pool, const KernelDispatch* kernels)
      : pool_(pool), kernels_(kernels) {}

  const char* name() const override { return "cpu"; }
  Status MatMatGroup(const MatMatOp* ops, int n, const Q8Acts& x) override;
  Status LayerTail(const LayerTailOp& op, const Q8Acts& x_attn) override;

 private:
  ThreadPool* pool_;
  const KernelDispatch* kernels_;
};

// Wiring for the secure NPU prefill path. All pointers are non-owning and
// must outlive the backend.
struct NpuBackendConfig {
  SocPlatform* platform = nullptr;
  TeeNpuDriver* driver = nullptr;
  int ta = -1;  // TaId owning the job execution context.
  // Window inside the TA's TZASC-protected scratch region hosting the job
  // execution context (command stream, I/O page table, in/out buffers).
  // Must be at least ContextBytes(spec, options) long; the co-driver rejects
  // jobs whose context falls outside the TA's protected regions.
  PhysAddr ctx_base = 0;
  uint64_t ctx_bytes = 0;
  // Kernel table for the functional job payloads — pass the engine's own
  // KernelsFor(options) so the offloaded chain (matmuls AND the layer
  // tail's norm/silu glue) computes bit-identically to the CPU path.
  // nullptr = the frozen scalar table.
  const KernelDispatch* kernels = nullptr;
  // Per-job wait deadline on the virtual clock (EngineOptions::
  // npu_job_timeout). Non-positive values are rejected at submit with
  // InvalidArgument — zero would mean "wait forever", which a lost job
  // turns into a hang.
  SimDuration job_timeout = 2000 * kMillisecond;
  // Recovery policy for a job that failed or timed out once submitted
  // (a refusal at submit fails closed instead): bounded resubmissions
  // (each after retry_backoff of virtual time, so the makespan metric
  // stays honest), then — when cpu_fallback — the job's matmul group is
  // re-executed on the CPU path and the prefill continues. Both paths run
  // the same kernel-table helpers the NPU payload would have, so recovery
  // never changes a logit. cpu_fallback=false surfaces the final Status.
  // The TA runs these defaults; outcomes are counted once, by
  // TeeNpuDriver::RecordRecovery.
  int max_retries = 2;
  SimDuration retry_backoff = 1 * kMillisecond;
  bool cpu_fallback = true;
};

// Packages prefill work as secure NPU jobs: one *fused* job per matmul
// group or layer tail (buffers pinned inside the TA's TZASC regions, every
// sub-buffer validated by the co-driver, duration priced by
// CostModel::NpuFusedJobTime, functional payload the shared host helpers
// over the engine's kernel table for bit-exact results). Each call runs
// exactly one job through one execution context: submit through
// TeeNpuDriver::SubmitJob, then WaitForJob.
//
// Hybrid timeline: the host CPU's measured wall time between backend calls
// is charged to the simulator clock, so the virtual prefill makespan
// composes real CPU segments with modeled NPU job execution — the number
// that answers "what would this take on the real SoC", and the one the
// bench reports for the offloaded path.
//
// Locking: mu_ guards the hybrid-timeline host mark and every statistic.
// Critical sections are leaf-only: WaitForJob and the hybrid-timeline
// advance DRIVE THE SIMULATOR (running arbitrary completion chains on this
// stack), and a driver submit runs the whole SMC round trip — none of it
// ever under mu_.
class NpuBackend : public ComputeBackend {
 public:
  // Scratch bytes the TA must budget (and protect) for the job execution
  // context of chunks up to options.prefill_batch positions of `spec` —
  // what config.ctx_bytes must be computed with. Sized for the largest
  // fused job (a layer tail touches in + hiddens + gate/up scratch + out).
  static uint64_t ContextBytes(const ModelSpec& spec,
                               const EngineOptions& options);

  explicit NpuBackend(const NpuBackendConfig& config);

  const char* name() const override { return "npu"; }
  Status MatMatGroup(const MatMatOp* ops, int n, const Q8Acts& x) override
      TZLLM_EXCLUDES(mu_);
  Status LayerTail(const LayerTailOp& op, const Q8Acts& x_attn) override
      TZLLM_EXCLUDES(mu_);

  uint64_t jobs_submitted() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return jobs_submitted_;
  }
  uint64_t matmuls_submitted() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return matmuls_submitted_;
  }
  // Virtual time the caller spent blocked in WaitForJob (recovery
  // included): the modeled NPU work the CPU waited out.
  SimDuration await_stall_time() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return await_stall_time_;
  }

 private:
  // Charges host wall time since the last backend call to the virtual
  // clock, running any NPU/protocol events that fall inside the segment.
  // EXCLUDES(mu_): driving the simulator runs completion chains on this
  // stack.
  void AdvanceHostTime() TZLLM_EXCLUDES(mu_);
  void MarkHostTime() TZLLM_EXCLUDES(mu_);
  // Runs one fused job to completion: submit, WaitForJob, and on a failure
  // seen at wait time up to config_.max_retries resubmissions (each after
  // retry_backoff of virtual time), then — with cpu_fallback — `compute`
  // on the host, bit-identical by construction. A refusal at submit is
  // returned as is.
  Status RunJob(const std::vector<NpuMatmulShape>& shapes, uint64_t in_bytes,
                const std::vector<uint64_t>& out_bytes,
                const std::function<Status()>& compute) TZLLM_EXCLUDES(mu_);
  // Lays the job out in the execution context and submits it; returns the
  // co-driver's job id.
  Result<uint64_t> SubmitJob(const std::vector<NpuMatmulShape>& shapes,
                             uint64_t in_bytes,
                             const std::vector<uint64_t>& out_bytes,
                             const std::function<Status()>& compute)
      TZLLM_EXCLUDES(mu_);

  // Immutable after construction.
  NpuBackendConfig config_;

  mutable Mutex mu_;
  uint64_t jobs_submitted_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t matmuls_submitted_ TZLLM_GUARDED_BY(mu_) = 0;
  SimDuration await_stall_time_ TZLLM_GUARDED_BY(mu_) = 0;
  bool host_mark_valid_ TZLLM_GUARDED_BY(mu_) = false;
  std::chrono::steady_clock::time_point host_mark_ TZLLM_GUARDED_BY(mu_);
};

}  // namespace tzllm

#endif  // SRC_LLM_BACKEND_BACKEND_H_

// TEE NPU driver — the minimal data plane of the co-driver design (§4.3).
//
// Responsibilities (and nothing else — the control plane stays in the REE):
//   * initialize secure-job execution contexts (validated to live inside the
//     TA's TZASC regions),
//   * pair each secure job with a shadow job in the REE scheduling queue,
//   * on takeover: validate the job (initialized-but-not-launched, monotonic
//     sequence number), switch the NPU to secure mode in the paper's exact
//     order (TZPC+GIC first, drain non-secure work, then TZASC grant),
//     launch, and on the secure completion interrupt revert and notify.
//
// The driver runs as a *user-mode* TEE component (paper "Minimal TCB"): it
// only ever touches the NPU MMIO window and the job execution contexts; the
// TEE OS brokers all TZASC changes through region indices the driver cannot
// widen.
//
// Locking: mu_ guards the job table, the issue/execution sequence state and
// every statistic counter — the shared mutable surface the multi-session
// serving work will hit from concurrent session steps. Critical sections are
// leaf-only (thread_annotations.h): the SMC fabric re-enters this driver
// synchronously on ONE call stack (IssueJob -> REE ScheduleNext ->
// OnTakeover), so no platform/simulator/RPC call and no completion callback
// ever runs under mu_. Clang's -Wthread-safety proves the discipline on
// every path.

#ifndef SRC_TEE_NPU_DRIVER_H_
#define SRC_TEE_NPU_DRIVER_H_

#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>

#include "src/common/calibration.h"
#include "src/common/fault_plan.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/hw/platform.h"
#include "src/tee/tee_os.h"

namespace tzllm {

class TeeNpuDriver {
 public:
  TeeNpuDriver(SocPlatform* platform, TeeOs* tee_os);

  // Installs the kNpuTakeover smc handler and the secure interrupt handler.
  void Init();

  // --- TA-facing API. ---
  // Validates and registers a secure job. The execution context (command
  // stream, I/O page table, buffers) must lie inside the TA's protected
  // TZASC regions; `ta` must own them. Returns the job id.
  Result<uint64_t> CreateJob(TaId ta, const NpuJobDesc& desc)
      TZLLM_EXCLUDES(mu_);

  // Assigns the next monotonic sequence number and enqueues the paired
  // shadow job in the REE driver. `on_complete` fires when the secure job
  // finishes (or fails validation at takeover time).
  Status IssueJob(uint64_t job_id, std::function<void(Status)> on_complete)
      TZLLM_EXCLUDES(mu_);

  // Convenience: create + issue.
  Result<uint64_t> SubmitJob(TaId ta, const NpuJobDesc& desc,
                             std::function<void(Status)> on_complete)
      TZLLM_EXCLUDES(mu_);

  // Synchronous-wait helper for TA-side callers that need a job's result
  // before proceeding (the NPU prefill backend): drives the simulator until
  // the job's completion path has fired, then returns the job's completion
  // status — which carries the functional payload's failure, if any, read
  // from the device's job-status register at the completion interrupt.
  // CONSUME-ONCE: the bookkeeping entry is erased once the wait resolves
  // (so a streaming TA doesn't grow the job map without bound) — a second
  // wait on the same id returns NotFound. Fails with kInternal if the
  // simulator drains first (a job that can never complete — e.g. its shadow
  // never reached the queue head), or with kDeadlineExceeded if `timeout`
  // (> 0) of virtual time elapses without completion; in both cases the
  // abandoned job's payload is neutralized — including the copy a LAUNCHED
  // job's device already captured, via the NPU's MMIO abort — so it can
  // never fire into caller memory the caller has since reclaimed.
  Status WaitForJob(uint64_t job_id, SimDuration timeout = 0)
      TZLLM_EXCLUDES(mu_);

  // --- Deterministic fault injection (recovery tests, CI fault sweep). ---
  // Arms `plan` (src/common/fault_plan.h) against jobs issued from now on:
  // ordinals restart at 1, the ctx and submit classes act here, and the
  // plan is forwarded to the NPU device for payload and timeout. Arming
  // the inactive plan disarms everything.
  void ArmFaultPlan(const FaultPlan& plan) TZLLM_EXCLUDES(mu_);

  // Degradation accounting for the recovery layer. The NPU prefill backend
  // reports its per-job recovery outcomes here, and only here, so one stats
  // surface (this driver — what the benches and the crosscheck read)
  // carries the whole fault story: injected faults, abandoned jobs,
  // retried-to-success jobs and CPU-fallback re-executions.
  void RecordRecovery(uint64_t recovered_jobs, uint64_t fallback_jobs,
                      uint64_t fallback_matmuls) TZLLM_EXCLUDES(mu_);

  // --- Statistics (§7.3 breakdown; per-job figures for the bench). ---
  // Each getter takes mu_: a metrics scrape may read these while the
  // driver mutates them on the completion path.
  uint64_t jobs_created() const TZLLM_EXCLUDES(mu_);
  uint64_t secure_jobs_completed() const TZLLM_EXCLUDES(mu_);
  uint64_t validation_failures() const TZLLM_EXCLUDES(mu_);
  SimDuration total_config_time() const TZLLM_EXCLUDES(mu_);
  SimDuration total_smc_time() const TZLLM_EXCLUDES(mu_);
  // Sum of completed jobs' modeled NPU execution time (desc.duration plus
  // the per-launch doorbell overhead) — what the bench divides by job count
  // to report per-job co-driver overhead next to per-job useful work.
  SimDuration total_job_npu_time() const TZLLM_EXCLUDES(mu_);
  // Matmuls carried by completed jobs (NpuJobDesc::matmuls): divided by
  // secure_jobs_completed() this is the average fused-group size, the
  // number the job-fusion work is judged on.
  uint64_t total_matmuls_completed() const TZLLM_EXCLUDES(mu_);
  // MEASURED per-job world-switch overhead, as opposed to the
  // PerJobSwitchCost() model: virtual time actually elapsed on the secure
  // entry path (takeover smc -> launch, including any non-secure drain
  // polling) plus the exit path (completion interrupt -> shadow-complete
  // handed back). Equals the model when the device never needs draining;
  // exceeds it under contention — the bench reports both so the model is
  // validated against the protocol's real behavior.
  SimDuration total_measured_switch_time() const TZLLM_EXCLUDES(mu_);
  // Jobs whose functional payload reported a failure through the device's
  // job-status register (propagated to the waiter's completion status).
  uint64_t payload_failures() const TZLLM_EXCLUDES(mu_);
  // Jobs a waiter gave up on (timeout or drained simulator): payload
  // neutralized, sequence hole closed so successors still execute.
  uint64_t jobs_abandoned() const TZLLM_EXCLUDES(mu_);
  // Faults the armed plan injected (driver-visible classes plus whatever
  // the device injected for the same plan).
  uint64_t faults_injected() const TZLLM_EXCLUDES(mu_);
  // Recovery outcomes reported by the prefill backend (RecordRecovery):
  // jobs that failed at least once and then completed on the NPU via retry,
  // and jobs re-executed on the CPU after retries were exhausted.
  uint64_t jobs_recovered() const TZLLM_EXCLUDES(mu_);
  uint64_t fallback_jobs() const TZLLM_EXCLUDES(mu_);
  uint64_t fallback_matmuls() const TZLLM_EXCLUDES(mu_);

  // Per-secure-job fixed cost on the NPU timeline: world-switch smcs plus
  // TZPC/GIC/TZASC reprogramming in both directions.
  static constexpr SimDuration PerJobSwitchCost() {
    // takeover smc + enqueue RPC + complete RPC.
    return 3 * kSmcRoundTrip +
           // secure entry: TZPC + GIC + param/scratch TZASC grants.
           (kTzpcConfigTime + kGicRouteTime + 2 * kTzascConfigTime) +
           // secure exit: revoke in reverse.
           (kTzpcConfigTime + kGicRouteTime + 2 * kTzascConfigTime);
  }

 private:
  enum class JobState : uint8_t {
    kInitialized,
    kIssued,
    kLaunched,
    kCompleted,
  };

  struct SecureJob {
    NpuJobDesc desc;
    JobState state = JobState::kInitialized;
    uint64_t seq = 0;  // Monotonic issue sequence number.
    std::function<void(Status)> on_complete;
    // Set when the completion path has fully run (including the exit-side
    // world switch) — the condition WaitForJob spins the simulator on.
    bool finished = false;
    Status completion_status;
    // Virtual timestamps for the measured (not modeled) per-job switch
    // overhead: takeover smc arrival and secure launch.
    SimTime takeover_at = 0;
    SimTime launched_at = 0;
    // Set when a waiter timed out and the driver aborted the job: its
    // completion then carries the abort status, which is not a *payload*
    // failure (no payload ever ran).
    bool abandoned = false;
  };

  // smc kNpuTakeover entry: REE control plane hands over the NPU.
  SmcResult OnTakeover(const SmcArgs& args) TZLLM_EXCLUDES(mu_);
  Status ValidateTakeoverLocked(uint64_t job_id) const TZLLM_REQUIRES(mu_);
  void EnterSecureModeAndLaunch(uint64_t job_id) TZLLM_EXCLUDES(mu_);
  void OnSecureCompletion() TZLLM_EXCLUDES(mu_);
  // Failure retirement shared by the takeover and launch paths: record the
  // error on the job, drop the payload, revert the world switch (TZASC
  // grants only if they were applied), release the shadow, fire the
  // callback. EXCLUDES(mu_): the shadow-complete RPC re-enters the REE
  // scheduler, which may immediately issue the next takeover back into us.
  void RetireFailedJob(uint64_t job_id, const Status& st, bool revert_tzasc)
      TZLLM_EXCLUDES(mu_);
  // Records an issued-but-never-executed job's sequence number as dead and
  // advances next_exec_seq_ over every contiguous dead hole. Without this an
  // abandoned job would wedge the reorder defense: every later takeover
  // arrives with seq != next_exec_seq_ forever.
  void MarkSeqDeadLocked(uint64_t seq) TZLLM_REQUIRES(mu_);
  // 1-based fault ordinal of an issued job under the armed plan (ordinals
  // restart when the plan is armed).
  uint64_t FaultOrdinalLocked(uint64_t seq) const TZLLM_REQUIRES(mu_) {
    return seq > fault_seq_base_ ? seq - fault_seq_base_ : 0;
  }

  SocPlatform* platform_;
  TeeOs* tee_os_;

  mutable Mutex mu_;
  std::unordered_map<uint64_t, SecureJob> jobs_ TZLLM_GUARDED_BY(mu_);
  uint64_t next_job_id_ TZLLM_GUARDED_BY(mu_) = 1;
  uint64_t next_issue_seq_ TZLLM_GUARDED_BY(mu_) = 1;
  // Expected execution order (anti-reorder).
  uint64_t next_exec_seq_ TZLLM_GUARDED_BY(mu_) = 1;
  // Sequence numbers of issued jobs retired without executing (abandoned,
  // or their takeover was rejected and the waiter gave up); next_exec_seq_
  // skips over contiguous dead prefixes so the queue keeps moving.
  std::set<uint64_t> dead_seqs_ TZLLM_GUARDED_BY(mu_);
  uint64_t running_job_ TZLLM_GUARDED_BY(mu_) = 0;  // 0 = none.
  uint64_t secure_jobs_completed_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t validation_failures_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t total_matmuls_completed_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t payload_failures_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t jobs_abandoned_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t jobs_recovered_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t fallback_jobs_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t fallback_matmuls_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t injected_faults_ TZLLM_GUARDED_BY(mu_) = 0;
  FaultPlan fault_plan_ TZLLM_GUARDED_BY(mu_);
  // Issue seq when the plan was armed.
  uint64_t fault_seq_base_ TZLLM_GUARDED_BY(mu_) = 0;
  SimDuration total_config_time_ TZLLM_GUARDED_BY(mu_) = 0;
  SimDuration total_smc_time_ TZLLM_GUARDED_BY(mu_) = 0;
  SimDuration total_job_npu_time_ TZLLM_GUARDED_BY(mu_) = 0;
  SimDuration total_measured_switch_time_ TZLLM_GUARDED_BY(mu_) = 0;
};

}  // namespace tzllm

#endif  // SRC_TEE_NPU_DRIVER_H_

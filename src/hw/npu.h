// NPU device model (Rockchip RK3588-like: 3 cores, up to 6 TOPS).
//
// The device exposes exactly the data-plane surface the paper's co-driver
// design depends on (§4.3): an MMIO launch doorbell (gated by the TZPC), DMA
// transactions for the job's execution context (gated by the TZASC, with the
// NPU's own DeviceId), and a completion interrupt (routed by the GIC). All
// three checks are live: a mis-sequenced world switch produces a real fault
// or a real leak opportunity that the security tests probe for.

#ifndef SRC_HW_NPU_H_
#define SRC_HW_NPU_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/fault_plan.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"
#include "src/hw/gic.h"
#include "src/hw/tzasc.h"
#include "src/hw/tzpc.h"
#include "src/sim/simulator.h"

namespace tzllm {

// Shape of one matmul inside a (possibly fused) NPU job: an m-position
// batch over a rows x cols weight. Carried on the job descriptor so the
// driver layer can account fused-group sizes and the cost model can price a
// multi-matmul job as the sum of its members.
struct NpuMatmulShape {
  uint64_t rows = 0;
  uint64_t cols = 0;
  int m = 0;
};

// Execution context of one NPU job, all in physical memory (paper Figure 8:
// register commands, I/O page table, input/output buffers).
//
// A job may carry a whole fused matmul group (one command stream issuing
// several matmuls plus their elementwise glue) — `matmuls` lists the member
// shapes, `buffers` every sub-buffer the fused group will DMA. This is the
// multi-matmul execution-context format the co-driver validates and the
// fused NPU prefill path batches per transformer layer.
struct NpuJobDesc {
  PhysAddr cmd_addr = 0;   // Register command stream ("NPU job code").
  uint64_t cmd_size = 0;
  PhysAddr iopt_addr = 0;  // I/O page table root.
  uint64_t iopt_size = 0;
  // Input and output buffers the job will DMA.
  std::vector<std::pair<PhysAddr, uint64_t>> buffers;
  // Matmuls fused into this job (empty for non-matmul / purely modeled
  // jobs). Stats only — execution is `compute` + `duration`.
  std::vector<NpuMatmulShape> matmuls;
  // Modeled execution time on the NPU.
  SimDuration duration = 0;
  // Optional functional payload executed at completion (reads inputs /
  // writes outputs through DRAM); null in simulated mode.
  std::function<Status()> compute;
};

// Locking: mu_ guards the device's register file — busy/stall/abort state,
// the latched job-status register, the armed fault plan and every counter.
// Critical sections are leaf-only: raising the completion interrupt re-enters
// the owning driver (which immediately reads this device's registers back),
// and the TZPC/TZASC gate checks are other components' state — none of it
// runs under mu_.
class NpuDevice {
 public:
  NpuDevice(Simulator* sim, Tzasc* tzasc, Tzpc* tzpc, Gic* gic);

  // MMIO doorbell: validates TZPC (caller world vs device security state),
  // device idle, then all DMA targets against the TZASC. On success the job
  // occupies the device for job.duration and raises kIrqNpu on completion.
  Status MmioLaunch(World caller, const NpuJobDesc& job) TZLLM_EXCLUDES(mu_);

  // MMIO status poll (also TZPC-gated).
  Result<bool> MmioIsBusy(World caller) const TZLLM_EXCLUDES(mu_);

  // MMIO abort doorbell (TZPC-gated): drops the in-flight job's functional
  // payload at the device — the compute stage is reset, though the job
  // still raises its completion interrupt (with a fault latched in the
  // status register). This is what lets a driver abandon a LAUNCHED job on
  // timeout without leaving a payload armed against caller memory it no
  // longer owns; nulling the driver-side descriptor copy alone cannot
  // reach the copy the device captured at launch. Aborting a *stalled* job
  // (kTimeout fault: no completion was ever scheduled) acts as the device
  // reset: the completion interrupt is raised after a short reset delay, so
  // the driver's exit path runs and the device is reusable.
  Status MmioAbort(World caller) TZLLM_EXCLUDES(mu_);

  // Arms `plan` (src/common/fault_plan.h) and counts secure launches from
  // zero again. Only the device-visible classes, payload and timeout, act
  // here; arming the inactive plan disarms.
  void ArmFaultPlan(const FaultPlan& plan) TZLLM_EXCLUDES(mu_);
  // Secure launches whose behavior the armed plan altered.
  uint64_t faults_injected() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return faults_injected_;
  }

  // MMIO job-status register: completion status of the most recently
  // finished job (a real NPU latches a fault bit; here the functional
  // payload's Status) written into *out. TZPC-gated like every MMIO access,
  // so only the world owning the device can observe a secure job's failure.
  // Read by the TEE driver's completion handler so a failing payload
  // propagates to the waiting TA instead of completing silently.
  Status MmioReadJobStatus(World caller, Status* out) const
      TZLLM_EXCLUDES(mu_);

  bool busy() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return busy_;
  }

  uint64_t jobs_completed() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return jobs_completed_;
  }
  uint64_t launch_rejections() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return launch_rejections_;
  }
  // Functional payloads that returned an error (the device still completes
  // the job — a real NPU raises its interrupt regardless — but tests assert
  // this stays zero so a silently failing payload cannot hide).
  uint64_t compute_failures() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return compute_failures_;
  }
  SimDuration busy_time() const TZLLM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return busy_time_;
  }

 private:
  // Shared tail of a job's life: runs/aborts the payload, latches the
  // status register, clears busy and raises the completion interrupt. The
  // normal path schedules it at launch + duration; the abort-reset path
  // schedules it for a stalled job that never got a completion event.
  // EXCLUDES(mu_): the interrupt re-enters the owning driver, which reads
  // this device's registers back on the same call stack.
  void CompleteJob() TZLLM_EXCLUDES(mu_);

  Simulator* sim_;
  Tzasc* tzasc_;
  Tzpc* tzpc_;
  Gic* gic_;

  mutable Mutex mu_;
  bool busy_ TZLLM_GUARDED_BY(mu_) = false;
  // In-flight payload dropped via MmioAbort.
  bool abort_armed_ TZLLM_GUARDED_BY(mu_) = false;
  // In-flight job stalled by the armed kTimeout fault: no completion event
  // exists until MmioAbort resets the device.
  bool stalled_ TZLLM_GUARDED_BY(mu_) = false;
  uint64_t jobs_completed_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t launch_rejections_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t compute_failures_ TZLLM_GUARDED_BY(mu_) = 0;
  // Fault-plan ordinal counter.
  uint64_t secure_launches_ TZLLM_GUARDED_BY(mu_) = 0;
  uint64_t faults_injected_ TZLLM_GUARDED_BY(mu_) = 0;
  FaultPlan fault_plan_ TZLLM_GUARDED_BY(mu_);
  SimDuration busy_time_ TZLLM_GUARDED_BY(mu_) = 0;
  // Latched at each job completion.
  Status last_job_status_ TZLLM_GUARDED_BY(mu_);
  // The in-flight job's functional payload. Held by the device (not the
  // completion closure) so MmioAbort can actually drop it.
  std::function<Status()> pending_compute_ TZLLM_GUARDED_BY(mu_);
};

}  // namespace tzllm

#endif  // SRC_HW_NPU_H_

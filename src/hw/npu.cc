#include "src/hw/npu.h"

#include "src/common/log.h"
#include "src/hw/types.h"

namespace tzllm {

namespace {

// Reset latency of the abort doorbell when it must revive a stalled device
// (no completion event in flight): small next to the per-job switch cost,
// nonzero so the recovery path still pays real virtual time.
constexpr SimDuration kAbortResetDelay = 10 * kMicrosecond;

}  // namespace

NpuDevice::NpuDevice(Simulator* sim, Tzasc* tzasc, Tzpc* tzpc, Gic* gic)
    : sim_(sim), tzasc_(tzasc), tzpc_(tzpc), gic_(gic) {}

void NpuDevice::ArmFaultPlan(const FaultPlan& plan) {
  MutexLock lock(&mu_);
  fault_plan_ = plan;
  secure_launches_ = 0;
  faults_injected_ = 0;
}

Status NpuDevice::MmioLaunch(World caller, const NpuJobDesc& job) {
  // 1. MMIO gate: while the NPU is TZPC-secure, REE doorbell writes fault.
  // The TZPC/TZASC gate checks are other components' (const) state and run
  // outside mu_.
  Status st = tzpc_->CheckMmio(caller, DeviceId::kNpu);
  if (!st.ok()) {
    MutexLock lock(&mu_);
    ++launch_rejections_;
    return st;
  }
  {
    MutexLock lock(&mu_);
    if (busy_) {
      ++launch_rejections_;
      return FailedPrecondition("NPU busy");
    }
  }

  // 2. DMA gate: every part of the execution context must be reachable by
  // the NPU under the *current* TZASC programming. This is where a job
  // launched before the TEE driver granted region access — or a non-secure
  // job racing a secure window — actually fails.
  auto check = [&](PhysAddr addr, uint64_t len) -> Status {
    if (len == 0) {
      return OkStatus();
    }
    return tzasc_->CheckDmaAccess(DeviceId::kNpu, addr, len);
  };
  st = check(job.cmd_addr, job.cmd_size);
  if (st.ok()) {
    st = check(job.iopt_addr, job.iopt_size);
  }
  for (const auto& [addr, len] : job.buffers) {
    if (!st.ok()) {
      break;
    }
    st = check(addr, len);
  }
  if (!st.ok()) {
    TZLLM_LOG_DEBUG("npu", "DMA check failed: %s", st.ToString().c_str());
    MutexLock lock(&mu_);
    ++launch_rejections_;
    return st;
  }

  bool schedule_completion = true;
  {
    MutexLock lock(&mu_);
    busy_ = true;
    abort_armed_ = false;
    busy_time_ += job.duration;
    // The payload lives on the device, not in the completion closure, so an
    // MmioAbort between launch and completion really drops it.
    pending_compute_ = job.compute;

    // Deterministic fault injection (device-visible classes), counted per
    // secure launch so a retried job occupies the next ordinal.
    const uint64_t ordinal =
        caller == World::kSecure ? ++secure_launches_ : 0;
    if (fault_plan_.Hits(FaultClass::kPayload, ordinal)) {
      ++faults_injected_;
      pending_compute_ = [] {
        return Internal("injected NPU payload fault (fault plan)");
      };
    } else if (fault_plan_.Hits(FaultClass::kTimeout, ordinal)) {
      // The device wedges: launch accepted, no completion event exists.
      // Only the abort doorbell's reset path can revive it.
      ++faults_injected_;
      stalled_ = true;
      schedule_completion = false;
    }
  }

  if (schedule_completion) {
    sim_->Schedule(job.duration, [this] { CompleteJob(); });
  }
  return OkStatus();
}

void NpuDevice::CompleteJob() {
  std::function<Status()> compute;
  bool aborted = false;
  {
    MutexLock lock(&mu_);
    compute = std::move(pending_compute_);
    pending_compute_ = nullptr;
    aborted = abort_armed_;
    abort_armed_ = false;
  }
  // The functional payload executes outside mu_: it is arbitrary caller
  // code (CPU matmuls over DRAM) and must not serialize against MMIO polls.
  Status cst;
  if (aborted) {
    cst = Internal("NPU job aborted via MMIO reset");
  } else if (compute) {
    cst = compute();
    if (!cst.ok()) {
      TZLLM_LOG_WARN("npu", "functional job payload failed: %s",
                     cst.ToString().c_str());
    }
  }
  {
    MutexLock lock(&mu_);
    if (!aborted && !cst.ok()) {
      ++compute_failures_;
    }
    // Latch the job status so the owning driver's completion handler can
    // read it (a real device raises its interrupt either way and reports
    // faults through a status register).
    last_job_status_ = cst;
    busy_ = false;
    ++jobs_completed_;
  }
  // The interrupt re-enters the owning driver, which reads this device's
  // registers back (MmioReadJobStatus, busy()) on this same call stack —
  // raise it with mu_ released.
  gic_->Raise(kIrqNpu);
}

Status NpuDevice::MmioAbort(World caller) {
  TZLLM_RETURN_IF_ERROR(tzpc_->CheckMmio(caller, DeviceId::kNpu));
  bool reset_stalled = false;
  {
    MutexLock lock(&mu_);
    if (!busy_) {
      return OkStatus();
    }
    pending_compute_ = nullptr;
    abort_armed_ = true;
    if (stalled_) {
      // A stalled job has no completion event in flight; the abort doubles
      // as the device reset, raising the (fault-latched) completion
      // interrupt after the reset delay so the driver's exit path frees the
      // device.
      stalled_ = false;
      reset_stalled = true;
    }
  }
  if (reset_stalled) {
    sim_->Schedule(kAbortResetDelay, [this] { CompleteJob(); });
  }
  return OkStatus();
}

Result<bool> NpuDevice::MmioIsBusy(World caller) const {
  TZLLM_RETURN_IF_ERROR(tzpc_->CheckMmio(caller, DeviceId::kNpu));
  MutexLock lock(&mu_);
  return busy_;
}

Status NpuDevice::MmioReadJobStatus(World caller, Status* out) const {
  TZLLM_RETURN_IF_ERROR(tzpc_->CheckMmio(caller, DeviceId::kNpu));
  MutexLock lock(&mu_);
  *out = last_job_status_;
  return OkStatus();
}

}  // namespace tzllm

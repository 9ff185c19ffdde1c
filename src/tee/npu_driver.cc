#include "src/tee/npu_driver.h"

#include <utility>

#include "src/common/log.h"

namespace tzllm {

TeeNpuDriver::TeeNpuDriver(SocPlatform* platform, TeeOs* tee_os)
    : platform_(platform), tee_os_(tee_os) {}

void TeeNpuDriver::Init() {
  platform_->monitor().InstallSecureHandler(
      SmcFunc::kNpuTakeover,
      [this](const SmcArgs& args) { return OnTakeover(args); });
  // Secure completion interrupt: fires while the NPU line is routed to the
  // secure world.
  platform_->gic().RegisterHandler(World::kSecure, kIrqNpu,
                                   [this] { OnSecureCompletion(); });
}

void TeeNpuDriver::ArmFaultPlan(const FaultPlan& plan) {
  {
    MutexLock lock(&mu_);
    fault_plan_ = plan;
    fault_seq_base_ = next_issue_seq_ - 1;
    injected_faults_ = 0;
  }
  // Device-visible classes (payload, timeout) live at the NPU; each layer
  // acts only on its own classes.
  platform_->npu().ArmFaultPlan(plan);
}

void TeeNpuDriver::RecordRecovery(uint64_t recovered_jobs,
                                  uint64_t fallback_jobs,
                                  uint64_t fallback_matmuls) {
  MutexLock lock(&mu_);
  jobs_recovered_ += recovered_jobs;
  fallback_jobs_ += fallback_jobs;
  fallback_matmuls_ += fallback_matmuls;
}

uint64_t TeeNpuDriver::jobs_created() const {
  MutexLock lock(&mu_);
  return next_job_id_ - 1;
}
uint64_t TeeNpuDriver::secure_jobs_completed() const {
  MutexLock lock(&mu_);
  return secure_jobs_completed_;
}
uint64_t TeeNpuDriver::validation_failures() const {
  MutexLock lock(&mu_);
  return validation_failures_;
}
SimDuration TeeNpuDriver::total_config_time() const {
  MutexLock lock(&mu_);
  return total_config_time_;
}
SimDuration TeeNpuDriver::total_smc_time() const {
  MutexLock lock(&mu_);
  return total_smc_time_;
}
SimDuration TeeNpuDriver::total_job_npu_time() const {
  MutexLock lock(&mu_);
  return total_job_npu_time_;
}
uint64_t TeeNpuDriver::total_matmuls_completed() const {
  MutexLock lock(&mu_);
  return total_matmuls_completed_;
}
SimDuration TeeNpuDriver::total_measured_switch_time() const {
  MutexLock lock(&mu_);
  return total_measured_switch_time_;
}
uint64_t TeeNpuDriver::payload_failures() const {
  MutexLock lock(&mu_);
  return payload_failures_;
}
uint64_t TeeNpuDriver::jobs_abandoned() const {
  MutexLock lock(&mu_);
  return jobs_abandoned_;
}
uint64_t TeeNpuDriver::jobs_recovered() const {
  MutexLock lock(&mu_);
  return jobs_recovered_;
}
uint64_t TeeNpuDriver::fallback_jobs() const {
  MutexLock lock(&mu_);
  return fallback_jobs_;
}
uint64_t TeeNpuDriver::fallback_matmuls() const {
  MutexLock lock(&mu_);
  return fallback_matmuls_;
}

uint64_t TeeNpuDriver::faults_injected() const {
  // Leaf-only locking: read the device's counter first, outside mu_.
  const uint64_t device_faults = platform_->npu().faults_injected();
  MutexLock lock(&mu_);
  return injected_faults_ + device_faults;
}

void TeeNpuDriver::MarkSeqDeadLocked(uint64_t seq) {
  dead_seqs_.insert(seq);
  while (!dead_seqs_.empty() && *dead_seqs_.begin() == next_exec_seq_) {
    dead_seqs_.erase(dead_seqs_.begin());
    ++next_exec_seq_;
  }
}

Result<uint64_t> TeeNpuDriver::CreateJob(TaId ta, const NpuJobDesc& desc) {
  // Region containment implies ownership today (one TA per protected
  // region); `ta` stays in the signature for the multi-TA region registry.
  (void)ta;
  // The execution context must be confined to the TA's protected regions:
  // otherwise a compromised TA (or a confused deputy) could point the NPU at
  // other TAs' memory. This is the "TEE OS only allows the NPU to access the
  // execution contexts of secure NPU jobs" property (§4.3 Minimal TCB).
  // The TEE OS region queries are read-only and happen before mu_ is taken.
  auto in_regions = [&](PhysAddr addr, uint64_t len) {
    if (len == 0) {
      return true;
    }
    return tee_os_->InProtectedRegion(SecureRegionId::kParams, addr, len) ||
           tee_os_->InProtectedRegion(SecureRegionId::kScratch, addr, len);
  };
  bool valid = in_regions(desc.cmd_addr, desc.cmd_size) &&
               in_regions(desc.iopt_addr, desc.iopt_size);
  const char* what = "NPU job context outside TA secure regions";
  if (valid) {
    for (const auto& [addr, len] : desc.buffers) {
      if (!in_regions(addr, len)) {
        valid = false;
        what = "NPU job buffer outside TA secure regions";
        break;
      }
    }
  }
  MutexLock lock(&mu_);
  if (!valid) {
    ++validation_failures_;
    return SecurityViolation(what);
  }
  const uint64_t id = next_job_id_++;
  SecureJob job;
  job.desc = desc;
  jobs_.emplace(id, std::move(job));
  return id;
}

Status TeeNpuDriver::IssueJob(uint64_t job_id,
                              std::function<void(Status)> on_complete) {
  bool inject_submit_stall = false;
  {
    MutexLock lock(&mu_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return NotFound("unknown secure NPU job");
    }
    SecureJob& job = it->second;
    if (job.state != JobState::kInitialized) {
      return FailedPrecondition("job already issued");
    }
    job.state = JobState::kIssued;
    job.seq = next_issue_seq_++;
    job.on_complete = std::move(on_complete);

    // Injected post-submit stall: the job is issued but its shadow is lost
    // on the way to the REE queue — no takeover will ever arrive, so the
    // waiter's deadline (and the sequence-hole bookkeeping in WaitForJob's
    // abandon path) is the only way out. Models a dropped RPC / wedged
    // control plane.
    if (fault_plan_.Hits(FaultClass::kSubmit, FaultOrdinalLocked(job.seq))) {
      ++injected_faults_;
      inject_submit_stall = true;
    }
  }
  if (inject_submit_stall) {
    TZLLM_LOG_WARN("tee-npu", "injected post-submit stall on job %llu",
                   static_cast<unsigned long long>(job_id));
    return OkStatus();
  }

  // Pair with a shadow job in the REE scheduling queue. The RPC re-enters
  // this driver on the same call stack when the shadow reaches the queue
  // head (REE ScheduleNext -> kNpuTakeover smc -> OnTakeover), so mu_ must
  // not be held here.
  SmcArgs args;
  args.a[0] = job_id;
  const SmcResult r =
      platform_->monitor().RpcToRee(SmcFunc::kRpcNpuEnqueueShadow, args);
  {
    MutexLock lock(&mu_);
    total_smc_time_ += kSmcRoundTrip;
  }
  return r.status;
}

Result<uint64_t> TeeNpuDriver::SubmitJob(
    TaId ta, const NpuJobDesc& desc, std::function<void(Status)> on_complete) {
  auto id = CreateJob(ta, desc);
  if (!id.ok()) {
    return id.status();
  }
  TZLLM_RETURN_IF_ERROR(IssueJob(*id, std::move(on_complete)));
  return *id;
}

Status TeeNpuDriver::WaitForJob(uint64_t job_id, SimDuration timeout) {
  bool finished = false;
  {
    MutexLock lock(&mu_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return NotFound("unknown secure NPU job");
    }
    finished = it->second.finished;
  }
  if (!finished) {
    // Everything between issue and completion — shadow-queue scheduling,
    // takeover smc, world switches, the NPU execution itself and the exit
    // path — is simulator events; drive them until this job retires (or the
    // virtual deadline passes: a busy simulator must not let a lost job
    // spin the waiter forever). The predicate runs between events, so
    // taking mu_ inside it nests no locks.
    const SimTime deadline =
        timeout > 0 ? platform_->sim().Now() + timeout : 0;
    platform_->sim().RunUntilIdleOr([this, job_id, deadline] {
      const SimTime now = platform_->sim().Now();
      MutexLock lock(&mu_);
      auto jt = jobs_.find(job_id);
      if (jt == jobs_.end() || jt->second.finished) {
        return true;
      }
      return deadline != 0 && now >= deadline;
    });
    bool settled = false;
    bool need_abort = false;
    {
      MutexLock lock(&mu_);
      auto it = jobs_.find(job_id);
      if (it != jobs_.end() && it->second.finished) {
        settled = true;
      } else if (it != jobs_.end()) {
        // The caller is abandoning the job: neutralize its payload and
        // callback so a later revival of the stuck shadow cannot write
        // through pointers whose owner is gone. The entry itself stays —
        // the replay/reorder sequencing defenses still account for it.
        SecureJob& job = it->second;
        if (job.state == JobState::kLaunched && running_job_ == job_id) {
          // Already launched: the device captured its own payload copy at
          // MmioLaunch, so nulling our descriptor is not enough — abort
          // the device's compute stage below, once mu_ is dropped (the NPU
          // is still secure while its job runs, so the MMIO write passes
          // the TZPC gate). For a stalled device the abort doubles as the
          // reset that finally raises the completion interrupt, so the
          // exit path still runs and the device is reusable by the
          // caller's retry.
          need_abort = true;
        } else if (job.state == JobState::kIssued &&
                   running_job_ != job_id && job.seq >= next_exec_seq_) {
          // Issued but never taken over (lost shadow, or its takeover was
          // rejected): close its execution-sequence hole so successors'
          // takeovers aren't rejected as reorders forever, and spend its
          // window so a late takeover for it dies as a replay.
          job.state = JobState::kCompleted;
          MarkSeqDeadLocked(job.seq);
        }
        job.abandoned = true;
        job.desc.compute = nullptr;
        job.on_complete = nullptr;
        ++jobs_abandoned_;
      }
    }
    if (!settled) {
      if (need_abort) {
        // Best-effort device abort; failure leaves the payload dropped
        // driver-side either way.
        (void)platform_->npu().MmioAbort(World::kSecure);
      }
      if (deadline != 0 && platform_->sim().Now() >= deadline) {
        return DeadlineExceeded(
            "secure NPU job did not complete within the wait timeout");
      }
      return Internal(
          "simulator drained before secure NPU job completion (takeover "
          "rejected, or the shadow job never reached the queue head?)");
    }
  }
  // The status is consumed; drop the bookkeeping entry so a TA streaming
  // thousands of jobs (NPU prefill) doesn't grow the map without bound. A
  // replayed takeover for the erased id still dies in ValidateTakeover —
  // as an unknown-job (arbitrary-launch) violation instead of a replay.
  MutexLock lock(&mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return NotFound("unknown secure NPU job");
  }
  const Status status = it->second.completion_status;
  jobs_.erase(it);
  return status;
}

Status TeeNpuDriver::ValidateTakeoverLocked(uint64_t job_id) const {
  auto it = jobs_.find(job_id);
  // Arbitrary-launch defense: the job must exist and have been initialized
  // by the TA through CreateJob.
  if (it == jobs_.end()) {
    return SecurityViolation("takeover for unknown job (arbitrary launch?)");
  }
  const SecureJob& job = it->second;
  // Replay defense: issued exactly once, not yet launched.
  if (job.state != JobState::kIssued) {
    return SecurityViolation("takeover replay / double launch rejected");
  }
  // Reorder defense: monotonic sequence check.
  if (job.seq != next_exec_seq_) {
    return SecurityViolation("takeover out of issue order rejected");
  }
  if (running_job_ != 0) {
    return FailedPrecondition("secure job already running");
  }
  return OkStatus();
}

SmcResult TeeNpuDriver::OnTakeover(const SmcArgs& args) {
  const uint64_t job_id = args.a[0];
  const SimTime now = platform_->sim().Now();
  enum class Outcome : uint8_t { kReject, kCtxFault, kProceed };
  Outcome outcome = Outcome::kProceed;
  Status st;
  std::function<void(Status)> cb;
  {
    MutexLock lock(&mu_);
    total_smc_time_ += kSmcRoundTrip;
    st = ValidateTakeoverLocked(job_id);
    if (!st.ok()) {
      ++validation_failures_;
      outcome = Outcome::kReject;
    } else {
      SecureJob& job = jobs_[job_id];
      if (fault_plan_.Hits(FaultClass::kContext,
                           FaultOrdinalLocked(job.seq))) {
        // Injected context-validation fault: an otherwise-valid takeover is
        // rejected as if the job's execution context failed revalidation at
        // the secure boundary. Toward the REE this is exactly a real
        // validation failure (error SmcResult — the control plane drops the
        // shadow and keeps scheduling; no world switch was applied yet, so
        // there is nothing to revert and no shadow-complete RPC to
        // double-release). Unlike a real one, the job is retired finished
        // so its waiter reads a clean SecurityViolation, and its sequence
        // window is spent so successors' takeovers still validate.
        ++injected_faults_;
        ++validation_failures_;
        st = SecurityViolation("injected context-validation fault");
        job.state = JobState::kCompleted;
        job.finished = true;
        job.completion_status = st;
        job.desc.compute = nullptr;
        MarkSeqDeadLocked(job.seq);
        cb = std::move(job.on_complete);
        job.on_complete = nullptr;
        outcome = Outcome::kCtxFault;
      } else {
        // The job stays kIssued until the doorbell actually rings: a
        // drained non-secure job's completion interrupt (now routed to the
        // secure world) must not be mistaken for the secure job's
        // completion.
        ++next_exec_seq_;
        running_job_ = job_id;
        job.takeover_at = now;
      }
    }
  }
  if (outcome == Outcome::kReject) {
    TZLLM_LOG_WARN("tee-npu", "takeover validation failed: %s",
                   st.ToString().c_str());
    return SmcResult{std::move(st), {}};
  }
  if (outcome == Outcome::kCtxFault) {
    if (cb) {
      cb(st);
    }
    return SmcResult{std::move(st), {}};
  }

  // Secure-mode entry, in the paper's mandated order:
  //  (1) TZPC: isolate the NPU MMIO from the REE; GIC: route its interrupt
  //      to the secure world. From here no *new* non-secure job can launch.
  Tzpc& tzpc = platform_->tzpc();
  Gic& gic = platform_->gic();
  Status hw = tzpc.SetSecure(World::kSecure, DeviceId::kNpu, true);
  if (hw.ok()) {
    hw = gic.Route(World::kSecure, kIrqNpu, World::kSecure);
  }
  if (!hw.ok()) {
    // The job can never launch now (its takeover window is spent); retire it
    // with the real error so a waiting TA sees the hardware failure instead
    // of WaitForJob's drained-simulator fallback. No TZASC grant was applied
    // yet. (Both hw calls always succeed from the secure world today; this
    // is defensive completeness.)
    RetireFailedJob(job_id, hw, /*revert_tzasc=*/false);
    return SmcResult{std::move(hw), {}};
  }
  {
    MutexLock lock(&mu_);
    total_config_time_ += kTzpcConfigTime + kGicRouteTime;
  }

  //  (2) Drain: wait for any previously launched non-secure job to finish
  //      before granting secure-memory access. Modeled as a poll loop.
  //  (3) TZASC grant + launch happen in EnterSecureModeAndLaunch.
  // The smc world switch and register writes take real (virtual) time.
  const SimDuration entry_delay =
      kSmcRoundTrip + kTzpcConfigTime + kGicRouteTime + 2 * kTzascConfigTime;
  platform_->sim().Schedule(entry_delay, [this, job_id] {
    EnterSecureModeAndLaunch(job_id);
  });
  return SmcResult{OkStatus(), {}};
}

void TeeNpuDriver::EnterSecureModeAndLaunch(uint64_t job_id) {
  if (platform_->npu().busy()) {
    // A non-secure job launched before the TZPC flip is still running; poll
    // until it drains. Its completion interrupt is now routed to the secure
    // world, so we also re-raise it to the REE handler semantics by simply
    // waiting: the REE driver sees completion via the shadow-complete path.
    platform_->sim().Schedule(10 * kMicrosecond,
                              [this, job_id] {
                                EnterSecureModeAndLaunch(job_id);
                              });
    return;
  }
  Tzasc& tzasc = platform_->tzasc();
  // Grant the NPU DMA access to the TA's two data regions.
  Status st = tzasc.SetDmaPermission(World::kSecure, kTzascIndexParams,
                                     DeviceId::kNpu, true);
  if (st.ok()) {
    st = tzasc.SetDmaPermission(World::kSecure, kTzascIndexScratch,
                                DeviceId::kNpu, true);
  }

  NpuJobDesc desc;
  {
    MutexLock lock(&mu_);
    total_config_time_ += 2 * kTzascConfigTime;
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return;  // Defensive: the entry outlives every launch path today.
    }
    if (st.ok()) {
      desc = it->second.desc;
    }
  }
  if (st.ok()) {
    // The MMIO doorbell is rung without mu_ held (device model, TZASC
    // checks); the descriptor copy above is the launch snapshot.
    desc.duration += kNpuJobLaunchOverhead;
    st = platform_->npu().MmioLaunch(World::kSecure, desc);
    if (st.ok()) {
      const SimTime launched_at = platform_->sim().Now();
      MutexLock lock(&mu_);
      auto it = jobs_.find(job_id);
      if (it != jobs_.end()) {
        SecureJob& job = it->second;
        job.state = JobState::kLaunched;
        // Entry-side measured switch time: takeover smc arrival to secure
        // launch, drain polls included (vs the PerJobSwitchCost model,
        // which assumes an idle device).
        job.launched_at = launched_at;
        total_measured_switch_time_ +=
            kSmcRoundTrip + (launched_at - job.takeover_at);
      }
    }
  }
  if (!st.ok()) {
    TZLLM_LOG_WARN("tee-npu", "secure launch failed: %s",
                   st.ToString().c_str());
    RetireFailedJob(job_id, st, /*revert_tzasc=*/true);
  }
}

void TeeNpuDriver::RetireFailedJob(uint64_t job_id, const Status& st,
                                   bool revert_tzasc) {
  std::function<void(Status)> cb;
  {
    MutexLock lock(&mu_);
    auto it = jobs_.find(job_id);
    if (it != jobs_.end()) {
      SecureJob& job = it->second;
      job.state = JobState::kCompleted;
      job.completion_status = st;
      job.finished = true;
      job.desc.compute = nullptr;  // Release the functional payload.
      cb = std::move(job.on_complete);
      job.on_complete = nullptr;
    }
    running_job_ = 0;
  }
  // Revert to non-secure mode (in reverse order of application) and release
  // the shadow job so the REE scheduling queue proceeds. The reverts and
  // the RPC (which re-enters the REE scheduler and possibly this driver)
  // run outside mu_.
  if (revert_tzasc) {
    Tzasc& tzasc = platform_->tzasc();
    (void)tzasc.SetDmaPermission(World::kSecure, kTzascIndexParams,
                                 DeviceId::kNpu, false);
    (void)tzasc.SetDmaPermission(World::kSecure, kTzascIndexScratch,
                                 DeviceId::kNpu, false);
  }
  (void)platform_->gic().Route(World::kSecure, kIrqNpu, World::kNonSecure);
  (void)platform_->tzpc().SetSecure(World::kSecure, DeviceId::kNpu, false);
  SmcArgs args;
  args.a[0] = job_id;
  platform_->monitor().RpcToRee(SmcFunc::kRpcNpuShadowComplete, args);
  if (cb) {
    cb(st);
  }
}

void TeeNpuDriver::OnSecureCompletion() {
  uint64_t job_id = 0;
  bool abandoned = false;
  {
    MutexLock lock(&mu_);
    if (running_job_ == 0) {
      return;  // Spurious: e.g. a drained non-secure job's completion.
    }
    auto it = jobs_.find(running_job_);
    if (it == jobs_.end() || it->second.state != JobState::kLaunched) {
      return;  // Spurious.
    }
    job_id = running_job_;
    running_job_ = 0;
    SecureJob& job = it->second;
    job.state = JobState::kCompleted;
    ++secure_jobs_completed_;
    total_job_npu_time_ += job.desc.duration + kNpuJobLaunchOverhead;
    total_matmuls_completed_ += job.desc.matmuls.size();
    abandoned = job.abandoned;
  }

  // The device latches the job's fault state in its status register; read
  // it while the MMIO window is still secure so a failing functional
  // payload propagates to the waiter instead of completing silently.
  Status payload_status;
  (void)platform_->npu().MmioReadJobStatus(World::kSecure, &payload_status);
  if (!payload_status.ok() && !abandoned) {
    // A driver-initiated abort also latches an error in the status
    // register, but no payload ran — only genuine payload faults count.
    MutexLock lock(&mu_);
    ++payload_failures_;
  }
  const SimTime irq_at = platform_->sim().Now();

  // Secure-mode exit: revoke TZASC grants, re-route the interrupt, return
  // the MMIO window to the REE, then tell the control plane.
  Tzasc& tzasc = platform_->tzasc();
  (void)tzasc.SetDmaPermission(World::kSecure, kTzascIndexParams,
                               DeviceId::kNpu, false);
  (void)tzasc.SetDmaPermission(World::kSecure, kTzascIndexScratch,
                               DeviceId::kNpu, false);
  (void)platform_->gic().Route(World::kSecure, kIrqNpu, World::kNonSecure);
  (void)platform_->tzpc().SetSecure(World::kSecure, DeviceId::kNpu, false);
  {
    MutexLock lock(&mu_);
    total_config_time_ +=
        2 * kTzascConfigTime + kGicRouteTime + kTzpcConfigTime;
  }

  // The reverse reprogramming plus the shadow-complete and next-enqueue smc
  // round trips cost real time before the control plane (and the TA's
  // completion path) proceed.
  const SimDuration exit_delay =
      2 * kTzascConfigTime + kGicRouteTime + kTzpcConfigTime +
      2 * kSmcRoundTrip;
  platform_->sim().Schedule(exit_delay, [this, job_id, irq_at,
                                         payload_status] {
    SmcArgs args;
    args.a[0] = job_id;
    // The shadow-complete RPC re-enters the REE scheduler (and possibly
    // this driver, via the next shadow's takeover) — before mu_ is taken.
    platform_->monitor().RpcToRee(SmcFunc::kRpcNpuShadowComplete, args);
    const SimTime handed_back_at = platform_->sim().Now();
    std::function<void(Status)> cb;
    {
      MutexLock lock(&mu_);
      total_smc_time_ += kSmcRoundTrip;
      // Exit-side measured switch time: completion interrupt to the shadow
      // job handed back to the REE queue.
      total_measured_switch_time_ += handed_back_at - irq_at;
      auto it = jobs_.find(job_id);
      if (it != jobs_.end()) {
        SecureJob& done = it->second;
        done.completion_status = payload_status;
        done.finished = true;
        // The device is done with the execution context: release the
        // functional payload (it pins the job's input buffers) for callers
        // that keep the entry around instead of consuming it via
        // WaitForJob.
        done.desc.compute = nullptr;
        cb = std::move(done.on_complete);
        done.on_complete = nullptr;
      }
    }
    if (cb) {
      cb(payload_status);
    }
  });
}

}  // namespace tzllm

#include "src/tee/npu_driver.h"

#include <gtest/gtest.h>

#include "src/hw/platform.h"
#include "src/ree/npu_driver.h"
#include "src/ree/tz_driver.h"
#include "src/tee/tee_os.h"

namespace tzllm {
namespace {

// Full co-driver stack fixture: REE control plane + TEE data plane over the
// shared hardware models.
class CoDriverTest : public ::testing::Test {
 protected:
  CoDriverTest() {
    ReeMemoryLayout layout;
    layout.dram_bytes = plat_.config().dram_bytes;
    layout.kernel_bytes = 256 * kMiB;
    layout.cma_bytes = 1 * kGiB;
    layout.cma2_bytes = 256 * kMiB;
    mm_ = std::make_unique<ReeMemoryManager>(layout, &plat_.dram());
    tz_ = std::make_unique<TzDriver>(&plat_, mm_.get());
    ree_npu_ = std::make_unique<ReeNpuDriver>(&plat_);
    ree_npu_->Init();
    tee_ = std::make_unique<TeeOs>(&plat_, tz_.get(), 42);
    EXPECT_TRUE(tee_->Boot().ok());
    tee_npu_ = std::make_unique<TeeNpuDriver>(&plat_, tee_.get());
    tee_npu_->Init();
    ta_ = *tee_->CreateTa("llm");
    // Give the TA a protected scratch region hosting job contexts.
    EXPECT_TRUE(
        tee_->ExtendAllocated(ta_, SecureRegionId::kScratch, 16 * kMiB).ok());
    EXPECT_TRUE(
        tee_->ExtendProtected(ta_, SecureRegionId::kScratch, 16 * kMiB).ok());
    scratch_ = tee_->RegionBase(SecureRegionId::kScratch);
  }

  NpuJobDesc SecureJob(SimDuration duration = kMillisecond) {
    NpuJobDesc job;
    job.cmd_addr = scratch_;
    job.cmd_size = kPageSize;
    job.iopt_addr = scratch_ + kPageSize;
    job.iopt_size = kPageSize;
    job.buffers = {{scratch_ + 2 * kPageSize, kPageSize}};
    job.duration = duration;
    return job;
  }

  SocPlatform plat_;
  std::unique_ptr<ReeMemoryManager> mm_;
  std::unique_ptr<TzDriver> tz_;
  std::unique_ptr<ReeNpuDriver> ree_npu_;
  std::unique_ptr<TeeOs> tee_;
  std::unique_ptr<TeeNpuDriver> tee_npu_;
  TaId ta_ = -1;
  PhysAddr scratch_ = 0;
};

TEST_F(CoDriverTest, SecureJobRunsEndToEnd) {
  Status result = Internal("never completed");
  auto id = tee_npu_->SubmitJob(ta_, SecureJob(),
                                [&](Status st) { result = std::move(st); });
  ASSERT_TRUE(id.ok());
  plat_.sim().Run();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(tee_npu_->secure_jobs_completed(), 1u);
  EXPECT_EQ(ree_npu_->shadow_jobs_completed(), 1u);
  // The NPU is back in non-secure mode afterwards.
  EXPECT_FALSE(plat_.tzpc().IsSecure(DeviceId::kNpu));
  EXPECT_EQ(plat_.gic().RouteOf(kIrqNpu), World::kNonSecure);
}

TEST_F(CoDriverTest, JobContextOutsideSecureRegionsRejected) {
  NpuJobDesc bad = SecureJob();
  bad.buffers = {{16 * kMiB, kPageSize}};  // Arbitrary REE memory.
  auto id = tee_npu_->CreateJob(ta_, bad);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), ErrorCode::kSecurityViolation);
}

TEST_F(CoDriverTest, ReplayedTakeoverRejected) {
  Status result;
  auto id = tee_npu_->SubmitJob(ta_, SecureJob(),
                                [&](Status st) { result = std::move(st); });
  ASSERT_TRUE(id.ok());
  plat_.sim().Run();
  ASSERT_TRUE(result.ok());
  // A malicious REE replays the completed token.
  SmcArgs args;
  args.a[0] = *id;
  const SmcResult replay =
      plat_.monitor().SmcFromRee(SmcFunc::kNpuTakeover, args);
  EXPECT_EQ(replay.status.code(), ErrorCode::kSecurityViolation);
  EXPECT_GE(tee_npu_->validation_failures(), 1u);
}

TEST_F(CoDriverTest, UnknownTokenTakeoverRejected) {
  SmcArgs args;
  args.a[0] = 424242;
  const SmcResult launch =
      plat_.monitor().SmcFromRee(SmcFunc::kNpuTakeover, args);
  EXPECT_EQ(launch.status.code(), ErrorCode::kSecurityViolation);
}

TEST_F(CoDriverTest, CreatedButUnissuedJobCannotBeLaunched) {
  auto id = tee_npu_->CreateJob(ta_, SecureJob());
  ASSERT_TRUE(id.ok());
  SmcArgs args;
  args.a[0] = *id;
  const SmcResult launch =
      plat_.monitor().SmcFromRee(SmcFunc::kNpuTakeover, args);
  EXPECT_EQ(launch.status.code(), ErrorCode::kSecurityViolation);
}

TEST_F(CoDriverTest, ReorderedTakeoverRejected) {
  // Park a long non-secure job at the head of the REE queue so the shadow
  // jobs for c and d stay queued (not yet taken over).
  NpuJobDesc ns;
  ns.cmd_addr = 32 * kMiB;
  ns.cmd_size = kPageSize;
  ns.buffers = {{33 * kMiB, kPageSize}};
  ns.duration = 50 * kMillisecond;
  ree_npu_->SubmitJob(ns, nullptr);

  auto c = tee_npu_->CreateJob(ta_, SecureJob());
  auto d = tee_npu_->CreateJob(ta_, SecureJob());
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());
  int completed = 0;
  ASSERT_TRUE(tee_npu_->IssueJob(*c, [&](Status st) {
                        EXPECT_TRUE(st.ok());
                        ++completed;
                      }).ok());
  ASSERT_TRUE(tee_npu_->IssueJob(*d, [&](Status st) {
                        EXPECT_TRUE(st.ok());
                        ++completed;
                      }).ok());

  // A malicious REE control plane schedules d's shadow before c's.
  SmcArgs args;
  args.a[0] = *d;
  const SmcResult out_of_order =
      plat_.monitor().SmcFromRee(SmcFunc::kNpuTakeover, args);
  EXPECT_EQ(out_of_order.status.code(), ErrorCode::kSecurityViolation);
  EXPECT_GE(tee_npu_->validation_failures(), 1u);

  // The honest queue still executes c then d successfully.
  plat_.sim().Run();
  EXPECT_EQ(completed, 2);
}

TEST_F(CoDriverTest, NsJobsDrainBeforeSecureLaunch) {
  // Launch a long non-secure job directly on the device, then submit a
  // secure job: the TEE must wait for the NS job to drain before granting
  // secure memory access.
  NpuJobDesc ns;
  ns.cmd_addr = 32 * kMiB;
  ns.cmd_size = kPageSize;
  ns.buffers = {{33 * kMiB, kPageSize}};
  ns.duration = 10 * kMillisecond;
  ASSERT_TRUE(plat_.npu().MmioLaunch(World::kNonSecure, ns).ok());

  SimTime secure_done = 0;
  auto id = tee_npu_->SubmitJob(ta_, SecureJob(kMillisecond), [&](Status st) {
    ASSERT_TRUE(st.ok());
    secure_done = plat_.sim().Now();
  });
  ASSERT_TRUE(id.ok());
  plat_.sim().Run();
  EXPECT_GT(secure_done, 10 * kMillisecond + kMillisecond);
}

TEST_F(CoDriverTest, InterleavesWithNonSecureJobs) {
  int ns_done = 0, secure_done = 0;
  NpuJobDesc ns;
  ns.cmd_addr = 32 * kMiB;
  ns.cmd_size = kPageSize;
  ns.buffers = {{33 * kMiB, kPageSize}};
  ns.duration = kMillisecond;
  for (int i = 0; i < 2; ++i) {
    ree_npu_->SubmitJob(ns, [&](Status st) {
      ASSERT_TRUE(st.ok());
      ++ns_done;
    });
    ASSERT_TRUE(tee_npu_
                    ->SubmitJob(ta_, SecureJob(), [&](Status st) {
                      ASSERT_TRUE(st.ok());
                      ++secure_done;
                    })
                    .ok());
  }
  plat_.sim().Run();
  EXPECT_EQ(ns_done, 2);
  EXPECT_EQ(secure_done, 2);
  EXPECT_EQ(plat_.npu().jobs_completed(), 4u);
}

TEST_F(CoDriverTest, SwitchCostsAreAccounted) {
  ASSERT_TRUE(tee_npu_->SubmitJob(ta_, SecureJob(), nullptr).ok());
  plat_.sim().Run();
  EXPECT_GT(tee_npu_->total_config_time(), 0u);
  EXPECT_GT(tee_npu_->total_smc_time(), 0u);
  EXPECT_GT(TeeNpuDriver::PerJobSwitchCost(), 50 * kMicrosecond);
}

TEST_F(CoDriverTest, MeasuredSwitchTimeTracksTheModel) {
  // An idle device: the measured per-job switch time (takeover->launch plus
  // completion->shadow-release, real protocol events) should land in the
  // same regime as the PerJobSwitchCost model — within 2x, not orders off.
  const int kJobs = 4;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(tee_npu_->SubmitJob(ta_, SecureJob(), nullptr).ok());
    plat_.sim().Run();
  }
  ASSERT_EQ(tee_npu_->secure_jobs_completed(), static_cast<uint64_t>(kJobs));
  const SimDuration measured =
      tee_npu_->total_measured_switch_time() / kJobs;
  const SimDuration model = TeeNpuDriver::PerJobSwitchCost();
  EXPECT_GE(measured, model / 2);
  EXPECT_LE(measured, 2 * model);
}

TEST_F(CoDriverTest, FailingPayloadPropagatesToWaiter) {
  // A job whose functional payload fails must complete the protocol (the
  // device raises its interrupt regardless) but surface the error to both
  // the completion callback and a WaitForJob caller — never a silent OK.
  NpuJobDesc job = SecureJob();
  job.compute = [] { return Internal("payload exploded"); };
  Status cb_status;
  auto id = tee_npu_->SubmitJob(ta_, job,
                                [&](Status st) { cb_status = std::move(st); });
  ASSERT_TRUE(id.ok());
  const Status waited = tee_npu_->WaitForJob(*id);
  EXPECT_FALSE(waited.ok());
  EXPECT_EQ(waited.code(), ErrorCode::kInternal);
  EXPECT_FALSE(cb_status.ok());
  EXPECT_EQ(tee_npu_->payload_failures(), 1u);
  // The protocol still ran to completion and released the device.
  EXPECT_EQ(tee_npu_->secure_jobs_completed(), 1u);
  EXPECT_FALSE(plat_.tzpc().IsSecure(DeviceId::kNpu));
}

TEST_F(CoDriverTest, WaitForJobTimesOutOnABusySimulator) {
  // A job whose shadow is stuck behind an endless non-secure stream: without
  // a timeout WaitForJob would drive the (never-idle) simulator forever.
  // Park a never-launched job by creating-but-not-issuing it, and keep the
  // simulator busy with a self-rescheduling heartbeat.
  auto id = tee_npu_->CreateJob(ta_, SecureJob());
  ASSERT_TRUE(id.ok());  // Created, never issued: no shadow, never runs.
  std::function<void()> heartbeat = [&] {
    plat_.sim().Schedule(kMillisecond, heartbeat);
  };
  heartbeat();
  const Status st = tee_npu_->WaitForJob(*id, /*timeout=*/50 * kMillisecond);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kDeadlineExceeded);
}

TEST_F(CoDriverTest, TimedOutLaunchedJobPayloadNeverFires) {
  // The device captures its own payload copy at MmioLaunch, so abandoning
  // a LAUNCHED job on timeout must abort the device's compute stage —
  // otherwise the payload fires later into caller memory the caller
  // reclaimed after seeing the timeout (use-after-free in a real TA).
  bool fired = false;
  NpuJobDesc job = SecureJob(/*duration=*/500 * kMillisecond);
  job.compute = [&fired] {
    fired = true;
    return OkStatus();
  };
  auto id = tee_npu_->SubmitJob(ta_, job, nullptr);
  ASSERT_TRUE(id.ok());
  // Fine-grained unrelated traffic so virtual time creeps past the wait
  // deadline long before the (long) job completes.
  std::function<void()> heartbeat = [&] {
    plat_.sim().Schedule(kMillisecond, heartbeat);
  };
  heartbeat();
  plat_.sim().RunUntilIdleOr([&] { return plat_.npu().busy(); });
  ASSERT_TRUE(plat_.npu().busy());  // Launched, mid-execution.
  const Status st = tee_npu_->WaitForJob(*id, /*timeout=*/50 * kMillisecond);
  EXPECT_EQ(st.code(), ErrorCode::kDeadlineExceeded);
  // Let the aborted job's completion interrupt fire (bounded run: the
  // heartbeat never drains the queue).
  plat_.sim().RunUntil(plat_.sim().Now() + 600 * kMillisecond);
  EXPECT_FALSE(fired);  // The device dropped the captured payload.
  EXPECT_EQ(plat_.npu().jobs_completed(), 1u);
  // A driver-initiated abort is not a *payload* failure: nothing ran.
  EXPECT_EQ(tee_npu_->payload_failures(), 0u);
  // The protocol still released the device back to the non-secure world.
  EXPECT_FALSE(plat_.tzpc().IsSecure(DeviceId::kNpu));
}

TEST_F(CoDriverTest, WaitForJobConsumesItsEntry) {
  auto id = tee_npu_->SubmitJob(ta_, SecureJob(), nullptr);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(tee_npu_->WaitForJob(*id).ok());
  // The wait consumed the job's bookkeeping entry: a second wait on the
  // same id finds nothing.
  EXPECT_EQ(tee_npu_->WaitForJob(*id).code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace tzllm

// Deterministic fault injection, one plan for every layer. A plan names one
// misbehavior class and a 1-based ordinal window ("the Nth event of that
// class's counter misbehaves"), so a CI sweep can walk every class and a
// test can pin a fault to an exact event of an exact schedule. Each
// injection point counts its own ordinal and asks Hits(its class, ordinal):
//
//   payload       NpuDevice, per secure MmioLaunch doorbell: the functional
//                 payload reports a failure through the job-status register.
//   timeout       (alias stall) same counter: the device accepts the launch
//                 and never completes; only the MMIO abort/reset revives it.
//   ctx           (alias context) TeeNpuDriver, per issue sequence number:
//                 takeover-time context validation rejects the job.
//   submit        same counter: the job is issued but its shadow never
//                 reaches the REE queue, so no takeover arrives.
//   spill_tamper  KvPagePool, per page spill: one ciphertext byte of the
//                 sealed blob is flipped, so its restore fails the tag.
//   spill_drop    same counter: the blob is truncated (the REE "lost" it).
//   ckpt_drop     LlmTa, per sealed session checkpoint: the blob is deleted
//                 right after sealing.
//   ta_crash      ServingRuntime::Tick, per tick: the whole TA aborts.
//
// A retried NPU job rings the doorbell (and takes a sequence number) again,
// so `count` is what separates a transient fault from a persistent one.
// EngineOptions::fault_plan wins over the TZLLM_FAULT_PLAN environment
// variable; LlmTa::LoadModel resolves the plan once and arms every layer
// with it. Ordinals are counters, never clocks or randomness, so a chaos run
// replays exactly.

#ifndef SRC_COMMON_FAULT_PLAN_H_
#define SRC_COMMON_FAULT_PLAN_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace tzllm {

enum class FaultClass : uint8_t {
  kNone = 0,
  kPayload,
  kTimeout,
  kContext,
  kSubmit,
  kSpillTamper,
  kSpillDrop,
  kCkptDrop,
  kTaCrash,
};

struct FaultPlan {
  FaultClass fault = FaultClass::kNone;
  uint64_t first = 0;  // 1-based ordinal of the first fault; 0 = never.
  uint64_t count = 1;  // Consecutive faulted ordinals starting at `first`.

  bool active() const { return fault != FaultClass::kNone && first > 0; }
  // True when the plan arms `cls` and `ordinal` falls inside its window.
  bool Hits(FaultClass cls, uint64_t ordinal) const {
    return active() && fault == cls && ordinal >= first &&
           ordinal - first < count;
  }
  // "<class>@<first>x<count>" (what Parse reads back), or "none".
  std::string ToString() const;

  // "<class>@<first>[x<count>]" with class one of the names above; "" or
  // "none" parse to the inactive plan. Examples: "payload@5",
  // "timeout@3x2", "spill_tamper@1x100", "ta_crash@40".
  static Result<FaultPlan> Parse(const std::string& text);
  // Parses TZLLM_FAULT_PLAN; unset or empty means no faults. A malformed
  // value is a test-rig error: logged and treated as inactive rather than
  // silently faulting ordinal 0.
  static FaultPlan FromEnv();
};

}  // namespace tzllm

#endif  // SRC_COMMON_FAULT_PLAN_H_

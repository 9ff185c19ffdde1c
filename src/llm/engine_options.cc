#include "src/llm/engine_options.h"

#include "src/common/fault_plan.h"

namespace tzllm {

Status EngineOptions::Validate() const {
  // Serving group: these shape the KV arena and the scheduler, so a bad
  // value must fail the load, not surface as a mis-sized scratch region.
  if (max_sessions < 1) {
    return InvalidArgument(
        "EngineOptions::max_sessions must be >= 1 (the KV arena needs at "
        "least one session slot)");
  }
  if (serve_queue_max < 0) {
    return InvalidArgument(
        "EngineOptions::serve_queue_max must be >= 0 (0 = unbounded "
        "admission queue)");
  }
  if (serve_watchdog_ticks < 0) {
    return InvalidArgument(
        "EngineOptions::serve_watchdog_ticks must be >= 0 (0 disables the "
        "stuck-tick watchdog)");
  }
  if (serve_checkpoint_every_n_ticks < 0) {
    return InvalidArgument(
        "EngineOptions::serve_checkpoint_every_n_ticks must be >= 0 (0 "
        "disables auto-checkpointing)");
  }

  // Paged KV group: the pool is carved out of the secure scratch region at
  // load, so bad geometry must fail here, not as a mis-sized budget.
  if (kv_page_positions < 1) {
    return InvalidArgument(
        "EngineOptions::kv_page_positions must be >= 1 (a KV page holds at "
        "least one sequence position)");
  }
  if (kv_prefix_entries < 0) {
    return InvalidArgument(
        "EngineOptions::kv_prefix_entries must be >= 0 (0 disables prefix "
        "sharing)");
  }
  if (kv_recompute_max < 0) {
    return InvalidArgument(
        "EngineOptions::kv_recompute_max must be >= 0 (0 disables "
        "recompute-on-loss)");
  }

  // The NPU group applies only when the configuration actually routes
  // prefill to the NPU backend; an inert combination (prefill_batch <= 1)
  // stays valid whatever the NPU knobs say.
  if (npu_prefill_active() && npu_job_timeout == 0) {
    return InvalidArgument(
        "EngineOptions::npu_job_timeout must be positive: a zero per-job "
        "deadline would classify every NPU job as timed out");
  }
  // The fault plan reaches every layer, so its syntax is checked for every
  // configuration: a typo'd plan must not run silently unfaulted.
  return FaultPlan::Parse(fault_plan).status();
}

}  // namespace tzllm

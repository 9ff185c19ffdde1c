// Knobs for the functional inference engine, threaded from RuntimeConfig
// down through LlmTa / LlmEngine to the TransformerExecutor so benchmarks
// can sweep thread counts, prefill batching, NPU offload and serving
// concurrency.
//
// The knobs are grouped (kernel, npu, fault, serving, paged KV) and
// validated by ONE entry point — EngineOptions::Validate() — instead of
// scattered per-knob checks in LoadModel / llm_ta.cc: a configuration either
// passes Validate() or the load fails with a clear InvalidArgument before
// any secure memory is touched.

#ifndef SRC_LLM_ENGINE_OPTIONS_H_
#define SRC_LLM_ENGINE_OPTIONS_H_

#include <algorithm>
#include <string>
#include <thread>

#include "src/common/status.h"
#include "src/common/units.h"

namespace tzllm {

// What the serving runtime does when a more urgent request arrives and
// every session slot is occupied (src/serve/serving.h).
enum class ServeEvictPolicy : uint8_t {
  // Never preempt: urgent requests wait for a slot to free up naturally.
  kNone = 0,
  // Checkpoint the least-urgent *running* session to flash (the PR 6
  // CheckpointSession primitive), hand its slot to the more urgent request,
  // and re-queue the victim at its original priority — restored later with
  // bit-identical resumption.
  kPriority = 1,
};

struct EngineOptions {
  // --- Kernel group: where and how the CPU math runs. -------------------

  // CPU lanes for the kernel pool; 1 = no pool, fully single-threaded;
  // 0 = auto (all hardware threads). Always clamped to the machine's
  // hardware concurrency at executor construction (ResolvedThreads):
  // oversubscribing a 1-core box measurably *loses* throughput (the fig17
  // snapshot showed threads_4 slower than threads_1), so a request beyond
  // the hardware is treated as "use everything", not honored literally.
  int n_threads = 1;
  // Positions per prefill chunk (one Forward row; MatMatQ8 weight reuse);
  // <= 1 prefills in chunks of one position and keeps prefill off the NPU.
  // Also the serving runtime's prefill scheduling quantum: each scheduler
  // tick advances one admitted session by one chunk of this many positions.
  int prefill_batch = 32;
  // Binds this engine to the portable-scalar kernel table even when the CPU
  // supports a SIMD backend — the software half of the SIMD-vs-scalar parity
  // suite (the process-wide TZLLM_SIMD=off env override is the other half),
  // so both dispatch paths are testable on one machine. Only the inner-loop
  // table changes; the schedule and the f16 KV cache stay the same.
  bool force_scalar = false;
  // Accumulates attention-phase wall time in the executor (bench
  // instrumentation; off by default so production decode takes no clock
  // reads).
  bool collect_stats = false;

  // --- NPU group: secure co-driver prefill offload. ---------------------

  // Routes the batched-prefill matmuls through the secure NPU co-driver
  // (the ComputeBackend seam): each chunk-layer runs as two fused,
  // TZASC-validated secure NPU jobs submitted via TeeNpuDriver::SubmitJob —
  // the QKV group, then the whole post-attention segment (Wo + residual +
  // FFN norm + gate/up/silu/down). Decode stays on the CPU KernelDispatch
  // path.
  // Requires the co-driver to be wired (LlmTa's npu_driver parameter, from
  // RuntimeConfig::use_npu) — loading fails with a clear Status otherwise.
  // Composes with TZLLM_SIMD: the NPU functional payload runs the engine's
  // own kernel table (the integer-dot rows are bit-identical across tables,
  // and the fused layer-tail's norm/silu glue must match the CPU path
  // exactly), so the combination never changes a logit. Inert under
  // prefill_batch <= 1, which keeps prefill on the CPU (see
  // npu_prefill_active()).
  bool npu_prefill = false;

  // Per-job wait deadline for secure NPU jobs, on the virtual clock. Must
  // be positive when NPU prefill is active: Validate() / the backend reject
  // non-positive values with InvalidArgument (a zero deadline would mean
  // "wait forever", which a lost job turns into a hang). A failed or
  // timed-out job is retried, then re-run on the CPU — bit-identical either
  // way (NpuBackendConfig holds the recovery policy).
  SimDuration npu_job_timeout = 2000 * kMillisecond;

  // --- Fault group: deterministic fault injection. ----------------------

  // One plan for every layer ("payload@5", "timeout@3x2",
  // "spill_tamper@1x100", "ckpt_drop@2", "ta_crash@40" — see
  // src/common/fault_plan.h). Empty = fall back to the TZLLM_FAULT_PLAN
  // environment variable (the CI fault and chaos sweeps); both empty = no
  // injection. A malformed plan string fails Validate() with
  // InvalidArgument, whatever the rest of the configuration.
  std::string fault_plan;

  // --- Serving group: multi-session concurrency (src/serve/). -----------

  // Concurrent generation sessions one LlmTa admits: the KV arena holds
  // this many per-session cache slots (all budgeted into the secure scratch
  // region at load), and BeginSession/AdmitSession beyond it fails with
  // kResourceExhausted. 1 keeps the single-session footprint and the
  // legacy "exactly one open session" semantics.
  int max_sessions = 1;
  // Under-pressure eviction policy for the serving runtime's admission
  // queue.
  ServeEvictPolicy serve_eviction = ServeEvictPolicy::kPriority;
  // Admission-queue bound: Enqueue rejects with kUnavailable once this many
  // requests are waiting (queued or evicted). 0 = unbounded (the pre-ISSUE
  // 10 behavior). Overload then sheds late-comers instead of degrading
  // every admitted session.
  int serve_queue_max = 0;
  // Stuck-tick watchdog: this many consecutive scheduler ticks with zero
  // session progress (no prefill advance, no decode token, no retirement)
  // surface kDeadlineExceeded with diagnostic stats instead of spinning.
  // 0 disables (a no-work tick is then an immediate kInternal, the pre-
  // watchdog contract).
  int serve_watchdog_ticks = 0;
  // Auto-checkpoint cadence for whole-TA crash recovery: every N scheduler
  // ticks the runtime seals every active session (SnapshotSession) plus a
  // serving manifest through tee/checkpoint, so a fresh TA can
  // ServingRuntime::Recover() the whole fleet. 0 disables.
  int serve_checkpoint_every_n_ticks = 0;

  // --- Paged KV group: page pool, REE spill and prefix sharing. ---------
  // The session KV slots are page tables over one shared page pool (fixed
  // pages of kv_page_positions positions x all layers, refcounted,
  // LRU-spilled under pressure to REE blobs sealed under the model key,
  // restored and integrity-checked on demand).

  // Sequence positions per KV page. Smaller pages spill and share at finer
  // grain but add page hops to the attention walk.
  int kv_page_positions = 16;
  // Secure-resident budget of the page pool in bytes; 0 = every session's
  // full context in whole pages (max_sessions x ceil(max_ctx /
  // kv_page_positions) pages), so every admitted session can be fully
  // resident. Smaller values over-subscribe physical residency and lean on
  // spill; the pool must still hold one session's full context.
  uint64_t kv_pool_bytes = 0;
  // Capacity of the cross-session shared-prefix registry (sessions whose
  // prompts share a registered token prefix map the same read-only pages,
  // copy-on-write past the fork point). 0 disables sharing.
  int kv_prefix_entries = 16;
  // Recompute-on-loss budget: lifetime cap on KV pages re-prefilled per
  // session after a spilled page's REE blob came back tampered, truncated
  // or missing. Within the budget REE misbehavior is a latency event (the
  // covered positions are recomputed bit-identically from the session's
  // token history); past it — or at 0, which disables recovery — the
  // original kDataCorruption surfaces.
  int kv_recompute_max = 256;

  // True exactly when this configuration routes prefill to the NPU backend
  // (prefill_batch <= 1 keeps prefill on the CPU, making npu_prefill
  // genuinely inert) — THE predicate LoadModel budgets job contexts with,
  // and the one Validate() gates the NPU knob checks on, so there is no
  // second spelling to drift.
  bool npu_prefill_active() const {
    return npu_prefill && prefill_batch > 1;
  }

  // Validates the whole configuration, cross-knob effects included
  // (NPU checks apply only when npu_prefill_active()). The single
  // validation entry point: LoadModel calls this once instead of scattering
  // per-knob checks, so every rejected configuration fails before secure
  // memory is allocated. Does NOT check driver wiring (that is runtime
  // state, not configuration — LoadModel still verifies the co-driver is
  // present when NPU prefill is active).
  Status Validate() const;
};

// The thread count an engine configured with `options` actually runs:
// n_threads <= 0 means "all hardware threads", anything larger than the
// hardware is clamped to it (oversubscription only adds scheduler thrash —
// there is no configuration where it wins). hardware_concurrency() == 0
// means "unknown" per the standard, not "one core": honor the request then
// rather than silently de-threading a working configuration.
inline int ResolvedThreads(const EngineOptions& options) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw <= 0) {
    return std::max(1, options.n_threads);
  }
  return options.n_threads <= 0 ? hw : std::min(options.n_threads, hw);
}

}  // namespace tzllm

#endif  // SRC_LLM_ENGINE_OPTIONS_H_

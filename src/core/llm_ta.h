// The LLM Trusted Application — the functional (real-bytes) end-to-end path:
//
//   unwrap model key (TEE key service) -> read + verify TZGUF metadata ->
//   pipelined restoration with REAL side effects (CMA extents, DMA-checked
//   flash loads into unprotected memory, extend_protected, per-tensor GMAC
//   verification of the ciphertext, in-place AES-CTR decryption) -> token
//   generation with the transformer executor reading TZASC-protected
//   secure memory.
//
// Everything an attacker-facing test wants to probe happens on real bytes
// here; the paper-scale benchmarks use SystemRuntime instead (same control
// flow, cost models only).
//
// Generation is handle-based: one TA admits up to EngineOptions::max_sessions
// concurrent sessions, each identified by a SessionId and owning a private
// KV-arena slot. The serving runtime (src/serve/) schedules across handles.

#ifndef SRC_CORE_LLM_TA_H_
#define SRC_CORE_LLM_TA_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/fault_plan.h"
#include "src/common/status.h"
#include "src/core/pipeline.h"
#include "src/core/restore_plan.h"
#include "src/hw/platform.h"
#include "src/llm/engine.h"
#include "src/llm/tzguf.h"
#include "src/tee/npu_driver.h"
#include "src/tee/tee_os.h"

namespace tzllm {

// Handle for one generation session on an LlmTa. Ids are never reused within
// a TA's lifetime (and survive checkpoint/restore — the sealed blob carries
// its id), so a stale handle fails cleanly instead of touching a successor
// session's state.
using SessionId = uint64_t;

class LlmTa {
 public:
  // `engine_options` (thread count, prefill batching, NPU prefill, serving
  // concurrency) comes from RuntimeConfig::engine in the benchmark stacks.
  // `npu_driver` is the secure co-driver data plane — the caller wires it
  // iff the platform has an NPU (RuntimeConfig::use_npu); it is what
  // RestoreParameters' plan and the prefill backend key "NPU available" off.
  // EngineOptions::npu_prefill without a driver fails LoadModel with a clear
  // Status.
  LlmTa(SocPlatform* platform, TeeOs* tee_os, TzDriver* tz_driver,
        const EngineOptions& engine_options = {},
        TeeNpuDriver* npu_driver = nullptr);

  TaId ta_id() const { return ta_; }

  // Registers the TA with the TEE OS. Call once.
  Status Attach();

  // Cold start for `model_id` (must be provisioned on flash, key installed
  // and authorized): validates the engine configuration
  // (EngineOptions::Validate), budgets the secure scratch region for
  // max_sessions KV slots, and restores all parameters through the pipeline.
  Status LoadModel(const std::string& model_id,
                   SchedulePolicy policy = SchedulePolicy::kPriorityPreemptive);

  // Generates text with the protected weights. Implemented on top of the
  // session API below (Begin + Step-to-exhaustion + Finish), so one token
  // loop serves both one-shot generation and checkpointable sessions.
  Result<GenerationResult> Generate(const std::string& prompt,
                                    int max_new_tokens,
                                    const Sampler::Options& sampling = {});

  // --- Handle-based generation sessions. --------------------------------
  //
  // A session is the paper's preemptible inference unit: prefill runs at
  // Begin (or chunk-by-chunk under the serving scheduler), decode advances
  // in Step increments, and at any point between steps the full generation
  // state (KV slot, sampler RNG, position, budget, prefill progress) can be
  // sealed to flash, the secure memory evicted, and the session restored
  // later — on this TA or a freshly booted one — resuming with exactly the
  // tokens the uninterrupted run would have produced.

  // Tokenizes `prompt`, claims a KV-arena slot, runs the full prefill and
  // samples the first token. kResourceExhausted when every session slot is
  // live; with max_sessions == 1 a second Begin keeps the legacy
  // FailedPrecondition("a generation session is already active") semantics.
  Result<SessionId> BeginSession(const std::string& prompt, int max_new_tokens,
                                 const Sampler::Options& sampling = {});

  // BeginSession minus the prefill: admits the session (tokenize + slot
  // claim) with the prompt not yet run. The serving scheduler's entry point
  // — it advances admitted prompts with PrefillSessionChunk so prefill
  // interleaves with other sessions' decode instead of blocking them.
  Result<SessionId> AdmitSession(const std::string& prompt, int max_new_tokens,
                                 const Sampler::Options& sampling = {});

  // Advances an admitted session's prompt by one chunk of up to
  // prefill_batch positions (the serving quantum): one Forward row.
  // Chunked prefill is bit-identical at any boundary, so the chunked prompt
  // lands the same KV rows and first-token logits as a one-shot
  // TransformerExecutor::Prefill. Returns true once the prompt is fully in
  // and the first token is sampled; true immediately (no-op) on an
  // already-prefilled session.
  Result<bool> PrefillSessionChunk(SessionId sid);

  // One batched decode step advancing EVERY listed session by one token:
  // per layer one MatMatQ8 over all their current positions (weights stream
  // once per step) with per-session attention — per-session bit-identical
  // to stepping each alone. Every listed session must be prefilled and not
  // done; sessions must be distinct.
  Status DecodeSessions(const std::vector<SessionId>& sids);

  // Advances one session by up to `max_steps` decode steps (capped by the
  // session's remaining token budget, EOS, and the context window). Runs
  // any unfinished prefill to completion first. Returns the number of
  // tokens emitted; 0 means the session is finished.
  Result<int> StepSession(SessionId sid, int max_steps);

  // Completes the session and returns its GenerationResult; the KV slot is
  // scrubbed and released, and the session's sealed checkpoint, if any, is
  // deleted from flash.
  Result<GenerationResult> FinishSession(SessionId sid);

  // Drops the session without a result (failed or cancelled requests): the
  // KV slot is scrubbed and released, nothing is sealed to flash, and any
  // earlier checkpoint of the session is deleted.
  Status AbandonSession(SessionId sid);

  // Seals the session's complete generation state (prompt/output tokens,
  // next sampled token, remaining budget, prefill progress, sampler options
  // + RNG words, KV slot contents) to flash under
  // "<model_id>.sess.<sid>.ckpt", encrypted and integrity-tagged under the
  // model key, then evicts it: the KV slot is scrubbed and released and the
  // handle becomes inactive. Crash-consistent: the blob is self-contained
  // (it carries the sid), so RestoreSession on a brand-new TA (same model)
  // resumes identically.
  Status CheckpointSession(SessionId sid);

  // Restores the sealed checkpoint for `sid` and reactivates it
  // mid-generation under the same handle. kDataCorruption if the blob was
  // tampered with on flash; InvalidArgument if it belongs to a different
  // model geometry; kResourceExhausted when no KV slot is free (evict
  // something first).
  Result<SessionId> RestoreSession(SessionId sid);

  // True if a sealed checkpoint for `sid` exists on flash.
  bool HasSessionCheckpoint(SessionId sid) const;

  // CheckpointSession WITHOUT the eviction: seals the same self-contained
  // blob to "<model_id>.sess.<sid>.ckpt" but keeps the session live — the
  // serving runtime's auto-checkpoint cadence, so a whole-TA crash loses at
  // most the tokens generated since the last snapshot (and those are
  // regenerated bit-identically on restore).
  Status SnapshotSession(SessionId sid);

  // --- Recompute-on-loss KV recovery (ISSUE 10). -------------------------
  // A spilled KV page whose REE blob fails restore (tampered, truncated,
  // dropped) is quarantined and its positions re-prefilled from the
  // session's own token history — deterministic, so the recomputed rows are
  // bit-identical and generation continues as if nothing happened, bounded
  // by EngineOptions::kv_recompute_max pages per session lifetime.

  struct KvRecoveryStats {
    uint64_t pages_recomputed = 0;  // Lost pages healed by re-prefill.
    uint64_t recoveries = 0;        // Recovery passes that healed >= 1 page.
    double recompute_ms = 0.0;      // Wall time spent re-prefilling (stats
                                    // only — never fed back to scheduling).
  };
  const KvRecoveryStats& kv_recovery_stats() const {
    return kv_recovery_stats_;
  }

  // --- Serving-fleet manifest (whole-TA crash recovery, ISSUE 10). -------
  // The serving runtime periodically seals its queue/session state as a
  // manifest blob through tee/checkpoint ("<model_id>.serve.ckpt"), and
  // ServingRuntime::Recover() on a freshly booted TA reads it back. The TA
  // only stores/loads the sealed bytes; the manifest format is the
  // runtime's.

  Result<uint64_t> SaveServeManifest(const std::vector<uint8_t>& manifest);
  Result<std::vector<uint8_t>> LoadServeManifest();
  bool HasServeManifest() const;
  Status DropServeManifest();

  // The fault plan LoadModel resolved (EngineOptions::fault_plan, else
  // TZLLM_FAULT_PLAN) and armed on every layer. The serving runtime reads
  // it for the ta_crash class.
  const FaultPlan& fault_plan() const { return fault_plan_; }
  // Session-checkpoint blobs deleted right after sealing by an armed
  // ckpt_drop plan.
  uint64_t ckpt_drops_injected() const { return ckpt_drops_injected_; }

  // Session queries. A handle that was finished, abandoned or evicted is no
  // longer active; session_done on it reports true (nothing left to step).
  bool session_active(SessionId sid) const;
  bool session_prefilled(SessionId sid) const;
  bool session_done(SessionId sid) const;
  const std::vector<TokenId>& session_tokens(SessionId sid) const;
  int open_sessions() const { return static_cast<int>(sessions_.size()); }
  // Free KV-arena slots = sessions that can still be admitted or restored.
  int free_session_slots() const;

    // Releases all secure memory (scrubbed by the TEE OS); open sessions are
  // dropped with it.
  Status Unload();

  const PipelineResult& restore_result() const { return restore_result_; }
  const ModelSpec& spec() const { return *spec_; }
  TeeOs& tee_os() { return *tee_os_; }
  const EngineOptions& engine_options() const { return engine_options_; }
  // The per-session KV slots (sized by EngineOptions::max_sessions).
  // nullptr before LoadModel.
  const KvArena* kv_arena() const { return kv_arena_.get(); }

  // Weight source reading decrypted tensors out of the protected region
  // through TA mappings. Exposed for tests.
  class SecureWeightSource : public WeightSource {
   public:
    SecureWeightSource(LlmTa* ta) : ta_(ta) {}
    Result<const uint8_t*> TensorData(int tensor_index) override;

   private:
    LlmTa* ta_;
    std::unordered_map<int, std::vector<uint8_t>> cache_;
  };

 private:
  // Live state of an in-progress generation session. Everything here plus
  // the KV slot contents is exactly what CheckpointSession serializes
  // (logits is scratch, resized on restore).
  struct Session {
    SessionId sid = 0;
    int slot = -1;             // KV-arena slot index.
    bool prefilled = false;    // Prompt fully in; next_token sampled.
    int prefill_pos = 0;       // Prompt positions already through the model.
    bool done = false;         // EOS or context window reached.
    std::vector<TokenId> prompt_tokens;
    std::vector<TokenId> output_tokens;
    TokenId next_token = 0;    // Sampled but not yet emitted/decoded.
    int remaining = 0;         // Token budget left.
    Sampler::Options sampling;
    std::unique_ptr<Sampler> sampler;
    std::vector<float> logits; // vocab_size scratch row for this session.
    // Lifetime recompute-on-loss spend, charged against kv_recompute_max.
    int pages_recomputed = 0;
  };

  // One tensor's verification during restoration: DecryptExtent feeds its
  // ciphertext to `mac` in file order while each frame is hot, before it
  // decrypts the frame, and checks the tag against the meta when the last
  // byte is in.
  struct TensorCheck {
    int index = 0;
    uint64_t begin = 0;  // Bytes [begin, end) of the data file.
    uint64_t end = 0;
    uint64_t fed = 0;  // Bytes fed to `mac` so far.
    bool verified = false;
    Gmac mac;
  };

  // Restores every parameter through the pipeline; fails unless each
  // tensor was verified exactly once.
  Status RestoreParameters(SchedulePolicy policy);
  // Flash -> params frames, in place (one copy).
  Status LoadExtent(uint64_t offset, uint64_t bytes);
  // Streams each frame of the extent into the MACs of the tensors it
  // overlaps, then decrypts the frame in place.
  Status DecryptExtent(uint64_t offset, uint64_t bytes);

  Session* FindSession(SessionId sid);
  const Session* FindSession(SessionId sid) const;
  bool SessionStopped(const Session& s) const;
  // Releases the session's KV slot (scrubbed) and erases it.
  void CloseSession(Session* s);
  // CheckpointSession's two halves, shared with SnapshotSession (which
  // seals without evicting): serialize the session (KV rows included,
  // recovering lost pages first), then store the blob (counting checkpoint
  // saves for the ckpt_drop injection ordinal).
  Status BuildSessionBlob(Session* s, std::vector<uint8_t>* blob);
  Result<uint64_t> SaveSessionBlob(const std::string& ckpt_id,
                                   const std::vector<uint8_t>& blob);
  // Deletes the session's sealed checkpoint from flash if one exists. A
  // finished or abandoned session never restores again; eviction and
  // Unload keep their blobs, which crash recovery needs.
  Status DropSessionBlob(SessionId sid);
  // Probes every listed session for lost pages, quarantines and re-prefills
  // them from token history. `*recovered` reports whether any page was
  // healed; an exhausted kv_recompute_max budget is an error.
  Status RecoverLostKv(const std::vector<Session*>& sessions, bool* recovered);
  // Runs `step`, and on kDataCorruption recovers lost KV pages and retries
  // — the loop that turns REE spill sabotage into a latency event. Safe
  // because a corrupt restore can only surface while pinning at step START
  // (mid-step every page is pinned resident), so no partial step state
  // exists when `step` reruns.
  Status RetryWithKvRecovery(const std::vector<Session*>& sessions,
                             const std::function<Status()>& step);

  SocPlatform* platform_;
  TeeOs* tee_os_;
  TzDriver* tz_driver_;
  EngineOptions engine_options_;
  TeeNpuDriver* npu_driver_;
  TaId ta_ = -1;

  std::string model_id_;
  AesKey128 model_key_{};
  std::unique_ptr<TzgufMeta> meta_;
  std::unique_ptr<ModelSpec> spec_;
  std::unique_ptr<Tokenizer> tokenizer_;
  std::unique_ptr<SecureWeightSource> weights_;
  // Restoration's tensor index, sorted by file offset; built once per load.
  std::vector<TensorCheck> tensor_checks_;
  // Per-session KV slots (max_sessions of them), all budgeted into the
  // secure scratch region at load.
  std::unique_ptr<KvArena> kv_arena_;
  // NPU prefill backend (engine_options_.npu_prefill): job execution
  // contexts live in the tail of the scratch region, which the scratch
  // budget covers. Must outlive executor_, which holds a raw pointer.
  std::unique_ptr<NpuBackend> npu_backend_;
  std::unique_ptr<TransformerExecutor> executor_;
  // Open sessions by id. std::map: the serving scheduler and Unload iterate
  // it, and iteration order must be deterministic.
  std::map<SessionId, Session> sessions_;
  SessionId next_sid_ = 1;
  const std::vector<TokenId> no_tokens_;
  PipelineResult restore_result_;
  uint64_t scratch_bytes_ = 0;
  uint64_t npu_ctx_bytes_ = 0;
  bool loaded_ = false;
  // Fault injection + serving recovery accounting.
  FaultPlan fault_plan_;
  KvRecoveryStats kv_recovery_stats_;
  uint64_t ckpt_saves_ = 0;  // ckpt_drop ordinal: session blobs sealed.
  uint64_t ckpt_drops_injected_ = 0;
};

}  // namespace tzllm

#endif  // SRC_CORE_LLM_TA_H_

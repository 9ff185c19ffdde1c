// Key/value cache: real storage for functional inference plus the size
// accounting the secure scratch region needs (paper §4.2: the KV cache is
// initialized to the prompt size in prefill, grows during decode, and is
// fully released after inference).
//
// One storage mode: the cache is a page table of refcounted KvPagePool
// pages, each covering page_positions() positions of every layer's K/V
// planes (K plane then V plane, [layer][pos_in_page][kv_dim]). Pages are
// allocated as positions are appended, shareable across sessions (prefix
// sharing) with copy-on-write on append, and cold pages spill to encrypted
// REE memory under pool pressure — restored on demand when a step pins the
// cache. Attention walks contiguous runs WITHIN a page and hops between
// pages (KvCache::RunLen), always in position order: the page size changes
// where the bytes live, never their values or the attend order, so logits
// are bit-identical at every page size.
//
// A standalone cache (no pool argument) owns a private one-frame pool whose
// one page holds max_ctx positions, with spill off: one contiguous
// [layer][pos][kv_dim] run per plane, the single-engine layout and the
// reference the paged bit-identity tests compare against.
//
// Entries are stored at f16 (convert on append, expand in the attention
// dot), which halves the cache footprint and makes CurrentBytes() equal the
// RESIDENT secure bytes actually holding appended rows (spilled rows are
// accounted separately by SpilledBytes()).

#ifndef SRC_LLM_KV_CACHE_H_
#define SRC_LLM_KV_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/llm/kv_page_pool.h"
#include "src/llm/model_spec.h"
#include "src/llm/tokenizer.h"

namespace tzllm {

struct KernelDispatch;
class KvCache;

// RAII handle for a step pin (KvCache::PinForStep): while alive, every page
// of the cache is resident and immune to eviction, so the raw row pointers
// the executor walks stay valid across the interleaved appends of a batched
// step. Move-only; unpins on destruction.
class KvCachePin {
 public:
  KvCachePin() = default;
  KvCachePin(KvCachePin&& other) noexcept : cache_(other.cache_) {
    other.cache_ = nullptr;
  }
  KvCachePin& operator=(KvCachePin&& other) noexcept;
  KvCachePin(const KvCachePin&) = delete;
  KvCachePin& operator=(const KvCachePin&) = delete;
  ~KvCachePin();

 private:
  friend class KvCache;
  explicit KvCachePin(KvCache* cache) : cache_(cache) {}
  KvCache* cache_ = nullptr;
};

class KvCache {
 public:
  // Standalone cache over a private one-page pool (max_ctx positions, spill
  // off). `kernels` supplies the f32->f16 append converter (nullptr = the
  // process-wide ActiveKernels() table); engines pass KernelsFor(options) so
  // a force_scalar engine fills the cache with the scalar converter. The
  // converters are bit-identical across backends (simd/kernels.h), so this
  // choice never changes the cached bytes — it only decides which code path
  // produces them.
  explicit KvCache(const ModelSpec& spec,
                   const KernelDispatch* kernels = nullptr);
  // A cache over a shared pool (must outlive the cache).
  KvCache(const ModelSpec& spec, KvPagePool* pool,
          const KernelDispatch* kernels);
  ~KvCache();

  // Appends `m` consecutive positions for `layer`; `k` and `v` are
  // [m][kv_dim] row-major floats, converted to f16 on the way in. A write to
  // a page shared with other sessions (refcount > 1) privatizes it first
  // (copy-on-write), so divergence past a shared prefix never alters the
  // shared rows.
  Status AppendBatch(int layer, int m, const float* k, const float* v);

  // Current sequence length (positions stored). Uniform across layers once a
  // full forward pass completes.
  int seq_len() const { return seq_len_; }
  void FinishPositions(int m) { seq_len_ += m; }
  // Empties the cache: releases every page reference (the pool scrubs each
  // frame when its last reference drops, so shared prefix pages survive for
  // their other holders) and resets the fill marks. A checkpointed-then-
  // evicted session leaves no private KV plaintext behind.
  void Reset();

  int max_ctx() const { return max_ctx_; }
  int kv_dim() const { return kv_dim_; }

  // A position's f16 K / V row. Positions are contiguous in runs of
  // RunLen(pos) rows: within a run, KeyHalfAt(l, p + 1) ==
  // KeyHalfAt(l, p) + kv_dim(). Rows are valid only while their page is
  // resident (the executor pins the cache for the step).
  const uint16_t* KeyHalfAt(int layer, int pos) const {
    return pool_->Data16(pages_[pos / page_positions_]) +
           pool_->KOffset(layer, pos % page_positions_);
  }
  const uint16_t* ValueHalfAt(int layer, int pos) const {
    return pool_->Data16(pages_[pos / page_positions_]) +
           pool_->VOffset(layer, pos % page_positions_);
  }

  // Positions at-and-after `pos` guaranteed adjacent in memory — the
  // attention walk's hop size: the rest of the page (everything to max_ctx
  // for a standalone cache).
  int RunLen(int pos) const {
    return page_positions_ - pos % page_positions_;
  }

  // --- Residency. --------------------------------------------------------

  // Pins every page of the cache resident for the duration of a forward
  // step (restoring spilled ones — kDataCorruption if a spilled page was
  // tampered with in REE memory). Pages appended or privatized while pinned
  // are pinned too. Nests.
  Result<KvCachePin> PinForStep();
  // Restores every spilled page without pinning (serialization and
  // inspection paths).
  Status EnsureResident();
  // The cache's page table. Exposed for the arena's prefix registry.
  const std::vector<KvPageId>& pages() const { return pages_; }
  int PageCount() const { return static_cast<int>(pages_.size()); }
  // Maps `positions` prompt positions of an existing shared prefix into
  // this (empty) cache: references the pages and sets every layer's fill
  // mark, so prefill resumes at `positions` with the shared rows readable
  // and copy-on-write armed for the first divergent append.
  Status AdoptPrefix(const KvPageId* page_ids, size_t n_pages, int positions);

  // --- Loss recovery (ISSUE 10): recompute-on-loss plumbing. -------------
  // A spilled page whose REE blob was tampered with or dropped is *lost*:
  // its data is gone but the token history that produced it is not, so the
  // TA re-prefills exactly the covered positions (bit-identical by the
  // house invariant). The cache provides the three primitives; the policy
  // (token sourcing, budget, ordering) lives in LlmTa::RecoverLostKv.

  int page_positions() const { return page_positions_; }
  // Walks the page table, quarantining every spilled page whose restore
  // fails with kDataCorruption, and records the table indices of all lost
  // pages into `lost_pages` (ascending). Non-corruption restore failures
  // propagate.
  Status ProbeLostPages(std::vector<int>* lost_pages);
  // Makes pages_[page_idx] safe to recompute into: sole holder -> clear the
  // lost flag in place; still shared (another session or the registry holds
  // it) -> detach onto a fresh private page, leaving the lost original to
  // its other holders so their own recovery — not our rows — heals them.
  Status PrepareRecompute(int page_idx);
  // Rewinds (or restores) every layer's fill mark and seq_len to `pos`
  // without touching page references or bytes — brackets a recompute
  // prefill so appended rows land at the lost positions.
  Status RewindFill(int pos);

  // Bytes of everything appended so far, from per-layer fill marks
  // (mid-forward-pass, layers already appended this position count too).
  // This is exactly what the scratch budget accounts
  // (kKvAccountedBytesPerElem) — the cache's real element width. Counts
  // RESIDENT secure bytes only; rows currently spilled to REE memory are in
  // SpilledBytes().
  uint64_t CurrentBytes() const;
  // Appended bytes whose page is currently spilled (plaintext-equivalent).
  // CurrentBytes() + SpilledBytes() is the full appended footprint.
  uint64_t SpilledBytes() const;

  // The full-context footprint of this one session in whole pages. A
  // standalone cache's CurrentBytes() == ArenaBytes() once every layer is
  // filled to max_ctx.
  uint64_t ArenaBytes() const;

  // --- Session checkpointing (crash-consistent eviction/restore). ---
  // Appends a self-describing snapshot of the cache — geometry header,
  // sequence length, per-layer fill marks, then only the *filled* prefix of
  // every layer's f16 K and V rows — to `out`. Rows are gathered across
  // pages, so the format is independent of the page size and checkpoints
  // move freely between caches of any page geometry.
  // Spilled pages are restored first, which can fail (kDataCorruption on a
  // tampered spill).
  Status SerializeState(std::vector<uint8_t>* out) const;
  // Restores a SerializeState snapshot into this cache. The snapshot's
  // geometry (layers, kv_dim, max_ctx, and an f16 storage tag) must match
  // this cache's exactly — InvalidArgument otherwise, kDataCorruption on a
  // truncated/inconsistent blob. On success the cache is bit-identical to
  // the serialized one (decode resumes producing identical logits).
  Status RestoreState(const uint8_t* data, size_t len);

 private:
  friend class KvCachePin;

  // Standalone construction: the cache owns `own_pool`.
  KvCache(const ModelSpec& spec, std::unique_ptr<KvPagePool> own_pool,
          const KernelDispatch* kernels);

  // Grows the page table to cover positions [0, pos_end).
  Status EnsurePagesFor(int pos_end);
  // Residency + copy-on-write: after this, pages_[page_idx] is resident,
  // exclusively owned and safe to write.
  Status MakeWritable(size_t page_idx);
  // Drops every page reference (pool scrubs frames when the last holder
  // leaves). Must not run while pinned.
  void ReleasePages();
  void UnpinStep();

  int n_layers_;
  int kv_dim_;
  int max_ctx_;
  const KernelDispatch* kernels_;
  int seq_len_ = 0;
  std::vector<int> filled_;  // Per-layer appended positions.
  std::unique_ptr<KvPagePool> own_pool_;  // Standalone caches only.
  KvPagePool* pool_;
  int page_positions_;
  std::vector<KvPageId> pages_;  // Page table: pages_[pos / page_positions_].
  int pin_depth_ = 0;
};

// Options for the serving KV arena: `slots` page tables over one shared
// KvPagePool plus a prefix registry for cross-session sharing.
struct KvArenaOptions {
  int slots = 1;
  const KernelDispatch* kernels = nullptr;
  // Pool geometry/budget/spill; pool.pool_bytes == 0 means every slot's
  // full context in whole pages (slots x ceil(max_ctx / page_positions)
  // frames), so every session can be fully resident at once.
  KvPagePoolOptions pool;
  // Capacity of the shared-prefix registry (LRU-evicted); 0 disables
  // sharing.
  int prefix_entries = 16;
};

// Per-session KV slots for the serving runtime: `slots` independent KvCache
// page tables over one pool, acquired by AdmitSession and released on
// Finish/Checkpoint. Sessions never share MUTABLE state: shared prefix
// pages are read-only by construction (copy-on-write on the first divergent
// append), so per-session CurrentBytes() stays truthful and a slot's
// Reset() on release leaves no other session's plaintext behind. The pool
// is what the TA's secure scratch budget accounts.
class KvArena {
 public:
  KvArena(const ModelSpec& spec, const KvArenaOptions& options);

  // The secure bytes an arena built with `options` will occupy — EXACTLY
  // ArenaBytes() of the constructed arena, so LlmTa's scratch budget and
  // the arena's own accounting can never drift (the invariant the
  // accounting regression test locks).
  static uint64_t BudgetBytes(const ModelSpec& spec,
                              const KvArenaOptions& options);

  // Claims a free slot (reset to empty) and returns its index;
  // kResourceExhausted when every slot is live.
  Result<int> Acquire();
  // Scrubs and frees a live slot. InvalidArgument for a bad or free index —
  // a double release would silently hand one cache to two sessions.
  Status Release(int slot);

  // The slot's cache; valid between Acquire and Release. nullptr for a bad
  // index (callers hold indices they acquired, so this is a programming
  // error, not a recoverable state).
  KvCache* cache(int slot);
  const KvCache* cache(int slot) const;

  int slots() const { return static_cast<int>(caches_.size()); }
  int live() const { return live_; }
  int free_slots() const { return slots() - live_; }

  // Always true: every arena is paged. Kept for perfbench/tzbench.cc, which
  // predates the one KV mode.
  bool paged() const { return true; }
  KvPagePool* pool() { return pool_.get(); }
  const KvPagePool* pool() const { return pool_.get(); }

  // Bytes one session's full-context footprint occupies (every slot is the
  // same geometry).
  uint64_t SlotBytes() const;
  // Resident appended bytes across live slots — the arena-wide analogue of
  // KvCache::CurrentBytes(). Shared pages count once per referencing
  // session (each session's accounting is truthful about what it can read).
  uint64_t CurrentBytes() const;
  // Appended bytes currently spilled to REE memory across live slots.
  uint64_t SpilledBytes() const;
  // Full preallocated secure footprint: the pool. Equals BudgetBytes() by
  // construction.
  uint64_t ArenaBytes() const { return pool_->PoolBytes(); }

  // --- Cross-session prefix sharing. -------------------------------------

  struct PrefixStats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t adopted_positions = 0;
    uint64_t registered = 0;
    uint64_t evicted = 0;
  };

  // Maps the longest registered token prefix of `prompt` into `slot`'s
  // empty cache (hash-keyed exact-token match, whole positions, capped at
  // prompt.size() - 1 so the final prompt position still runs and produces
  // the first-token logits). Returns the number of positions adopted; 0 on
  // a miss or when sharing is disabled. Prefixes shorter than one page are
  // not adopted (the COW copy would cost more than the skipped positions).
  int AdoptPrefix(int slot, const std::vector<TokenId>& prompt);
  // Registers `slot`'s first `tokens.size()` cached positions as a
  // shareable prefix (called once its prompt is fully prefilled). The
  // registry holds one reference per page, so the owner's first append past
  // registration copies-on-write instead of mutating the shared rows.
  // Deduplicated by token hash; LRU-evicted beyond the registry capacity.
  Status RegisterPrefix(int slot, const std::vector<TokenId>& tokens);
  // Invalidates every registry entry holding a lost page (the shared rows
  // are gone; adopting them would hand out zeros). Returns entries dropped.
  int DropLostPrefixEntries();
  const PrefixStats& prefix_stats() const { return prefix_stats_; }
  int prefix_entry_count() const { return static_cast<int>(prefix_.size()); }

 private:
  struct PrefixEntry {
    uint64_t hash = 0;
    std::vector<TokenId> tokens;
    std::vector<KvPageId> pages;  // One registry reference each.
    uint64_t last_hit = 0;
  };

  void DropPrefixEntry(size_t index);

  std::unique_ptr<KvPagePool> pool_;
  std::vector<std::unique_ptr<KvCache>> caches_;
  std::vector<bool> live_slots_;
  int live_ = 0;
  std::vector<PrefixEntry> prefix_;
  int prefix_cap_ = 0;
  uint64_t prefix_clock_ = 0;  // Monotonic recency counter — never wall time.
  PrefixStats prefix_stats_;
};

}  // namespace tzllm

#endif  // SRC_LLM_KV_CACHE_H_

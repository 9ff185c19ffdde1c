// KV page pool: the backing store of every KvCache (the serving KV arena's
// shared pool, or a standalone cache's private one-page pool).
//
// A page is a fixed block of kv_page_positions consecutive sequence
// positions spanning ALL layers' K and V planes, stored as f16 — the unit of
// allocation, refcounting, sharing and eviction.
// Within a page the layout is a K plane then a V plane, each
// [layer][pos_in_page][kv_dim], so positions of one layer stay contiguous
// inside a page and attention walks runs of kv_page_positions rows between
// page hops.
//
// The pool owns a fixed number of resident frames in secure scratch (by
// default every session's full context in whole pages). When every frame
// is in use, allocation and restore evict the least-recently-touched
// unpinned page to REE memory as a src/crypto/seal.h seal under the pool's
// key, bound to the page id and spill generation: REE memory is
// attacker-controlled, so a tampered, substituted or replayed spill fails
// restore with kDataCorruption, never with silently wrong KV. Pinned pages
// (a decode step in flight) are never evicted. Recency is a monotonic
// counter, not a clock — eviction order is deterministic and replayable.
//
// Pages are refcounted so sessions admitted with a common token prefix can
// map the same read-only pages (KvArena's prefix registry holds one ref per
// registered prefix); writes to a shared page copy it first (COW, handled
// by KvCache::AppendBatch).

#ifndef SRC_LLM_KV_PAGE_POOL_H_
#define SRC_LLM_KV_PAGE_POOL_H_

#include <cstdint>
#include <vector>

#include "src/common/fault_plan.h"
#include "src/common/status.h"
#include "src/crypto/aes.h"
#include "src/llm/model_spec.h"

namespace tzllm {

// Cached vectors per position per layer: one K and one V.
inline constexpr uint64_t kKvVectorsPerPosition = 2;
// Element width of the f16 cache — the width the secure scratch budget and
// the decode cost model assume. The pool really stores entries at this
// width, so accounting equals residency.
inline constexpr uint64_t kKvAccountedBytesPerElem = 2;

// Logical page handle. Ids are pool-scoped and recycled only after the last
// reference drops.
using KvPageId = uint32_t;
inline constexpr KvPageId kInvalidKvPage = 0xffffffffu;

struct KvPagePoolOptions {
  // Sequence positions per page. Smaller pages spill at finer grain but add
  // page-table hops to attention; 16 keeps a full page at one SIMD-friendly
  // run.
  int page_positions = 16;
  // Secure-resident budget the frame store is carved from; the frame count
  // is pool_bytes / page_bytes (at least one). KvArena resolves 0 to every
  // slot's full context in whole pages.
  uint64_t pool_bytes = 0;
  // Allow evicting cold pages to encrypted REE memory. Off = the pool is a
  // hard budget: allocation beyond the frames fails with ResourceExhausted.
  // The TA's shared pool always spills; a standalone cache's private
  // one-page pool does not.
  bool spill = true;
  // Key the spill blobs are sealed under (the model key in the TA; tests
  // may use any fixed key).
  AesKey128 spill_key{};
};

struct KvPageStats {
  uint64_t spills = 0;    // Pages encrypted out to REE memory.
  uint64_t restores = 0;  // Pages decrypted back into a frame.
  uint64_t cow_copies = 0;  // Shared pages privatized before a write.
  uint64_t pages_lost = 0;  // Spilled pages quarantined after failed restore.
};

class KvPagePool {
 public:
  KvPagePool(const ModelSpec& spec, const KvPagePoolOptions& opts);

  // Static so LlmTa can budget the scratch region with EXACTLY the numbers
  // the constructed pool will report (the accounting-agreement invariant).
  static uint64_t PageBytes(const ModelSpec& spec, int page_positions);
  static int FramesFor(const ModelSpec& spec, const KvPagePoolOptions& opts);

  int page_positions() const { return page_positions_; }
  uint64_t page_bytes() const { return page_bytes_; }
  int frames() const { return static_cast<int>(frame_owner_.size()); }
  int free_frames() const { return static_cast<int>(free_frames_.size()); }
  int resident_pages() const { return frames() - free_frames(); }
  int spilled_pages() const { return spilled_pages_; }
  bool spill_enabled() const { return spill_; }

  // --- Page lifecycle. ---------------------------------------------------

  // Allocates a zeroed resident page with refcount 1 (pin count 1 when
  // `pinned` — a page allocated mid-step must not become an eviction victim
  // of a later allocation in the same step). Evicts the LRU unpinned page
  // when no frame is free; ResourceExhausted when spill is off or every
  // frame is pinned.
  Result<KvPageId> Alloc(bool pinned);
  // Adds / drops a reference. The last Unref scrubs the frame (or drops the
  // spill blob) and recycles the id.
  void Ref(KvPageId id);
  Status Unref(KvPageId id);
  int refcount(KvPageId id) const;

  // --- Residency. --------------------------------------------------------

  bool resident(KvPageId id) const;
  // Restores a spilled page into a frame (opens its seal; kDataCorruption
  // on tamper), evicting colder unpinned pages if needed.
  // No-op when already resident. Counts as a recency touch. Fails with
  // kDataCorruption on a quarantined (lost) page until ClearLost — zeros
  // must never be silently read as KV data.
  Status EnsureResident(KvPageId id);
  // EnsureResident + pin: the page cannot be evicted until Unpin. Pins
  // nest.
  Status Pin(KvPageId id);
  void Unpin(KvPageId id);
  // Recency bump (deterministic monotonic counter).
  void Touch(KvPageId id);

  // --- Loss & recovery (ISSUE 10). ---------------------------------------
  // When RestorePage fails (tampered, truncated or dropped REE blob) the
  // page's data is gone but the session that references it is not: the
  // owner quarantines the page — blob discarded, a zeroed frame claimed,
  // state resident but flagged `lost` so every read path refuses it — and
  // then recomputes the covered positions before calling ClearLost.

  // Spilled -> resident+lost on a zeroed frame. refs/pins are untouched.
  Status Quarantine(KvPageId id);
  bool lost(KvPageId id) const;
  // Recompute finished: the frame holds valid data again.
  Status ClearLost(KvPageId id);

  // Deterministic REE-misbehavior injection (src/common/fault_plan.h): the
  // spill_tamper and spill_drop classes sabotage the plan's window of
  // 1-based spills right after sealing — a flipped ciphertext byte or a
  // truncated blob. Restores of those generations then fail exactly like a
  // real adversarial REE. Other classes are ignored here.
  void ArmFaultPlan(const FaultPlan& plan) { fault_plan_ = plan; }

  // --- Frame data (valid only while resident; callers pin around use). ---

  uint16_t* Data16(KvPageId id);
  const uint16_t* Data16(KvPageId id) const;
  // Element offsets of row `pos_in_page` of `layer` within a page's K / V
  // plane.
  size_t KOffset(int layer, int pos_in_page) const {
    return (static_cast<size_t>(layer) * page_positions_ + pos_in_page) *
           kv_dim_;
  }
  size_t VOffset(int layer, int pos_in_page) const {
    return v_plane_ + KOffset(layer, pos_in_page);
  }

  // --- Accounting. -------------------------------------------------------

  // Full secure footprint of the frame store: frames() x page_bytes(). This
  // is what the TA's scratch budget covers — identical to
  // FramesFor(...) x PageBytes(...) by construction.
  uint64_t PoolBytes() const { return frame_owner_.size() * page_bytes_; }
  // Secure bytes currently holding page data.
  uint64_t ResidentBytes() const {
    return static_cast<uint64_t>(resident_pages()) * page_bytes_;
  }
  // Plaintext-equivalent bytes of pages currently spilled to REE memory
  // (each sealed blob adds kSealHeaderBytes).
  uint64_t SpilledBytes() const {
    return static_cast<uint64_t>(spilled_pages_) * page_bytes_;
  }
  const KvPageStats& stats() const { return stats_; }
  void RecordCowCopy() { ++stats_.cow_copies; }

  // --- REE-visible spill surface. ----------------------------------------
  // A spilled page's blob lives in untrusted REE memory, which the threat
  // model says an attacker can rewrite, truncate or extend at will; tests
  // model that through these mutable views. nullptr / 0 when the page is
  // not spilled.
  std::vector<uint8_t>* ree_blob(KvPageId id);
  uint8_t* ree_blob_data(KvPageId id) {
    std::vector<uint8_t>* blob = ree_blob(id);
    return blob == nullptr ? nullptr : blob->data();
  }
  size_t ree_blob_size(KvPageId id) const;

 private:
  enum class PageState : uint8_t { kFree = 0, kResident = 1, kSpilled = 2 };

  struct Page {
    PageState state = PageState::kFree;
    int frame = -1;
    int refs = 0;
    int pins = 0;
    bool lost = false;  // Quarantined: frame is zeroed, awaiting recompute.
    uint64_t lru = 0;
    uint64_t spill_seq = 0;         // Generation bound into the seal.
    std::vector<uint8_t> ree_blob;  // Sealed page while spilled.
  };

  bool ValidLive(KvPageId id) const {
    return id < pages_.size() && pages_[id].state != PageState::kFree;
  }
  uint8_t* FrameBytes(int frame) {
    return reinterpret_cast<uint8_t*>(frames_.data()) +
           static_cast<size_t>(frame) * page_bytes_;
  }
  const uint8_t* FrameBytes(int frame) const {
    return reinterpret_cast<const uint8_t*>(frames_.data()) +
           static_cast<size_t>(frame) * page_bytes_;
  }
  void ScrubFrame(int frame);
  // Claims a frame: free list first, else spill the LRU unpinned page.
  Result<int> TakeFrame();
  Status SpillPage(KvPageId id);
  Status RestorePage(KvPageId id);

  int n_layers_;
  int kv_dim_;
  int page_positions_;
  bool spill_;
  AesKey128 spill_key_;
  size_t v_plane_ = 0;       // Element offset of the V plane within a page.
  uint64_t page_bytes_ = 0;
  // Frame store: uint64 words for alignment; page_bytes_ is always a
  // multiple of 8 (kv_dim is even, K+V doubles it, elements are 2 bytes).
  std::vector<uint64_t> frames_;
  std::vector<KvPageId> frame_owner_;  // frame -> page (kInvalidKvPage free).
  std::vector<int> free_frames_;
  std::vector<Page> pages_;
  std::vector<KvPageId> free_ids_;
  int spilled_pages_ = 0;
  uint64_t lru_clock_ = 0;   // Monotonic recency counter — never wall time.
  uint64_t spill_clock_ = 0;
  FaultPlan fault_plan_;  // Spill ordinal: stats_.spills + 1.
  KvPageStats stats_;
};

}  // namespace tzllm

#endif  // SRC_LLM_KV_PAGE_POOL_H_

#include "src/llm/kv_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/bytes.h"
#include "src/llm/simd/kernels.h"
#include "src/llm/tensor.h"

namespace tzllm {

namespace {

// The KV snapshot header's storage tag. The cache stores f16 only; the tag
// stays in the format so snapshots keep their layout, and any other value
// is rejected as a geometry mismatch.
constexpr uint32_t kSnapshotF16Tag = 0;

// Pages one session needs to hold its full context resident.
uint64_t PagesPerContext(const ModelSpec& spec, int page_positions) {
  const uint64_t pp = static_cast<uint64_t>(std::max(1, page_positions));
  return (static_cast<uint64_t>(spec.config().max_ctx) + pp - 1) / pp;
}

// The pool an arena built with `options` carves — the one helper both
// KvArena's constructor and KvArena::BudgetBytes resolve the default budget
// through, so the two can never drift. pool_bytes == 0 becomes every
// slot's full context in whole pages.
KvPagePoolOptions ArenaPoolOptions(const ModelSpec& spec,
                                   const KvArenaOptions& options) {
  KvPagePoolOptions pool = options.pool;
  if (pool.pool_bytes == 0) {
    pool.pool_bytes =
        static_cast<uint64_t>(std::max(1, options.slots)) *
        PagesPerContext(spec, pool.page_positions) *
        KvPagePool::PageBytes(spec, pool.page_positions);
  }
  return pool;
}

// A standalone cache's private pool: one frame whose one page holds the
// whole context, spill off. At this page size KOffset/VOffset index one
// contiguous [layer][pos][kv_dim] plane each.
std::unique_ptr<KvPagePool> OnePagePool(const ModelSpec& spec) {
  KvPagePoolOptions opts;
  opts.page_positions = spec.config().max_ctx;
  opts.pool_bytes = KvPagePool::PageBytes(spec, opts.page_positions);
  opts.spill = false;
  return std::make_unique<KvPagePool>(spec, opts);
}

// FNV-1a over the token ids' little-endian bytes: the prefix registry key.
// Deterministic across runs and platforms (no pointer or clock input).
uint64_t HashTokens(const TokenId* tokens, size_t n) {
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t t = static_cast<uint32_t>(tokens[i]);
    for (int b = 0; b < 4; ++b) {
      h ^= (t >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

KvCachePin& KvCachePin::operator=(KvCachePin&& other) noexcept {
  if (this != &other) {
    if (cache_ != nullptr) {
      cache_->UnpinStep();
    }
    cache_ = other.cache_;
    other.cache_ = nullptr;
  }
  return *this;
}

KvCachePin::~KvCachePin() {
  if (cache_ != nullptr) {
    cache_->UnpinStep();
  }
}

KvCache::KvCache(const ModelSpec& spec, const KernelDispatch* kernels)
    : KvCache(spec, OnePagePool(spec), kernels) {}

KvCache::KvCache(const ModelSpec& spec, std::unique_ptr<KvPagePool> own_pool,
                 const KernelDispatch* kernels)
    : KvCache(spec, own_pool.get(), kernels) {
  own_pool_ = std::move(own_pool);
}

KvCache::KvCache(const ModelSpec& spec, KvPagePool* pool,
                 const KernelDispatch* kernels)
    : n_layers_(spec.config().n_layers),
      kv_dim_(spec.config().kv_dim()),
      max_ctx_(spec.config().max_ctx),
      kernels_(kernels != nullptr ? kernels : ActiveKernels()),
      filled_(n_layers_, 0),
      pool_(pool),
      page_positions_(pool->page_positions()) {}

KvCache::~KvCache() { ReleasePages(); }

Status KvCache::AppendBatch(int layer, int m, const float* k, const float* v) {
  if (layer < 0 || layer >= n_layers_) {
    return InvalidArgument("bad layer");
  }
  if (m <= 0) {
    return InvalidArgument("bad batch size");
  }
  if (filled_[layer] + m > max_ctx_) {
    return ResourceExhausted("KV cache full (context length exceeded)");
  }
  // Split the batch into per-page runs. Each destination page is made
  // resident and exclusively owned (copy-on-write off a shared prefix)
  // before its rows are converted in — page hops change only WHERE rows
  // land; the converter and the row order are the same at every page size,
  // so the stored bytes are bit-identical.
  TZLLM_RETURN_IF_ERROR(EnsurePagesFor(filled_[layer] + m));
  int done = 0;
  while (done < m) {
    const int pos = filled_[layer] + done;
    const size_t page_idx = static_cast<size_t>(pos) / page_positions_;
    const int in_page = pos % page_positions_;
    const int run = std::min(m - done, page_positions_ - in_page);
    TZLLM_RETURN_IF_ERROR(MakeWritable(page_idx));
    const size_t n = static_cast<size_t>(run) * kv_dim_;
    const size_t src = static_cast<size_t>(done) * kv_dim_;
    uint16_t* base = pool_->Data16(pages_[page_idx]);
    kernels_->f32_to_f16(k + src, base + pool_->KOffset(layer, in_page), n);
    kernels_->f32_to_f16(v + src, base + pool_->VOffset(layer, in_page), n);
    done += run;
  }
  filled_[layer] += m;
  return OkStatus();
}

Status KvCache::EnsurePagesFor(int pos_end) {
  while (static_cast<int>(pages_.size()) * page_positions_ < pos_end) {
    // A page allocated mid-step is born pinned once per active pin level so
    // it cannot become an eviction victim of a later allocation in the same
    // step (the invariant: while pinned, every page of this cache holds
    // pin_depth_ pins from it).
    TZLLM_ASSIGN_OR_RETURN(id, pool_->Alloc(/*pinned=*/pin_depth_ > 0));
    for (int d = 1; d < pin_depth_; ++d) {
      TZLLM_RETURN_IF_ERROR(pool_->Pin(id));
    }
    pages_.push_back(id);
  }
  return OkStatus();
}

Status KvCache::MakeWritable(size_t page_idx) {
  const KvPageId old_id = pages_[page_idx];
  TZLLM_RETURN_IF_ERROR(pool_->EnsureResident(old_id));
  if (pool_->refcount(old_id) == 1) {
    pool_->Touch(old_id);
    return OkStatus();
  }
  // Copy-on-write: the page is shared (another session or the prefix
  // registry holds it), so divergence privatizes it first. Pin the source
  // so allocating the copy cannot evict it mid-copy.
  TZLLM_RETURN_IF_ERROR(pool_->Pin(old_id));
  auto new_id_result = pool_->Alloc(/*pinned=*/pin_depth_ > 0);
  if (!new_id_result.ok()) {
    pool_->Unpin(old_id);
    return new_id_result.status();
  }
  const KvPageId new_id = *new_id_result;
  for (int d = 1; d < pin_depth_; ++d) {
    TZLLM_RETURN_IF_ERROR(pool_->Pin(new_id));
  }
  std::memcpy(pool_->Data16(new_id), pool_->Data16(old_id),
              pool_->page_bytes());
  pool_->Unpin(old_id);  // The copy pin.
  // The source leaves this cache's page table, taking our step pins with it.
  for (int d = 0; d < pin_depth_; ++d) {
    pool_->Unpin(old_id);
  }
  TZLLM_RETURN_IF_ERROR(pool_->Unref(old_id));
  pages_[page_idx] = new_id;
  pool_->RecordCowCopy();
  return OkStatus();
}

Result<KvCachePin> KvCache::PinForStep() {
  for (size_t i = 0; i < pages_.size(); ++i) {
    const Status st = pool_->Pin(pages_[i]);
    if (!st.ok()) {
      for (size_t j = 0; j < i; ++j) {
        pool_->Unpin(pages_[j]);
      }
      return st;
    }
  }
  ++pin_depth_;
  return KvCachePin(this);
}

void KvCache::UnpinStep() {
  if (pin_depth_ <= 0) {
    return;
  }
  --pin_depth_;
  for (KvPageId id : pages_) {
    pool_->Unpin(id);
  }
}

Status KvCache::EnsureResident() {
  for (KvPageId id : pages_) {
    TZLLM_RETURN_IF_ERROR(pool_->EnsureResident(id));
  }
  return OkStatus();
}

Status KvCache::AdoptPrefix(const KvPageId* page_ids, size_t n_pages,
                            int positions) {
  if (seq_len_ != 0 || !pages_.empty()) {
    return InvalidArgument("AdoptPrefix into a non-empty cache");
  }
  if (positions <= 0 || positions > max_ctx_ ||
      n_pages != static_cast<size_t>((positions + page_positions_ - 1) /
                                     page_positions_)) {
    return InvalidArgument("AdoptPrefix pages do not cover the positions");
  }
  pages_.reserve(n_pages);
  for (size_t i = 0; i < n_pages; ++i) {
    pool_->Ref(page_ids[i]);
    pool_->Touch(page_ids[i]);
    pages_.push_back(page_ids[i]);
  }
  for (int l = 0; l < n_layers_; ++l) {
    filled_[l] = positions;
  }
  seq_len_ = positions;
  return OkStatus();
}

Status KvCache::ProbeLostPages(std::vector<int>* lost_pages) {
  lost_pages->clear();
  for (size_t i = 0; i < pages_.size(); ++i) {
    const KvPageId id = pages_[i];
    if (pool_->lost(id)) {
      lost_pages->push_back(static_cast<int>(i));
      continue;
    }
    if (pool_->resident(id)) {
      continue;
    }
    const Status st = pool_->EnsureResident(id);
    if (st.ok()) {
      continue;
    }
    if (st.code() != ErrorCode::kDataCorruption) {
      return st;  // Pool pressure etc. — not a loss, the caller retries.
    }
    TZLLM_RETURN_IF_ERROR(pool_->Quarantine(id));
    lost_pages->push_back(static_cast<int>(i));
  }
  return OkStatus();
}

Status KvCache::PrepareRecompute(int page_idx) {
  if (page_idx < 0 ||
      page_idx >= static_cast<int>(pages_.size())) {
    return InvalidArgument("PrepareRecompute on a bad page index");
  }
  const KvPageId old_id = pages_[page_idx];
  if (!pool_->lost(old_id)) {
    return OkStatus();  // Another holder's recovery already healed it.
  }
  if (pool_->refcount(old_id) == 1) {
    return pool_->ClearLost(old_id);
  }
  // Shared: detach onto a fresh private page. The lost original keeps its
  // flag, so every other holder hits the same recovery path instead of
  // silently reading zeros.
  TZLLM_ASSIGN_OR_RETURN(new_id, pool_->Alloc(/*pinned=*/pin_depth_ > 0));
  for (int d = 1; d < pin_depth_; ++d) {
    TZLLM_RETURN_IF_ERROR(pool_->Pin(new_id));
  }
  for (int d = 0; d < pin_depth_; ++d) {
    pool_->Unpin(old_id);
  }
  TZLLM_RETURN_IF_ERROR(pool_->Unref(old_id));
  pages_[page_idx] = new_id;
  return OkStatus();
}

Status KvCache::RewindFill(int pos) {
  if (pos < 0 || pos > max_ctx_) {
    return InvalidArgument("RewindFill position out of range");
  }
  for (int l = 0; l < n_layers_; ++l) {
    filled_[l] = pos;
  }
  seq_len_ = pos;
  return OkStatus();
}

void KvCache::ReleasePages() {
  for (KvPageId id : pages_) {
    const Status st = pool_->Unref(id);
    (void)st;  // Unref of a table entry fails only on a state bug.
  }
  pages_.clear();
}

void KvCache::Reset() {
  ReleasePages();
  seq_len_ = 0;
  std::fill(filled_.begin(), filled_.end(), 0);
}

uint64_t KvCache::CurrentBytes() const {
  const uint64_t row = static_cast<uint64_t>(kv_dim_) *
                       kKvVectorsPerPosition * kKvAccountedBytesPerElem;
  // Resident secure bytes only: appended rows whose page currently occupies
  // a pool frame. Spilled rows are SpilledBytes() — the split the serving
  // admission math relies on.
  uint64_t positions = 0;
  for (size_t i = 0; i < pages_.size(); ++i) {
    if (!pool_->resident(pages_[i])) {
      continue;
    }
    const int page_start = static_cast<int>(i) * page_positions_;
    for (int l = 0; l < n_layers_; ++l) {
      positions += std::clamp(filled_[l] - page_start, 0, page_positions_);
    }
  }
  return positions * row;
}

uint64_t KvCache::SpilledBytes() const {
  uint64_t positions = 0;
  for (size_t i = 0; i < pages_.size(); ++i) {
    if (pool_->resident(pages_[i])) {
      continue;
    }
    const int page_start = static_cast<int>(i) * page_positions_;
    for (int l = 0; l < n_layers_; ++l) {
      positions += std::clamp(filled_[l] - page_start, 0, page_positions_);
    }
  }
  return positions * kv_dim_ * kKvVectorsPerPosition *
         kKvAccountedBytesPerElem;
}

uint64_t KvCache::ArenaBytes() const {
  const uint64_t full_pages = (max_ctx_ + page_positions_ - 1) / page_positions_;
  return full_pages * pool_->page_bytes();
}

Status KvCache::SerializeState(std::vector<uint8_t>* out) const {
  // Little-endian explicit layout (matches the checkpoint blob idiom):
  // geometry guard first so a restore into a differently-shaped cache is a
  // clean error, then seq_len + fills, then only the filled row prefixes —
  // an early-generation session costs its resident bytes, not max_ctx. Rows
  // are gathered across pages in position order, so the format never
  // depends on the page size.
  ByteWriter w(out);
  w.U32(static_cast<uint32_t>(n_layers_));
  w.U32(static_cast<uint32_t>(kv_dim_));
  w.U32(static_cast<uint32_t>(max_ctx_));
  w.U32(kSnapshotF16Tag);
  w.U32(static_cast<uint32_t>(seq_len_));
  for (int l = 0; l < n_layers_; ++l) {
    w.U32(static_cast<uint32_t>(filled_[l]));
  }
  for (int l = 0; l < n_layers_; ++l) {
    for (int plane = 0; plane < 2; ++plane) {
      int pos = 0;
      while (pos < filled_[l]) {
        const int run = std::min(RunLen(pos), filled_[l] - pos);
        // Per-run residency: restoring a later page may spill an earlier
        // one under pressure, but its rows are already copied out by then.
        TZLLM_RETURN_IF_ERROR(
            pool_->EnsureResident(pages_[pos / page_positions_]));
        const uint16_t* src =
            plane == 0 ? KeyHalfAt(l, pos) : ValueHalfAt(l, pos);
        w.Bytes(reinterpret_cast<const uint8_t*>(src),
                static_cast<size_t>(run) * kv_dim_ * kKvAccountedBytesPerElem);
        pos += run;
      }
    }
  }
  return OkStatus();
}

Status KvCache::RestoreState(const uint8_t* data, size_t len) {
  ByteReader r(data, len);
  uint32_t layers = 0, dim = 0, ctx = 0, storage = 0, seq = 0;
  if (!r.U32(&layers) || !r.U32(&dim) || !r.U32(&ctx) || !r.U32(&storage)) {
    return Status(ErrorCode::kDataCorruption, "truncated KV snapshot header");
  }
  if (layers != static_cast<uint32_t>(n_layers_) ||
      dim != static_cast<uint32_t>(kv_dim_) ||
      ctx != static_cast<uint32_t>(max_ctx_) ||
      storage != kSnapshotF16Tag) {
    return InvalidArgument(
        "KV snapshot geometry does not match this cache (different model or "
        "storage tag)");
  }
  if (!r.U32(&seq) || seq > static_cast<uint32_t>(max_ctx_)) {
    return Status(ErrorCode::kDataCorruption, "bad KV snapshot length");
  }
  std::vector<uint32_t> fills(n_layers_);
  for (int l = 0; l < n_layers_; ++l) {
    if (!r.U32(&fills[l]) || fills[l] > static_cast<uint32_t>(max_ctx_)) {
      return Status(ErrorCode::kDataCorruption, "bad KV snapshot fill mark");
    }
  }
  size_t body = 0;
  for (int l = 0; l < n_layers_; ++l) {
    body += static_cast<size_t>(fills[l]) * kv_dim_ *
            kKvAccountedBytesPerElem * kKvVectorsPerPosition;
  }
  if (r.remaining() != body) {
    return Status(ErrorCode::kDataCorruption,
                  "KV snapshot body does not match its fill marks");
  }
  Reset();
  // Scatter across pages: pin for the duration so the pages written first
  // cannot be spilled by the allocation of the pages written last.
  int cover = static_cast<int>(seq);
  for (int l = 0; l < n_layers_; ++l) {
    cover = std::max(cover, static_cast<int>(fills[l]));
  }
  TZLLM_ASSIGN_OR_RETURN(pin, PinForStep());
  (void)pin;
  if (cover > 0) {
    TZLLM_RETURN_IF_ERROR(EnsurePagesFor(cover));
  }
  for (int l = 0; l < n_layers_; ++l) {
    for (int plane = 0; plane < 2; ++plane) {
      int pos = 0;
      const int fill = static_cast<int>(fills[l]);
      while (pos < fill) {
        const int run = std::min(RunLen(pos), fill - pos);
        const KvPageId id = pages_[pos / page_positions_];
        const int in_page = pos % page_positions_;
        const size_t at = plane == 0 ? pool_->KOffset(l, in_page)
                                     : pool_->VOffset(l, in_page);
        // Cannot fail: the body length was checked against the fills.
        (void)r.Bytes(reinterpret_cast<uint8_t*>(pool_->Data16(id) + at),
                      static_cast<size_t>(run) * kv_dim_ *
                          kKvAccountedBytesPerElem);
        pos += run;
      }
    }
    filled_[l] = static_cast<int>(fills[l]);
  }
  seq_len_ = static_cast<int>(seq);
  return OkStatus();
}

KvArena::KvArena(const ModelSpec& spec, const KvArenaOptions& options)
    : pool_(std::make_unique<KvPagePool>(spec,
                                         ArenaPoolOptions(spec, options))),
      prefix_cap_(std::max(0, options.prefix_entries)) {
  const int slots = std::max(1, options.slots);
  live_slots_.assign(slots, false);
  caches_.reserve(slots);
  for (int s = 0; s < slots; ++s) {
    caches_.push_back(
        std::make_unique<KvCache>(spec, pool_.get(), options.kernels));
  }
}

uint64_t KvArena::BudgetBytes(const ModelSpec& spec,
                              const KvArenaOptions& options) {
  const KvPagePoolOptions pool = ArenaPoolOptions(spec, options);
  return static_cast<uint64_t>(KvPagePool::FramesFor(spec, pool)) *
         KvPagePool::PageBytes(spec, pool.page_positions);
}

Result<int> KvArena::Acquire() {
  for (size_t s = 0; s < caches_.size(); ++s) {
    if (!live_slots_[s]) {
      live_slots_[s] = true;
      ++live_;
      caches_[s]->Reset();
      return static_cast<int>(s);
    }
  }
  return Status(ErrorCode::kResourceExhausted,
                "KV arena full: every session slot is live (raise "
                "EngineOptions::max_sessions or finish/evict a session)");
}

Status KvArena::Release(int slot) {
  if (slot < 0 || slot >= slots() || !live_slots_[slot]) {
    return InvalidArgument("KV arena release of a free or invalid slot");
  }
  caches_[slot]->Reset();
  live_slots_[slot] = false;
  --live_;
  return OkStatus();
}

KvCache* KvArena::cache(int slot) {
  return slot >= 0 && slot < slots() ? caches_[slot].get() : nullptr;
}

const KvCache* KvArena::cache(int slot) const {
  return slot >= 0 && slot < slots() ? caches_[slot].get() : nullptr;
}

uint64_t KvArena::SlotBytes() const { return caches_[0]->ArenaBytes(); }

uint64_t KvArena::CurrentBytes() const {
  uint64_t total = 0;
  for (size_t s = 0; s < caches_.size(); ++s) {
    if (live_slots_[s]) {
      total += caches_[s]->CurrentBytes();
    }
  }
  return total;
}

uint64_t KvArena::SpilledBytes() const {
  uint64_t total = 0;
  for (size_t s = 0; s < caches_.size(); ++s) {
    if (live_slots_[s]) {
      total += caches_[s]->SpilledBytes();
    }
  }
  return total;
}

int KvArena::AdoptPrefix(int slot, const std::vector<TokenId>& prompt) {
  if (prefix_cap_ == 0 || prompt.size() < 2) {
    return 0;
  }
  KvCache* c = cache(slot);
  if (c == nullptr || c->seq_len() != 0 || c->PageCount() != 0) {
    return 0;
  }
  ++prefix_stats_.lookups;
  const int page_positions = pool_->page_positions();
  // The final prompt position must run in-session — its forward pass
  // produces the first-token logits — so adoption is capped one short.
  const size_t cap = prompt.size() - 1;
  size_t best = prefix_.size();
  size_t best_len = 0;
  for (size_t e = 0; e < prefix_.size(); ++e) {
    const std::vector<TokenId>& tokens = prefix_[e].tokens;
    const size_t limit = std::min(cap, tokens.size());
    size_t lcp = 0;
    while (lcp < limit && tokens[lcp] == prompt[lcp]) {
      ++lcp;
    }
    if (lcp > best_len) {
      best = e;
      best_len = lcp;
    }
  }
  // Sub-page matches are skipped: the first divergent append would
  // copy-on-write the whole page, costing more than the positions saved.
  if (best == prefix_.size() ||
      best_len < static_cast<size_t>(page_positions)) {
    return 0;
  }
  const int positions = static_cast<int>(best_len);
  const size_t n_pages =
      static_cast<size_t>((positions + page_positions - 1) / page_positions);
  const Status adopted =
      c->AdoptPrefix(prefix_[best].pages.data(), n_pages, positions);
  if (!adopted.ok()) {
    return 0;
  }
  prefix_[best].last_hit = ++prefix_clock_;
  ++prefix_stats_.hits;
  prefix_stats_.adopted_positions += positions;
  return positions;
}

Status KvArena::RegisterPrefix(int slot, const std::vector<TokenId>& tokens) {
  if (prefix_cap_ == 0) {
    return OkStatus();
  }
  const int page_positions = pool_->page_positions();
  const int positions = static_cast<int>(tokens.size());
  if (positions < page_positions) {
    return OkStatus();  // Too short to ever be adopted; don't hold pages.
  }
  KvCache* c = cache(slot);
  if (c == nullptr || c->seq_len() < positions) {
    return InvalidArgument(
        "RegisterPrefix of positions the slot has not cached");
  }
  const uint64_t hash = HashTokens(tokens.data(), tokens.size());
  for (PrefixEntry& e : prefix_) {
    if (e.hash == hash && e.tokens == tokens) {
      e.last_hit = ++prefix_clock_;  // Dedup: recency bump only.
      return OkStatus();
    }
  }
  const size_t n_pages =
      static_cast<size_t>((positions + page_positions - 1) / page_positions);
  PrefixEntry entry;
  entry.hash = hash;
  entry.tokens = tokens;
  entry.pages.assign(c->pages().begin(), c->pages().begin() + n_pages);
  // One registry reference per page: the owner's next append into a covered
  // page copies-on-write instead of mutating the shared rows.
  for (KvPageId id : entry.pages) {
    pool_->Ref(id);
  }
  entry.last_hit = ++prefix_clock_;
  if (static_cast<int>(prefix_.size()) >= prefix_cap_) {
    size_t victim = 0;
    for (size_t e = 1; e < prefix_.size(); ++e) {
      if (prefix_[e].last_hit < prefix_[victim].last_hit) {
        victim = e;
      }
    }
    DropPrefixEntry(victim);
  }
  prefix_.push_back(std::move(entry));
  ++prefix_stats_.registered;
  return OkStatus();
}

int KvArena::DropLostPrefixEntries() {
  int dropped = 0;
  for (size_t e = prefix_.size(); e-- > 0;) {
    bool has_lost = false;
    for (KvPageId id : prefix_[e].pages) {
      if (pool_->lost(id)) {
        has_lost = true;
        break;
      }
    }
    if (has_lost) {
      DropPrefixEntry(e);
      ++dropped;
    }
  }
  return dropped;
}

void KvArena::DropPrefixEntry(size_t index) {
  for (KvPageId id : prefix_[index].pages) {
    const Status st = pool_->Unref(id);
    (void)st;  // A registry reference is always valid to drop.
  }
  prefix_.erase(prefix_.begin() + index);
  ++prefix_stats_.evicted;
}

}  // namespace tzllm

#include "src/llm/kv_page_pool.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "src/crypto/seal.h"

namespace tzllm {

namespace {

// A spill opens only as the page and spill generation it was sealed for, so
// the REE cannot substitute another page's blob or replay an older spill of
// this one within the pool's lifetime.
SealContext SpillContext(KvPageId id, uint64_t generation) {
  return {SealKind::kKvPage, std::to_string(id), generation};
}

}  // namespace

uint64_t KvPagePool::PageBytes(const ModelSpec& spec, int page_positions) {
  const LlmConfig& c = spec.config();
  return static_cast<uint64_t>(c.n_layers) * page_positions * c.kv_dim() *
         kKvVectorsPerPosition * kKvAccountedBytesPerElem;
}

int KvPagePool::FramesFor(const ModelSpec& spec,
                          const KvPagePoolOptions& opts) {
  const uint64_t page = PageBytes(spec, opts.page_positions);
  return static_cast<int>(std::max<uint64_t>(1, opts.pool_bytes / page));
}

KvPagePool::KvPagePool(const ModelSpec& spec, const KvPagePoolOptions& opts)
    : n_layers_(spec.config().n_layers),
      kv_dim_(spec.config().kv_dim()),
      page_positions_(std::max(1, opts.page_positions)),
      spill_(opts.spill),
      spill_key_(opts.spill_key) {
  v_plane_ = static_cast<size_t>(n_layers_) * page_positions_ * kv_dim_;
  page_bytes_ = PageBytes(spec, page_positions_);
  const int n_frames = FramesFor(spec, opts);
  frames_.resize(static_cast<size_t>(n_frames) * page_bytes_ / sizeof(uint64_t),
                 0);
  frame_owner_.assign(n_frames, kInvalidKvPage);
  free_frames_.reserve(n_frames);
  // Highest index first so pop_back hands out frame 0, 1, ... in order.
  for (int f = n_frames - 1; f >= 0; --f) {
    free_frames_.push_back(f);
  }
}

void KvPagePool::ScrubFrame(int frame) {
  std::memset(FrameBytes(frame), 0, page_bytes_);
}

Result<int> KvPagePool::TakeFrame() {
  if (!free_frames_.empty()) {
    const int frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  // Evict the least-recently-touched unpinned resident page. The scan is
  // over live pages (bounded by frames + spilled), and ties break toward
  // the smallest id — fully deterministic.
  KvPageId victim = kInvalidKvPage;
  for (KvPageId id = 0; id < pages_.size(); ++id) {
    const Page& p = pages_[id];
    // A lost page must not spill: its zeroed frame would round-trip the
    // encrypt/verify path and come back as silently "valid" zeros.
    if (p.state != PageState::kResident || p.pins > 0 || p.lost) {
      continue;
    }
    if (victim == kInvalidKvPage || p.lru < pages_[victim].lru) {
      victim = id;
    }
  }
  if (victim == kInvalidKvPage) {
    return Status(ErrorCode::kResourceExhausted,
                  "KV page pool exhausted: every resident page is pinned "
                  "(shrink the decode batch or raise kv_pool_bytes)");
  }
  if (!spill_) {
    return Status(ErrorCode::kResourceExhausted,
                  "KV page pool full and spill is disabled "
                  "(KvPagePoolOptions::spill): raise pool_bytes or finish "
                  "a session");
  }
  TZLLM_RETURN_IF_ERROR(SpillPage(victim));
  const int frame = free_frames_.back();
  free_frames_.pop_back();
  return frame;
}

Status KvPagePool::SpillPage(KvPageId id) {
  Page& p = pages_[id];
  if (p.state != PageState::kResident) {
    return Internal("spill of a non-resident KV page");
  }
  p.spill_seq = ++spill_clock_;
  std::vector<uint8_t> blob = Seal(spill_key_, SpillContext(id, p.spill_seq),
                                   FrameBytes(p.frame), page_bytes_);
  const uint64_t ordinal = stats_.spills + 1;
  if (fault_plan_.Hits(FaultClass::kSpillDrop, ordinal)) {
    // The REE "loses" the blob: nothing but a stub survives, so restore
    // fails the size check.
    blob.resize(kSealHeaderBytes / 2);
  } else if (fault_plan_.Hits(FaultClass::kSpillTamper, ordinal)) {
    // One ciphertext byte flipped: decrypts fine, fails the tag.
    blob[kSealHeaderBytes + page_bytes_ / 2] ^= 0x5a;
  }
  p.ree_blob = std::move(blob);
  // Scrub before the frame is reused: no KV plaintext outlives eviction.
  ScrubFrame(p.frame);
  frame_owner_[p.frame] = kInvalidKvPage;
  free_frames_.push_back(p.frame);
  p.frame = -1;
  p.state = PageState::kSpilled;
  ++spilled_pages_;
  ++stats_.spills;
  return OkStatus();
}

Status KvPagePool::RestorePage(KvPageId id) {
  Page& p = pages_[id];
  if (p.state != PageState::kSpilled) {
    return Internal("restore of a non-spilled KV page");
  }
  // A dropped or padded blob fails before a frame is claimed for it.
  if (p.ree_blob.size() != kSealHeaderBytes + page_bytes_) {
    return Status(ErrorCode::kDataCorruption,
                  "spilled KV page blob has the wrong size");
  }
  TZLLM_ASSIGN_OR_RETURN(frame, TakeFrame());
  // Decrypts straight into the frame; a blob that fails to open leaves the
  // frame scrubbed, so it goes back on the free list as is.
  const Status opened =
      Open(spill_key_, SpillContext(id, p.spill_seq), p.ree_blob.data(),
           p.ree_blob.size(), FrameBytes(frame), page_bytes_);
  if (!opened.ok()) {
    free_frames_.push_back(frame);
    return opened;
  }
  p.ree_blob.clear();
  p.ree_blob.shrink_to_fit();
  p.frame = frame;
  frame_owner_[frame] = id;
  p.state = PageState::kResident;
  --spilled_pages_;
  ++stats_.restores;
  return OkStatus();
}

Result<KvPageId> KvPagePool::Alloc(bool pinned) {
  TZLLM_ASSIGN_OR_RETURN(frame, TakeFrame());
  KvPageId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<KvPageId>(pages_.size());
    pages_.emplace_back();
  }
  Page& p = pages_[id];
  p.state = PageState::kResident;
  p.frame = frame;
  p.refs = 1;
  p.pins = pinned ? 1 : 0;
  p.lost = false;
  p.lru = ++lru_clock_;
  p.spill_seq = 0;
  frame_owner_[frame] = id;
  // Frames are scrubbed on every release, so a fresh page is already zero.
  return id;
}

void KvPagePool::Ref(KvPageId id) {
  if (ValidLive(id)) {
    ++pages_[id].refs;
  }
}

Status KvPagePool::Unref(KvPageId id) {
  if (!ValidLive(id)) {
    return InvalidArgument("unref of a free or invalid KV page");
  }
  Page& p = pages_[id];
  if (--p.refs > 0) {
    return OkStatus();
  }
  if (p.pins > 0) {
    return Internal("last unref of a pinned KV page");
  }
  if (p.state == PageState::kResident) {
    ScrubFrame(p.frame);
    frame_owner_[p.frame] = kInvalidKvPage;
    free_frames_.push_back(p.frame);
    p.frame = -1;
  } else {
    p.ree_blob.clear();
    p.ree_blob.shrink_to_fit();
    --spilled_pages_;
  }
  p.state = PageState::kFree;
  free_ids_.push_back(id);
  return OkStatus();
}

int KvPagePool::refcount(KvPageId id) const {
  return ValidLive(id) ? pages_[id].refs : 0;
}

bool KvPagePool::resident(KvPageId id) const {
  return ValidLive(id) && pages_[id].state == PageState::kResident;
}

Status KvPagePool::EnsureResident(KvPageId id) {
  if (!ValidLive(id)) {
    return InvalidArgument("EnsureResident on a free or invalid KV page");
  }
  Page& p = pages_[id];
  if (p.lost) {
    return Status(ErrorCode::kDataCorruption,
                  "KV page was lost to REE misbehavior and awaits recompute");
  }
  if (p.state == PageState::kSpilled) {
    TZLLM_RETURN_IF_ERROR(RestorePage(id));
  }
  p.lru = ++lru_clock_;
  return OkStatus();
}

Status KvPagePool::Pin(KvPageId id) {
  TZLLM_RETURN_IF_ERROR(EnsureResident(id));
  ++pages_[id].pins;
  return OkStatus();
}

void KvPagePool::Unpin(KvPageId id) {
  if (ValidLive(id) && pages_[id].pins > 0) {
    --pages_[id].pins;
  }
}

void KvPagePool::Touch(KvPageId id) {
  if (ValidLive(id)) {
    pages_[id].lru = ++lru_clock_;
  }
}

Status KvPagePool::Quarantine(KvPageId id) {
  if (!ValidLive(id)) {
    return InvalidArgument("Quarantine on a free or invalid KV page");
  }
  Page& p = pages_[id];
  if (p.state != PageState::kSpilled) {
    return FailedPrecondition("Quarantine of a resident KV page");
  }
  // The blob is unrecoverable — drop it before claiming a frame so the
  // eviction scan never considers this page a spill candidate mid-claim.
  p.ree_blob.clear();
  p.ree_blob.shrink_to_fit();
  TZLLM_ASSIGN_OR_RETURN(frame, TakeFrame());
  // Frames are scrubbed on release, so the quarantined page reads as zeros
  // — but `lost` makes every read path refuse it until ClearLost.
  p.frame = frame;
  frame_owner_[frame] = id;
  p.state = PageState::kResident;
  p.lost = true;
  p.lru = ++lru_clock_;
  --spilled_pages_;
  ++stats_.pages_lost;
  return OkStatus();
}

bool KvPagePool::lost(KvPageId id) const {
  return ValidLive(id) && pages_[id].lost;
}

Status KvPagePool::ClearLost(KvPageId id) {
  if (!ValidLive(id) || !pages_[id].lost) {
    return FailedPrecondition("ClearLost on a page that is not lost");
  }
  if (pages_[id].state != PageState::kResident) {
    return Internal("lost KV page is not resident");
  }
  pages_[id].lost = false;
  pages_[id].lru = ++lru_clock_;
  return OkStatus();
}

uint16_t* KvPagePool::Data16(KvPageId id) {
  return resident(id) ? reinterpret_cast<uint16_t*>(FrameBytes(pages_[id].frame))
                      : nullptr;
}

const uint16_t* KvPagePool::Data16(KvPageId id) const {
  return resident(id)
             ? reinterpret_cast<const uint16_t*>(FrameBytes(pages_[id].frame))
             : nullptr;
}

std::vector<uint8_t>* KvPagePool::ree_blob(KvPageId id) {
  if (!ValidLive(id) || pages_[id].state != PageState::kSpilled) {
    return nullptr;
  }
  return &pages_[id].ree_blob;
}

size_t KvPagePool::ree_blob_size(KvPageId id) const {
  if (!ValidLive(id) || pages_[id].state != PageState::kSpilled) {
    return 0;
  }
  return pages_[id].ree_blob.size();
}

}  // namespace tzllm

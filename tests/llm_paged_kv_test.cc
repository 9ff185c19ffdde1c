// Paged KV cache: the page size must change WHERE the cache bytes live,
// never their values — rows, logits and greedy tokens stay bit-identical to
// the standalone one-page cache (max_ctx positions per page) across page
// hops, partial last pages, encrypted REE spill + restore, copy-on-write
// forks off a shared prefix, and over-subscribed serving. Tampering with a
// spilled page in REE memory fails closed with kDataCorruption (the session
// checkpoint contract), and the accounting (CurrentBytes resident-only,
// BudgetBytes == ArenaBytes) stays truthful at every storage width and page
// geometry.

#include "src/llm/kv_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/core/runtime.h"
#include "src/llm/tensor.h"

namespace tzllm {
namespace {

constexpr int kPagePositions = 4;

AesKey128 TestSpillKey() {
  AesKey128 key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0xA0 + i);
  }
  return key;
}

class PagedKvTest : public ::testing::Test {
 protected:
  PagedKvTest() : spec_(ModelSpec::Create(TestTinyModel())) {}

  int kv_dim() const { return spec_.config().kv_dim(); }
  int n_layers() const { return spec_.config().n_layers; }
  int max_ctx() const { return spec_.config().max_ctx; }

  KvPagePoolOptions PoolOpts(int frames, bool spill = true,
                             int page_positions = kPagePositions) const {
    KvPagePoolOptions o;
    o.page_positions = page_positions;
    o.pool_bytes = frames * KvPagePool::PageBytes(spec_, page_positions);
    o.spill = spill;
    o.spill_key = TestSpillKey();
    return o;
  }

  // The page geometries every layout test sweeps: single-position pages, a
  // size that does not divide max_ctx (so the last page is partial), the
  // default test page, and one whole-context page (the standalone layout).
  std::vector<int> PageSizes() const {
    return {1, 3, kPagePositions, max_ctx()};
  }
  int PagesPerContext(int page_positions) const {
    return (max_ctx() + page_positions - 1) / page_positions;
  }

  // Deterministic small-integer rows: every magnitude stays below 2048, so
  // each value is exactly representable at f16 up to a full max_ctx fill
  // and every comparison below is equality, not tolerance. K and V differ
  // in sign; `salt` distinguishes sessions.
  float KVal(int layer, int pos, int i, float salt = 0.0f) const {
    return 1000.0f * layer + 7.0f * pos + i % 7 + salt;
  }
  float VVal(int layer, int pos, int i, float salt = 0.0f) const {
    return -1.0f - KVal(layer, pos, i, salt);
  }

  void AppendPosition(KvCache* c, int pos, float salt = 0.0f) const {
    std::vector<float> k(kv_dim()), v(kv_dim());
    for (int l = 0; l < n_layers(); ++l) {
      for (int i = 0; i < kv_dim(); ++i) {
        k[i] = KVal(l, pos, i, salt);
        v[i] = VVal(l, pos, i, salt);
      }
      ASSERT_TRUE(c->AppendBatch(l, 1, k.data(), v.data()).ok())
          << "layer " << l << " pos " << pos;
    }
    c->FinishPositions(1);
  }

  void FillCache(KvCache* c, int positions, float salt = 0.0f) const {
    for (int p = 0; p < positions; ++p) {
      AppendPosition(c, p, salt);
    }
  }

  // Reads one position's rows back (caller ensured residency for paged
  // caches) and checks them against the fill pattern.
  void ExpectRow(const KvCache& c, int layer, int pos,
                 float salt = 0.0f) const {
    for (int i = 0; i < kv_dim(); ++i) {
      EXPECT_EQ(F16ToF32(c.KeyHalfAt(layer, pos)[i]), KVal(layer, pos, i, salt))
          << "K layer " << layer << " pos " << pos << " elem " << i;
      EXPECT_EQ(F16ToF32(c.ValueHalfAt(layer, pos)[i]),
                VVal(layer, pos, i, salt))
          << "V layer " << layer << " pos " << pos << " elem " << i;
    }
  }

  // Paged read with residency: restore the position's page first (the
  // executor's pin does this in production).
  void ExpectRowResident(KvCache* c, KvPagePool* pool, int layer, int pos,
                         float salt = 0.0f) const {
    ASSERT_TRUE(
        pool->EnsureResident(c->pages()[pos / c->page_positions()]).ok());
    ExpectRow(*c, layer, pos, salt);
  }

  ModelSpec spec_;
};

// --- Pool geometry and budgets. -------------------------------------------

TEST_F(PagedKvTest, PoolGeometryAndFrameFloor) {
  const uint64_t f16 = KvPagePool::PageBytes(spec_, kPagePositions);
  EXPECT_EQ(f16, static_cast<uint64_t>(n_layers()) * kPagePositions *
                     kv_dim() * kKvVectorsPerPosition * 2);

  // pool_bytes == 0 still yields one frame (the pool is never zero-sized);
  // otherwise the frame count is the floor of the budget.
  KvPagePoolOptions opts = PoolOpts(0);
  opts.pool_bytes = 0;
  EXPECT_EQ(KvPagePool::FramesFor(spec_, opts), 1);
  opts.pool_bytes = 3 * f16 + f16 / 2;
  EXPECT_EQ(KvPagePool::FramesFor(spec_, opts), 3);

  KvPagePool pool(spec_, PoolOpts(3));
  EXPECT_EQ(pool.frames(), 3);
  EXPECT_EQ(pool.free_frames(), 3);
  EXPECT_EQ(pool.page_bytes(), f16);
  EXPECT_EQ(pool.PoolBytes(), 3 * f16);
}

// --- Spill / restore. -----------------------------------------------------

TEST_F(PagedKvTest, SpillRoundTripRestoresExactBytes) {
  KvPagePool pool(spec_, PoolOpts(1));
  auto a = pool.Alloc(/*pinned=*/false);
  ASSERT_TRUE(a.ok());
  uint16_t* data = pool.Data16(*a);
  ASSERT_NE(data, nullptr);
  const size_t elems = pool.page_bytes() / sizeof(uint16_t);
  for (size_t i = 0; i < elems; ++i) {
    data[i] = static_cast<uint16_t>(i * 2654435761u);
  }
  std::vector<uint16_t> expected(data, data + elems);

  // The second allocation evicts the only unpinned page to REE memory.
  auto b = pool.Alloc(false);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(pool.resident(*a));
  EXPECT_EQ(pool.spilled_pages(), 1);
  EXPECT_EQ(pool.stats().spills, 1u);
  EXPECT_EQ(pool.SpilledBytes(), pool.page_bytes());
  EXPECT_EQ(pool.Data16(*a), nullptr);

  // The REE blob is ciphertext: no plaintext KV row survives in it.
  ASSERT_NE(pool.ree_blob_data(*a), nullptr);
  ASSERT_GT(pool.ree_blob_size(*a), pool.page_bytes());
  const uint8_t* ct = pool.ree_blob_data(*a) +
                      (pool.ree_blob_size(*a) - pool.page_bytes());
  EXPECT_NE(std::memcmp(ct, expected.data(), pool.page_bytes()), 0);

  // Restore decrypts + verifies and hands back the exact bytes (evicting
  // the other page in turn — one frame total).
  ASSERT_TRUE(pool.EnsureResident(*a).ok());
  EXPECT_FALSE(pool.resident(*b));
  EXPECT_EQ(pool.stats().restores, 1u);
  data = pool.Data16(*a);
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(std::memcmp(data, expected.data(), pool.page_bytes()), 0);
}

TEST_F(PagedKvTest, TamperedSpillBlobFailsClosed) {
  KvPagePool pool(spec_, PoolOpts(1));
  auto a = pool.Alloc(false);
  ASSERT_TRUE(a.ok());
  pool.Data16(*a)[7] = 0x1234;
  auto b = pool.Alloc(false);
  ASSERT_TRUE(b.ok());
  ASSERT_FALSE(pool.resident(*a));

  // Flip one ciphertext byte: the decrypted page no longer matches its
  // seal's tag — kDataCorruption, never silently wrong KV.
  uint8_t* blob = pool.ree_blob_data(*a);
  ASSERT_NE(blob, nullptr);
  const size_t last = pool.ree_blob_size(*a) - 1;
  blob[last] ^= 0x01;
  EXPECT_EQ(pool.EnsureResident(*a).code(), ErrorCode::kDataCorruption);

  // Undoing the flip makes the same blob restorable again: the failure was
  // the tamper, not the spill machinery.
  ASSERT_NE(pool.ree_blob_data(*a), nullptr);
  pool.ree_blob_data(*a)[last] ^= 0x01;
  EXPECT_TRUE(pool.EnsureResident(*a).ok());
  EXPECT_EQ(F16ToF32(pool.Data16(*a)[7]), F16ToF32(0x1234));

  // A flipped tag byte (the tag follows the 8-byte magic; the page id and
  // spill generation it binds are never stored) is rejected too.
  ASSERT_FALSE(pool.resident(*b));
  pool.ree_blob_data(*b)[8] ^= 0xFF;
  EXPECT_EQ(pool.EnsureResident(*b).code(), ErrorCode::kDataCorruption);
}

// Page 0's first spill is the same (page id, generation) in every pool, so
// two pools under one key — two boots of one model — must still not share
// a keystream: the XOR of the two ciphertexts may match the XOR of the two
// pages only at chance rate (1 offset in 256), not everywhere.
TEST_F(PagedKvTest, FirstSpillsOfTwoPoolsShareNoKeystream) {
  std::vector<std::vector<uint8_t>> plain, cipher;
  for (uint32_t salt : {1u, 2u}) {
    KvPagePool pool(spec_, PoolOpts(1));
    auto a = pool.Alloc(false);
    ASSERT_TRUE(a.ok());
    ASSERT_EQ(*a, 0u);
    uint16_t* data = pool.Data16(*a);
    const size_t elems = pool.page_bytes() / sizeof(uint16_t);
    for (size_t i = 0; i < elems; ++i) {
      data[i] = static_cast<uint16_t>((i + salt) * 2654435761u >> 7);
    }
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(data);
    plain.emplace_back(bytes, bytes + pool.page_bytes());
    ASSERT_TRUE(pool.Alloc(false).ok());  // Spills page 0.
    const uint8_t* blob = pool.ree_blob_data(*a);
    ASSERT_NE(blob, nullptr);
    const uint8_t* blob_end = blob + pool.ree_blob_size(*a);
    cipher.emplace_back(blob_end - pool.page_bytes(), blob_end);
  }
  ASSERT_NE(plain[0], plain[1]);
  size_t reused = 0;
  for (size_t i = 0; i < plain[0].size(); ++i) {
    reused += (cipher[0][i] ^ cipher[1][i]) == (plain[0][i] ^ plain[1][i]);
  }
  EXPECT_LE(reused, plain[0].size() / 50);  // <= 2%.
}

TEST_F(PagedKvTest, PinnedPagesAreNeverEvicted) {
  KvPagePool pool(spec_, PoolOpts(1));
  auto a = pool.Alloc(/*pinned=*/true);
  ASSERT_TRUE(a.ok());
  // The only frame is pinned: allocation cannot evict it.
  EXPECT_EQ(pool.Alloc(false).status().code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(pool.resident(*a));
  pool.Unpin(*a);
  auto b = pool.Alloc(false);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(pool.resident(*a));
}

TEST_F(PagedKvTest, SpillDisabledIsAHardBudget) {
  KvPagePool pool(spec_, PoolOpts(1, /*spill=*/false));
  auto a = pool.Alloc(false);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(pool.Alloc(false).status().code(), ErrorCode::kResourceExhausted);
  // Nothing left the secure region.
  EXPECT_EQ(pool.spilled_pages(), 0);
  EXPECT_EQ(pool.stats().spills, 0u);
}

TEST_F(PagedKvTest, LastUnrefScrubsAndRecyclesTheFrame) {
  KvPagePool pool(spec_, PoolOpts(2));
  auto a = pool.Alloc(false);
  ASSERT_TRUE(a.ok());
  pool.Data16(*a)[0] = 0xBEEF;
  pool.Ref(*a);
  EXPECT_EQ(pool.refcount(*a), 2);
  ASSERT_TRUE(pool.Unref(*a).ok());
  EXPECT_EQ(pool.refcount(*a), 1);
  EXPECT_TRUE(pool.resident(*a));
  ASSERT_TRUE(pool.Unref(*a).ok());
  EXPECT_EQ(pool.free_frames(), 2);

  // The recycled id hands out a scrubbed frame: no prior session's KV
  // plaintext is observable through a fresh allocation.
  auto again = pool.Alloc(false);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *a);
  const uint16_t* data = pool.Data16(*again);
  const size_t elems = pool.page_bytes() / sizeof(uint16_t);
  for (size_t i = 0; i < elems; ++i) {
    ASSERT_EQ(data[i], 0) << "elem " << i;
  }
}

// --- Page geometry vs the one-page cache. ---------------------------------

TEST_F(PagedKvTest, PagedRowsMatchOnePageCacheBitExactly) {
  // The standalone cache is one max_ctx-position page: one contiguous run
  // per plane, the flat [layer][pos][kv_dim] layout.
  KvCache one_page(spec_);
  EXPECT_EQ(one_page.page_positions(), max_ctx());
  EXPECT_EQ(one_page.RunLen(0), max_ctx());
  EXPECT_EQ(one_page.ArenaBytes(), spec_.KvCacheBytes(max_ctx()));
  // The whole context, so the last page is partial wherever the page size
  // does not divide max_ctx.
  const int positions = max_ctx();
  FillCache(&one_page, positions);
  EXPECT_EQ(one_page.PageCount(), 1);

  for (const int pp : PageSizes()) {
    SCOPED_TRACE("page_positions=" + std::to_string(pp));
    const int pages = PagesPerContext(pp);
    KvPagePool pool(spec_, PoolOpts(pages, true, pp));
    KvCache paged(spec_, &pool, nullptr);
    FillCache(&paged, positions);
    EXPECT_EQ(paged.PageCount(), pages);
    EXPECT_EQ(paged.ArenaBytes(), pages * pool.page_bytes());
    EXPECT_EQ(pool.stats().spills, 0u);

    for (int l = 0; l < n_layers(); ++l) {
      for (int p = 0; p < positions; ++p) {
        ASSERT_EQ(std::memcmp(paged.KeyHalfAt(l, p), one_page.KeyHalfAt(l, p),
                              kv_dim() * sizeof(uint16_t)),
                  0)
            << "K layer " << l << " pos " << p;
        ASSERT_EQ(std::memcmp(paged.ValueHalfAt(l, p),
                              one_page.ValueHalfAt(l, p),
                              kv_dim() * sizeof(uint16_t)),
                  0)
            << "V layer " << l << " pos " << p;
      }
    }

    // The attend hop contract: runs end at page boundaries (the partial
    // last page included), and rows inside a run are adjacent.
    for (int p = 0; p < positions; ++p) {
      const int run = paged.RunLen(p);
      ASSERT_EQ(run, pp - p % pp) << "pos " << p;
      if (p + 1 < positions && run > 1) {
        ASSERT_EQ(paged.KeyHalfAt(1, p + 1), paged.KeyHalfAt(1, p) + kv_dim())
            << "pos " << p;
      }
    }
  }
}

TEST_F(PagedKvTest, AppendThroughSpillRoundTripsAndAccountsTruthfully) {
  // 3 pages of appends through a 2-frame pool: the position-major fill
  // (layer 0 then layer 1 per position, like a real forward pass) keeps the
  // hot page resident and spills the cold ones.
  KvPagePool pool(spec_, PoolOpts(2));
  KvCache paged(spec_, &pool, nullptr);
  const int positions = 3 * kPagePositions;
  FillCache(&paged, positions);
  EXPECT_EQ(paged.PageCount(), 3);
  EXPECT_GT(pool.stats().spills, 0u);

  // CurrentBytes() is truthful under spill: resident secure bytes only,
  // with the spilled remainder accounted separately and the sum equal to
  // everything appended.
  const uint64_t appended = static_cast<uint64_t>(n_layers()) * positions *
                            kv_dim() * kKvVectorsPerPosition *
                            kKvAccountedBytesPerElem;
  EXPECT_GT(paged.SpilledBytes(), 0u);
  EXPECT_EQ(paged.CurrentBytes() + paged.SpilledBytes(), appended);
  uint64_t resident = 0;
  for (int i = 0; i < paged.PageCount(); ++i) {
    resident += pool.resident(paged.pages()[i]) ? pool.page_bytes() : 0;
  }
  EXPECT_EQ(paged.CurrentBytes(), resident);

  // Every row survives the spill/restore churn bit-exactly.
  for (int p = 0; p < positions; ++p) {
    for (int l = 0; l < n_layers(); ++l) {
      ExpectRowResident(&paged, &pool, l, p);
    }
  }
  EXPECT_GT(pool.stats().restores, 0u);

  // A 3-page cache cannot be fully pinned into 2 frames: the step pin fails
  // as a capacity condition instead of silently attending spilled rows.
  EXPECT_EQ(paged.PinForStep().status().code(),
            ErrorCode::kResourceExhausted);
}

TEST_F(PagedKvTest, PinForStepRestoresEveryPageAndHoldsThem) {
  KvPagePool pool(spec_, PoolOpts(3));
  KvCache paged(spec_, &pool, nullptr);
  const int positions = 3 * kPagePositions;
  FillCache(&paged, positions);

  // Evict one of the cache's pages with an unrelated allocation.
  auto temp = pool.Alloc(false);
  ASSERT_TRUE(temp.ok());
  int spilled = 0;
  for (int i = 0; i < paged.PageCount(); ++i) {
    spilled += pool.resident(paged.pages()[i]) ? 0 : 1;
  }
  ASSERT_EQ(spilled, 1);

  {
    auto pin = paged.PinForStep();
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    // While pinned every page is resident and directly readable — the raw
    // row pointers the executor walks are valid for the whole step.
    for (int i = 0; i < paged.PageCount(); ++i) {
      EXPECT_TRUE(pool.resident(paged.pages()[i]));
    }
    for (int p = 0; p < positions; ++p) {
      ExpectRow(paged, 0, p);
    }
    // The pinned pages displaced the temp page, not each other.
    EXPECT_FALSE(pool.resident(*temp));
  }
  // Pin released: the pages are evictable again.
  ASSERT_TRUE(pool.EnsureResident(*temp).ok());
  ASSERT_TRUE(pool.Unref(*temp).ok());
}

// --- Copy-on-write prefix forks. ------------------------------------------

TEST_F(PagedKvTest, CowPrivatizesTheForkPageAndIsolatesSessions) {
  KvPagePool pool(spec_, PoolOpts(8));
  KvCache a(spec_, &pool, nullptr);
  FillCache(&a, 2 * kPagePositions);  // Pages 0 and 1, both full.

  // B maps the first 6 positions of A's pages (a partial second page — the
  // fork point sits mid-page, the hard case).
  KvCache b(spec_, &pool, nullptr);
  ASSERT_TRUE(b.AdoptPrefix(a.pages().data(), 2, 6).ok());
  EXPECT_EQ(b.seq_len(), 6);
  EXPECT_EQ(pool.refcount(a.pages()[0]), 2);
  EXPECT_EQ(pool.refcount(a.pages()[1]), 2);
  // Adopting into a non-empty cache is a caller bug, not a merge.
  EXPECT_EQ(b.AdoptPrefix(a.pages().data(), 2, 6).code(),
            ErrorCode::kInvalidArgument);

  // B's first divergent append privatizes page 1 (one COW copy for the
  // whole position, not one per layer); page 0 stays shared.
  AppendPosition(&b, 6, /*salt=*/5.0f);
  EXPECT_EQ(pool.stats().cow_copies, 1u);
  EXPECT_EQ(b.pages()[0], a.pages()[0]);
  EXPECT_NE(b.pages()[1], a.pages()[1]);
  EXPECT_EQ(pool.refcount(a.pages()[1]), 1);

  // A is untouched through the fork — including position 6, where B wrote.
  for (int p = 0; p < 2 * kPagePositions; ++p) {
    for (int l = 0; l < n_layers(); ++l) {
      ExpectRowResident(&a, &pool, l, p);
    }
  }
  // B reads the shared prefix rows and its own divergent row.
  for (int p = 0; p < 6; ++p) {
    ExpectRowResident(&b, &pool, 0, p);
  }
  for (int l = 0; l < n_layers(); ++l) {
    ExpectRowResident(&b, &pool, l, 6, /*salt=*/5.0f);
  }

  // Resetting A releases only its references: the still-shared page 0
  // survives for B, A's private page 1 frame returns to the pool.
  const KvPageId shared = a.pages()[0];
  const int free_before = pool.free_frames();
  a.Reset();
  EXPECT_EQ(pool.refcount(shared), 1);
  EXPECT_GT(pool.free_frames(), free_before);
  ExpectRowResident(&b, &pool, 1, 3);
}

// --- Checkpoints move between page geometries. ----------------------------

TEST_F(PagedKvTest, CheckpointMovesBetweenPageGeometries) {
  // Serialize out of a spilling paged cache (the gather crosses restores),
  // restore into the one-page cache, then into a cache at every page size.
  // The snapshot format is page-size independent: every cache re-serializes
  // to the same bytes.
  const int positions = max_ctx();
  KvPagePool tight(spec_, PoolOpts(2));
  KvCache spilling(spec_, &tight, nullptr);
  FillCache(&spilling, positions);
  EXPECT_GT(tight.stats().spills, 0u);

  std::vector<uint8_t> blob;
  ASSERT_TRUE(spilling.SerializeState(&blob).ok());

  KvCache one_page(spec_);
  ASSERT_TRUE(one_page.RestoreState(blob.data(), blob.size()).ok());
  EXPECT_EQ(one_page.seq_len(), positions);
  for (int p = 0; p < positions; ++p) {
    for (int l = 0; l < n_layers(); ++l) {
      ExpectRow(one_page, l, p);
    }
  }
  std::vector<uint8_t> one_page_blob;
  ASSERT_TRUE(one_page.SerializeState(&one_page_blob).ok());
  EXPECT_EQ(one_page_blob, blob);

  for (const int pp : PageSizes()) {
    SCOPED_TRACE("page_positions=" + std::to_string(pp));
    KvPagePool roomy(spec_, PoolOpts(PagesPerContext(pp), true, pp));
    KvCache restored(spec_, &roomy, nullptr);
    ASSERT_TRUE(
        restored.RestoreState(one_page_blob.data(), one_page_blob.size())
            .ok());
    EXPECT_EQ(restored.seq_len(), positions);
    EXPECT_EQ(restored.PageCount(), PagesPerContext(pp));
    for (int p = 0; p < positions; ++p) {
      for (int l = 0; l < n_layers(); ++l) {
        ExpectRowResident(&restored, &roomy, l, p);
      }
    }
    std::vector<uint8_t> again;
    ASSERT_TRUE(restored.SerializeState(&again).ok());
    EXPECT_EQ(again, blob);
  }
}

// --- Arena accounting agreement. ------------------------------------------

TEST_F(PagedKvTest, ArenaBudgetBytesMatchesConstructionAtEveryGeometry) {
  for (const int pp : PageSizes()) {
    KvArenaOptions o;
    o.slots = 3;
    o.pool.page_positions = pp;
    o.pool.spill_key = TestSpillKey();
    KvArena arena(spec_, o);
    // The scratch budget the TA carves (BudgetBytes) is EXACTLY what the
    // constructed arena reports — no drift at any page size.
    EXPECT_EQ(KvArena::BudgetBytes(spec_, o), arena.ArenaBytes())
        << "pp=" << pp;
    // pool_bytes == 0 holds every slot's full context in whole pages,
    // rounding a partial last page up.
    EXPECT_EQ(arena.pool()->frames(), 3 * PagesPerContext(pp)) << "pp=" << pp;
    EXPECT_EQ(arena.SlotBytes(), arena.cache(0)->ArenaBytes());
  }

  // Where the page size divides max_ctx the default budget is exactly
  // slots x the standalone cache's full-context bytes.
  KvArenaOptions paged_opts;
  paged_opts.slots = 3;
  paged_opts.pool.page_positions = kPagePositions;
  EXPECT_EQ(KvArena::BudgetBytes(spec_, paged_opts),
            3 * KvCache(spec_).ArenaBytes());

  // An explicit sub-page-multiple budget rounds down to whole frames, and
  // BudgetBytes tracks the rounding.
  paged_opts.pool.pool_bytes =
      2 * KvPagePool::PageBytes(spec_, kPagePositions) + 100;
  KvArena trimmed(spec_, paged_opts);
  EXPECT_EQ(trimmed.ArenaBytes(),
            2 * KvPagePool::PageBytes(spec_, kPagePositions));
  EXPECT_EQ(KvArena::BudgetBytes(spec_, paged_opts), trimmed.ArenaBytes());
}

// --- Prefix registry. -----------------------------------------------------

TEST_F(PagedKvTest, PrefixRegistryAdoptRegisterAndEvict) {
  KvArenaOptions o;
  o.slots = 2;
  o.pool.page_positions = kPagePositions;
  o.pool.spill_key = TestSpillKey();
  o.prefix_entries = 2;
  KvArena arena(spec_, o);

  const std::vector<TokenId> t1 = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto slot_a = arena.Acquire();
  ASSERT_TRUE(slot_a.ok());
  FillCache(arena.cache(*slot_a), static_cast<int>(t1.size()));
  ASSERT_TRUE(arena.RegisterPrefix(*slot_a, t1).ok());
  EXPECT_EQ(arena.prefix_entry_count(), 1);
  EXPECT_EQ(arena.prefix_stats().registered, 1u);
  // The registry holds one reference per covering page: the owner's next
  // append into those pages copies-on-write instead of mutating them.
  for (int i = 0; i < 3; ++i) {  // ceil(10 / 4) pages cover the prefix.
    EXPECT_EQ(arena.pool()->refcount(arena.cache(*slot_a)->pages()[i]), 2);
  }
  // Re-registering the same tokens dedups (recency bump, no new entry).
  ASSERT_TRUE(arena.RegisterPrefix(*slot_a, t1).ok());
  EXPECT_EQ(arena.prefix_entry_count(), 1);
  EXPECT_EQ(arena.prefix_stats().registered, 1u);

  // A prompt extending the registered prefix adopts all 10 positions...
  std::vector<TokenId> extended = t1;
  extended.push_back(99);
  extended.push_back(100);
  auto slot_b = arena.Acquire();
  ASSERT_TRUE(slot_b.ok());
  EXPECT_EQ(arena.AdoptPrefix(*slot_b, extended), 10);
  EXPECT_EQ(arena.cache(*slot_b)->seq_len(), 10);
  EXPECT_EQ(arena.prefix_stats().hits, 1u);
  EXPECT_EQ(arena.prefix_stats().adopted_positions, 10u);
  for (int p = 0; p < 10; ++p) {
    ExpectRowResident(arena.cache(*slot_b), arena.pool(), 0, p);
  }

  // ...an unrelated prompt misses, and a sub-page overlap is not worth a
  // COW copy so it misses too.
  ASSERT_TRUE(arena.Release(*slot_b).ok());
  slot_b = arena.Acquire();
  ASSERT_TRUE(slot_b.ok());
  EXPECT_EQ(arena.AdoptPrefix(*slot_b, {50, 51, 52, 53, 54, 55}), 0);
  EXPECT_EQ(arena.AdoptPrefix(*slot_b, {1, 2, 3, 77, 78, 79}), 0);
  EXPECT_EQ(arena.prefix_stats().hits, 1u);

  // Releasing the registering slot keeps the prefix alive: the registry's
  // references outlive the session, so a later admission still adopts.
  ASSERT_TRUE(arena.Release(*slot_a).ok());
  EXPECT_EQ(arena.AdoptPrefix(*slot_b, extended), 10);
  ExpectRowResident(arena.cache(*slot_b), arena.pool(), 1, 9);
  ASSERT_TRUE(arena.Release(*slot_b).ok());

  // Prefixes shorter than one page are never registered; registering more
  // positions than the slot cached is a caller bug.
  auto slot_c = arena.Acquire();
  ASSERT_TRUE(slot_c.ok());
  FillCache(arena.cache(*slot_c), kPagePositions);
  ASSERT_TRUE(arena.RegisterPrefix(*slot_c, {1, 2}).ok());
  EXPECT_EQ(arena.prefix_entry_count(), 1);
  EXPECT_EQ(arena
                .RegisterPrefix(*slot_c, std::vector<TokenId>(
                                             2 * kPagePositions, 7))
                .code(),
            ErrorCode::kInvalidArgument);

  // The registry LRU-evicts beyond its capacity (2 entries here).
  ASSERT_TRUE(
      arena.RegisterPrefix(*slot_c, {20, 21, 22, 23}).ok());
  EXPECT_EQ(arena.prefix_entry_count(), 2);
  ASSERT_TRUE(
      arena.RegisterPrefix(*slot_c, {30, 31, 32, 33}).ok());
  EXPECT_EQ(arena.prefix_entry_count(), 2);
  EXPECT_EQ(arena.prefix_stats().evicted, 1u);
}

// --- Engine-level bit-identity. -------------------------------------------

constexpr int kBudget = 12;

const std::vector<std::string>& EnginePrompts() {
  static const std::vector<std::string> prompts = {
      "paged kv parity check one",
      "a different second paged prompt",
      "third",
  };
  return prompts;
}

// `one_page` is the reference geometry: one max_ctx-position page per
// session (the standalone cache's layout) and no prefix sharing.
RuntimeConfig EngineConfig(int max_sessions, bool one_page,
                           bool force_scalar) {
  RuntimeConfig config;
  config.model = TestSmallModel();
  // A small context keeps per-session page tables short enough that a tiny
  // pool over-subscribes across sessions (the spill test below) while a
  // single session always fits pinned.
  config.model.max_ctx = 64;
  config.system = SystemKind::kTzLlm;
  config.materialize_model = true;
  config.engine.prefill_batch = 8;
  config.engine.max_sessions = max_sessions;
  config.engine.force_scalar = force_scalar;
  config.engine.kv_page_positions = one_page ? config.model.max_ctx : 8;
  if (one_page) {
    config.engine.kv_prefix_entries = 0;
  }
  return config;
}

std::vector<GenerationResult> OnePageSoloRuns(bool force_scalar) {
  SocPlatform plat;
  SystemRuntime runtime(&plat,
                        EngineConfig(1, /*one_page=*/true, force_scalar));
  EXPECT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  EXPECT_TRUE(ta.ok());
  EXPECT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());
  std::vector<GenerationResult> out;
  for (const std::string& prompt : EnginePrompts()) {
    auto result = (*ta)->Generate(prompt, kBudget);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.push_back(result.ok() ? *result : GenerationResult{});
  }
  return out;
}

std::vector<GenerationResult> PagedConcurrentRun(RuntimeConfig config,
                                                 uint64_t* spills,
                                                 uint64_t* restores,
                                                 int* free_frames_after,
                                                 int* total_frames) {
  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  EXPECT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  EXPECT_TRUE(ta.ok());
  EXPECT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  std::vector<SessionId> sids;
  for (const std::string& prompt : EnginePrompts()) {
    auto sid = (*ta)->BeginSession(prompt, kBudget);
    EXPECT_TRUE(sid.ok()) << sid.status().ToString();
    sids.push_back(sid.ok() ? *sid : 0);
  }
  for (;;) {
    std::vector<SessionId> running;
    for (SessionId sid : sids) {
      if (!(*ta)->session_done(sid)) {
        running.push_back(sid);
      }
    }
    if (running.empty()) {
      break;
    }
    Status step = (*ta)->DecodeSessions(running);
    EXPECT_TRUE(step.ok()) << step.ToString();
    if (!step.ok()) {
      break;
    }
  }
  if (spills != nullptr) {
    *spills = (*ta)->kv_arena()->pool()->stats().spills;
  }
  if (restores != nullptr) {
    *restores = (*ta)->kv_arena()->pool()->stats().restores;
  }

  std::vector<GenerationResult> out;
  for (SessionId sid : sids) {
    auto result = (*ta)->FinishSession(sid);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.push_back(result.ok() ? *result : GenerationResult{});
  }
  if (free_frames_after != nullptr) {
    *free_frames_after = (*ta)->kv_arena()->pool()->free_frames();
  }
  if (total_frames != nullptr) {
    *total_frames = (*ta)->kv_arena()->pool()->frames();
  }
  return out;
}

void ExpectIdentical(const std::vector<GenerationResult>& solo,
                     const std::vector<GenerationResult>& paged) {
  ASSERT_EQ(solo.size(), paged.size());
  for (size_t i = 0; i < solo.size(); ++i) {
    ASSERT_GT(solo[i].output_tokens.size(), 0u) << "prompt " << i;
    EXPECT_EQ(paged[i].output_tokens, solo[i].output_tokens)
        << "prompt " << i << " diverged under paged KV";
    EXPECT_EQ(paged[i].text, solo[i].text) << "prompt " << i;
  }
}

class PagedEngineParityTest : public ::testing::TestWithParam<bool> {};

TEST_P(PagedEngineParityTest, PagedSessionsMatchOnePageSoloBitIdentically) {
  const bool force_scalar = GetParam();
  const auto solo = OnePageSoloRuns(force_scalar);
  const auto paged = PagedConcurrentRun(
      EngineConfig(static_cast<int>(EnginePrompts().size()),
                   /*one_page=*/false, force_scalar),
      nullptr, nullptr, nullptr, nullptr);
  ExpectIdentical(solo, paged);
}

INSTANTIATE_TEST_SUITE_P(KernelMatrix, PagedEngineParityTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("scalar")
                                             : std::string("simd");
                         });

TEST(PagedEngineSpillTest, OverSubscribedPoolSpillsWithoutChangingTokens) {
  // Three concurrent sessions over a pool that holds exactly one session's
  // full context (the LoadModel floor): cold pages MUST spill to REE memory
  // and restore on demand, and not a single token may change.
  const auto solo = OnePageSoloRuns(/*force_scalar=*/false);

  RuntimeConfig config = EngineConfig(
      static_cast<int>(EnginePrompts().size()), /*one_page=*/false, false);
  const ModelSpec spec = ModelSpec::Create(config.model);
  config.engine.kv_pool_bytes =
      (config.model.max_ctx / config.engine.kv_page_positions) *
      KvPagePool::PageBytes(spec, config.engine.kv_page_positions);
  // Sharing off: every page is session-private, so finishing all sessions
  // must return every frame to the pool (the refcount-release check).
  config.engine.kv_prefix_entries = 0;

  uint64_t spills = 0, restores = 0;
  int free_after = 0, frames = 0;
  const auto paged =
      PagedConcurrentRun(config, &spills, &restores, &free_after, &frames);
  ExpectIdentical(solo, paged);
  EXPECT_GT(spills, 0u);
  EXPECT_GT(restores, 0u);
  EXPECT_EQ(free_after, frames);
}

TEST(PagedEnginePrefixTest, SharedPrefixAdoptionKeepsTokensIdentical) {
  const std::string preamble = "system: shared serving preamble text. ";
  const std::string p1 = preamble + "alpha request";
  const std::string p2 = preamble + "beta query";
  constexpr int kPrefixBudget = 8;

  // One-page reference: each prompt alone, no sharing possible.
  std::vector<GenerationResult> reference;
  {
    SocPlatform plat;
    SystemRuntime runtime(&plat, EngineConfig(1, /*one_page=*/true, false));
    ASSERT_TRUE(runtime.Setup().ok());
    auto ta = runtime.CreateFunctionalTa();
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());
    for (const std::string& prompt : {p1, p2}) {
      auto result = (*ta)->Generate(prompt, kPrefixBudget);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      reference.push_back(*result);
    }
  }

  // Paged engine, sequential: generating p1 registers its prompt as a
  // shareable prefix; admitting p2 adopts the common pages and prefills
  // only the divergent tail. TTFT work shrinks, tokens do not move.
  SocPlatform plat;
  SystemRuntime runtime(&plat, EngineConfig(1, /*one_page=*/false, false));
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  auto r1 = (*ta)->Generate(p1, kPrefixBudget);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->output_tokens, reference[0].output_tokens);

  auto r2 = (*ta)->Generate(p2, kPrefixBudget);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->output_tokens, reference[1].output_tokens);

  const KvArena::PrefixStats& stats = (*ta)->kv_arena()->prefix_stats();
  EXPECT_GE(stats.hits, 1u);
  // At least one full page of prefill was skipped via the shared pages.
  EXPECT_GE(stats.adopted_positions, 8u);
  EXPECT_GT((*ta)->kv_arena()->pool()->stats().cow_copies, 0u);
}

}  // namespace
}  // namespace tzllm

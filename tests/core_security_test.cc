// Attack battery against the full stack (paper §6, Security Analysis): each
// test plays one attacker move from the threat model and asserts the
// corresponding defense actually fires on real state.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/llm_ta.h"
#include "src/core/runtime.h"
#include "src/crypto/seal.h"
#include "src/crypto/sha256.h"
#include "src/llm/engine.h"
#include "src/serve/serving.h"
#include "src/tee/checkpoint.h"

namespace tzllm {
namespace {

constexpr uint64_t kWeightSeed = 9001;

class SecurityTest : public ::testing::Test {
 protected:
  SecurityTest() : spec_(ModelSpec::Create(TestTinyModel())) {
    ReeMemoryLayout layout;
    layout.dram_bytes = plat_.config().dram_bytes;
    layout.kernel_bytes = 256 * kMiB;
    layout.cma_bytes = 256 * kMiB;
    layout.cma2_bytes = 64 * kMiB;
    mm_ = std::make_unique<ReeMemoryManager>(layout, &plat_.dram());
    tz_ = std::make_unique<TzDriver>(&plat_, mm_.get());
    tee_ = std::make_unique<TeeOs>(&plat_, tz_.get(), 55);
    EXPECT_TRUE(tee_->Boot().ok());
    EXPECT_TRUE(Tzguf::Provision(&plat_.flash(), tee_->keys(), "m", spec_,
                                 kWeightSeed, true)
                    .ok());
    auto wrapped = Tzguf::ReadWrappedKey(&plat_.flash(), "m");
    EXPECT_TRUE(wrapped.ok());
    tee_->InstallWrappedKey(*wrapped);
    ta_ = std::make_unique<LlmTa>(&plat_, tee_.get(), tz_.get());
    EXPECT_TRUE(ta_->Attach().ok());
    EXPECT_TRUE(tee_->AuthorizeKeyAccess(ta_->ta_id(), "m").ok());
  }

  void Load() { ASSERT_TRUE(ta_->LoadModel("m").ok()); }

  SocPlatform plat_;
  ModelSpec spec_;
  std::unique_ptr<ReeMemoryManager> mm_;
  std::unique_ptr<TzDriver> tz_;
  std::unique_ptr<TeeOs> tee_;
  std::unique_ptr<LlmTa> ta_;
};

// §6 "Preventing direct access attacks": REE CPU reads of secure memory.
TEST_F(SecurityTest, DirectMemoryAccessBlocked) {
  Load();
  const PhysAddr base = tee_->RegionBase(SecureRegionId::kParams);
  const uint64_t faults_before = plat_.tzasc().cpu_faults();
  for (uint64_t off = 0; off < spec_.total_param_bytes();
       off += 64 * kKiB) {
    EXPECT_FALSE(
        plat_.tzasc().CheckCpuAccess(World::kNonSecure, base + off, 8).ok());
  }
  EXPECT_GT(plat_.tzasc().cpu_faults(), faults_before);
}

// §6: flash holds only ciphertext; every tensor byte range has high entropy
// and differs from the plaintext.
TEST_F(SecurityTest, FlashExposesOnlyCiphertext) {
  const std::vector<Tensor> plain =
      Tzguf::ReferenceWeights(spec_, kWeightSeed);
  for (const TensorSpec& t : spec_.tensors()) {
    std::vector<uint8_t> enc(t.bytes);
    ASSERT_TRUE(plat_.flash()
                    .PeekBytes("m.data", t.file_offset, t.bytes, enc.data())
                    .ok());
    EXPECT_NE(enc, plain[t.index].data) << t.name;
  }
}

// §6 "Preventing DMA attacks": a malicious peripheral (USB) and a malicious
// non-secure NPU job both fail to reach secure memory.
TEST_F(SecurityTest, PeripheralDmaBlocked) {
  Load();
  const PhysAddr base = tee_->RegionBase(SecureRegionId::kParams);
  EXPECT_FALSE(plat_.tzasc()
                   .CheckDmaAccess(DeviceId::kUsbController, base, kPageSize)
                   .ok());
  EXPECT_FALSE(plat_.tzasc()
                   .CheckDmaAccess(DeviceId::kGpu, base, kPageSize)
                   .ok());
  NpuJobDesc exfil;
  exfil.cmd_addr = 16 * kMiB;
  exfil.cmd_size = kPageSize;
  exfil.buffers = {{base, 64 * kKiB}};
  exfil.duration = kMillisecond;
  EXPECT_EQ(plat_.npu().MmioLaunch(World::kNonSecure, exfil).code(),
            ErrorCode::kPermissionDenied);
}

// §6 "Preventing Iago attacks" (model loading): forged flash content is
// caught by the per-tensor checksums even though decryption "succeeds".
TEST_F(SecurityTest, ForgedModelContentDetected) {
  // Substitute one tensor's ciphertext with valid-looking ciphertext from a
  // different offset (a splicing attack, stealthier than random damage).
  const TensorSpec& a = spec_.tensor(2);
  ASSERT_TRUE(plat_.flash().CorruptBytes("m.data", a.file_offset, 32).ok());
  const Status st = ta_->LoadModel("m");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kDataCorruption);
}

// A meta that opens is still checked as input: its tag table must hold
// exactly one tag per tensor of its config. Each case re-seals an edited
// meta body under the model key; the body ends with the u32 tag count and
// the 16-byte tags.
class MetaTagCountTest : public SecurityTest {
 protected:
  void ResealMeta(const std::function<void(std::vector<uint8_t>*)>& edit) {
    const AesKey128 key = tee_->keys().DeriveModelKey("m");
    const SealContext context{SealKind::kModelMeta, "m"};
    auto blob = plat_.flash().PeekFile("m.meta");
    ASSERT_TRUE(blob.ok());
    auto body = Open(key, context, *blob);
    ASSERT_TRUE(body.ok());
    edit(&*body);
    ASSERT_TRUE(plat_.flash().DeleteFile("m.meta").ok());
    ASSERT_TRUE(plat_.flash()
                    .CreateFile("m.meta",
                                Seal(key, context, body->data(), body->size()))
                    .ok());
  }

  // Offset of the tag count in a body holding `n_tags` tags.
  static size_t CountOffset(const std::vector<uint8_t>& body, size_t n_tags) {
    return body.size() - 16 * n_tags - 4;
  }
};

// A count of 0xFFFFFFFF over the real table is rejected before it sizes
// anything (it would ask for 64 GiB of tags).
TEST_F(MetaTagCountTest, HugeTagCountIsCorruptData) {
  const size_t n = spec_.tensors().size();
  ResealMeta([n](std::vector<uint8_t>* body) {
    std::fill_n(body->begin() + CountOffset(*body, n), 4, 0xFF);
  });
  EXPECT_EQ(ta_->LoadModel("m").code(), ErrorCode::kDataCorruption);
}

// A consistent table one tag short opens, and fails the load as corrupt
// data before restoration starts.
TEST_F(MetaTagCountTest, OneTagTooFewIsCorruptData) {
  const size_t n = spec_.tensors().size();
  ResealMeta([n](std::vector<uint8_t>* body) {
    const size_t at = CountOffset(*body, n);
    const uint32_t fewer = static_cast<uint32_t>(n - 1);
    for (int i = 0; i < 4; ++i) {
      (*body)[at + i] = static_cast<uint8_t>(fewer >> (8 * i));
    }
    body->resize(body->size() - 16);
  });
  EXPECT_EQ(ta_->LoadModel("m").code(), ErrorCode::kDataCorruption);
  EXPECT_EQ(tee_->RegionStats(SecureRegionId::kParams).allocated_bytes, 0u);
}

// §6: the model key in flash is wrapped; the REE reading the key file gets
// nothing usable, and a wrong-device unwrap fails.
TEST_F(SecurityTest, WrappedKeyUselessToRee) {
  auto wrapped = Tzguf::ReadWrappedKey(&plat_.flash(), "m");
  ASSERT_TRUE(wrapped.ok());
  const AesKey128 real_key = tee_->keys().DeriveModelKey("m");
  // The key's bytes appear nowhere in the blob.
  EXPECT_EQ(std::search(wrapped->sealed.begin(), wrapped->sealed.end(),
                        real_key.begin(), real_key.end()),
            wrapped->sealed.end());
  // An attacker's own key hierarchy (different fuses) cannot unwrap it.
  KeyHierarchy attacker(0xBAD);
  EXPECT_FALSE(attacker.UnwrapModelKey(*wrapped).ok());
}

// A compromised *other* TA cannot use the key service or the TA mappings.
TEST_F(SecurityTest, MaliciousTaContained) {
  Load();
  auto evil_ta = tee_->CreateTa("evil");
  ASSERT_TRUE(evil_ta.ok());
  EXPECT_EQ(tee_->GetModelKey(*evil_ta, "m").status().code(),
            ErrorCode::kPermissionDenied);
  const PhysAddr base = tee_->RegionBase(SecureRegionId::kParams);
  EXPECT_FALSE(tee_->TaCanAccess(*evil_ta, base, 64));
}

// Revoked memory keeps no secrets (cold-boot-style scraping after release).
TEST_F(SecurityTest, NoSecretsSurviveRelease) {
  Load();
  const PhysAddr base = tee_->RegionBase(SecureRegionId::kParams);
  const uint64_t total = spec_.total_param_bytes();
  ASSERT_TRUE(ta_->Unload().ok());
  std::vector<uint8_t> sweep(4096);
  for (uint64_t off = 0; off + sweep.size() <= total;
       off += sweep.size()) {
    ASSERT_TRUE(plat_.dram().Read(base + off, sweep.data(), sweep.size())
                    .ok());
    for (uint8_t b : sweep) {
      ASSERT_EQ(b, 0) << "secret residue at offset " << off;
    }
  }
}

// Side-channel surface check (§6): what the REE *can* observe is only sizes
// and timing, never values — the extent sizes visible through the TZ driver
// match the (public) architecture, which the paper accepts as exposed.
TEST_F(SecurityTest, OnlySizesLeakThroughScaling) {
  Load();
  const SecureRegionStats stats =
      tee_->RegionStats(SecureRegionId::kParams);
  // The REE knows how much memory was taken (it allocated it)...
  EXPECT_GE(stats.allocated_bytes, spec_.total_param_bytes());
  // ...but the TZASC fault counter proves it could not read any of it.
  EXPECT_FALSE(plat_.tzasc()
                   .CheckCpuAccess(World::kNonSecure, stats.base, 1)
                   .ok());
}

// Every flash file by name: a provisioned model, copied between stacks.
using FlashImage = std::vector<std::pair<std::string, std::vector<uint8_t>>>;

// One booted stack over test-small. It provisions the model itself, or
// installs a copy of another stack's flash so that a sweep of loads does
// not regenerate the weights.
struct SmallStack {
  static constexpr uint64_t kRootSeed = 55;

  explicit SmallStack(const FlashImage* image = nullptr) {
    ReeMemoryLayout layout;
    layout.dram_bytes = plat.config().dram_bytes;
    layout.kernel_bytes = 256 * kMiB;
    layout.cma_bytes = 256 * kMiB;
    layout.cma2_bytes = 64 * kMiB;
    mm = std::make_unique<ReeMemoryManager>(layout, &plat.dram());
    tz = std::make_unique<TzDriver>(&plat, mm.get());
    tee = std::make_unique<TeeOs>(&plat, tz.get(), kRootSeed);
    EXPECT_TRUE(tee->Boot().ok());
    if (image == nullptr) {
      EXPECT_TRUE(Tzguf::Provision(&plat.flash(), tee->keys(), "m", spec,
                                   kWeightSeed, true)
                      .ok());
    } else {
      for (const auto& [name, bytes] : *image) {
        EXPECT_TRUE(plat.flash().CreateFile(name, bytes).ok());
      }
    }
    auto wrapped = Tzguf::ReadWrappedKey(&plat.flash(), "m");
    EXPECT_TRUE(wrapped.ok());
    tee->InstallWrappedKey(*wrapped);
    ta = std::make_unique<LlmTa>(&plat, tee.get(), tz.get());
    EXPECT_TRUE(ta->Attach().ok());
    EXPECT_TRUE(tee->AuthorizeKeyAccess(ta->ta_id(), "m").ok());
  }

  FlashImage Image() {
    FlashImage out;
    for (const std::string& name : plat.flash().FileNames()) {
      std::vector<uint8_t> bytes(*plat.flash().FileSize(name));
      EXPECT_TRUE(
          plat.flash().PeekBytes(name, 0, bytes.size(), bytes.data()).ok());
      out.emplace_back(name, std::move(bytes));
    }
    return out;
  }

  SocPlatform plat;
  ModelSpec spec = ModelSpec::Create(TestSmallModel());
  std::unique_ptr<ReeMemoryManager> mm;
  std::unique_ptr<TzDriver> tz;
  std::unique_ptr<TeeOs> tee;
  std::unique_ptr<LlmTa> ta;
};

// §6 Iago defense, exhaustively: flipping the first or the last data byte
// of ANY tensor on flash fails the load closed. The sweep covers the
// tensors that cross a DRAM frame, whose digests are streamed across two
// in-place decryption windows.
TEST(TamperSweepTest, EveryTensorFailsClosedAtItsFirstAndLastByte) {
  SmallStack golden;
  ASSERT_TRUE(golden.ta->LoadModel("m").ok());
  const PhysAddr base = golden.tee->RegionBase(SecureRegionId::kParams);
  const FlashImage image = golden.Image();
  int crossing = 0;
  for (const TensorSpec& t : golden.spec.tensors()) {
    const PhysAddr first = base + t.file_offset;
    const PhysAddr last = first + t.data_bytes - 1;
    crossing += first / PhysMemory::kFrameSize != last / PhysMemory::kFrameSize;
    for (const uint64_t byte :
         {t.file_offset, t.file_offset + t.data_bytes - 1}) {
      SmallStack stack(&image);
      ASSERT_TRUE(stack.plat.flash().CorruptBytes("m.data", byte, 1).ok());
      const Status st = stack.ta->LoadModel("m");
      EXPECT_EQ(st.code(), ErrorCode::kDataCorruption)
          << "tensor " << t.index << " byte " << byte << ": " << st.ToString();
    }
  }
  EXPECT_GE(crossing, 1) << "the sweep must cover frame-crossing tensors";
}

// A clean load leaves every tensor's exact plaintext in the params region.
TEST(TamperSweepTest, CleanLoadLeavesEveryTensorPlaintextInParams) {
  SmallStack stack;
  ASSERT_TRUE(stack.ta->LoadModel("m").ok());
  const PhysAddr base = stack.tee->RegionBase(SecureRegionId::kParams);
  const std::vector<Tensor> plain =
      Tzguf::ReferenceWeights(stack.spec, kWeightSeed);
  for (const TensorSpec& t : stack.spec.tensors()) {
    std::vector<uint8_t> in_dram(t.data_bytes);
    ASSERT_TRUE(stack.plat.dram()
                    .Read(base + t.file_offset, in_dram.data(), t.data_bytes)
                    .ok());
    EXPECT_EQ(in_dram, plain[t.index].data) << "tensor " << t.index;
  }
}

// Feeds every mutation of `blob` to `open`, which must fail each with
// kDataCorruption and never crash: a bit flipped in every byte (past 4 KiB,
// in every header byte and 1,024 seeded offsets), a truncation to every
// length up to the header and to 64 seeded lengths beyond it, and 1 to 3
// appended bytes. Last, the intact blob must open, which also puts it
// back in place.
void SweepMutations(const std::string& kind, const std::vector<uint8_t>& blob,
                    const std::function<Status(const std::vector<uint8_t>&)>&
                        open) {
  SCOPED_TRACE(kind + " blob of " + std::to_string(blob.size()) + " bytes");
  ASSERT_GT(blob.size(), kSealHeaderBytes + 1);
  Rng rng(0x5EA1);
  int cases = 0;
  int wrong = 0;
  auto expect_rejected = [&](const std::vector<uint8_t>& mutated,
                             const std::string& what) {
    ++cases;
    const Status st = open(mutated);
    if (st.code() != ErrorCode::kDataCorruption && wrong++ < 5) {
      ADD_FAILURE() << what << " gave " << st.ToString();
    }
  };
  const bool small = blob.size() < 4 * kKiB;
  std::vector<size_t> offsets;
  for (size_t i = 0; i < (small ? blob.size() : kSealHeaderBytes); ++i) {
    offsets.push_back(i);
  }
  for (int i = 0; !small && i < 1024; ++i) {
    offsets.push_back(rng.NextU64() % blob.size());
  }
  for (size_t off : offsets) {
    std::vector<uint8_t> mutated = blob;
    mutated[off] ^= static_cast<uint8_t>(1u << (off % 8));
    expect_rejected(mutated, "bit flip at " + std::to_string(off));
  }
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= kSealHeaderBytes; ++len) {
    lengths.push_back(len);
  }
  for (int i = 0; i < 64; ++i) {
    lengths.push_back(kSealHeaderBytes + 1 +
                      rng.NextU64() % (blob.size() - kSealHeaderBytes - 1));
  }
  for (size_t len : lengths) {
    expect_rejected(std::vector<uint8_t>(blob.begin(), blob.begin() + len),
                    "truncation to " + std::to_string(len));
  }
  for (size_t extra = 1; extra <= 3; ++extra) {
    std::vector<uint8_t> mutated = blob;
    mutated.resize(blob.size() + extra, static_cast<uint8_t>(rng.NextU64()));
    expect_rejected(mutated, std::to_string(extra) + " appended bytes");
  }
  EXPECT_EQ(wrong, 0) << "of " << cases << " mutations";
  EXPECT_TRUE(open(blob).ok());
}

// §6, every sealed blob the REE holds: one of each kind from a real
// serving run — the wrapped key, the meta, a session checkpoint and the
// serving manifest on flash, and a KV page spilled under the model key —
// each driven through its own open path.
TEST(SealMutationTest, EveryBlobKindFailsClosedUnderMutation) {
  RuntimeConfig config;
  config.model = TestTinyModel();
  config.system = SystemKind::kTzLlm;
  config.materialize_model = true;
  config.engine.serve_checkpoint_every_n_ticks = 1;
  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  const std::string model = runtime.spec().config().name;
  ASSERT_TRUE((*ta)->LoadModel(model).ok());
  ServingRuntime serve(ta->get(), &plat.sim());
  ServeRequest req;
  req.prompt = "seal every blob the ree keeps";
  req.max_new_tokens = 8;
  ASSERT_TRUE(serve.Enqueue(req).ok());
  // One tick admits, prefills and decodes the request, then snapshots its
  // session and seals the fleet manifest.
  ASSERT_TRUE(serve.Tick().ok());

  FlashDevice& flash = plat.flash();
  const KeyHierarchy& keys = runtime.tee_os().keys();
  const AesKey128 model_key = keys.DeriveModelKey(model);
  auto stored = [&](const std::string& file) {
    auto bytes = flash.PeekFile(file);
    EXPECT_TRUE(bytes.ok()) << file;
    return bytes.ok() ? *bytes : std::vector<uint8_t>{};
  };

  SweepMutations("wrapped key", stored(model + ".key"),
                 [&](const std::vector<uint8_t>& b) {
                   TZLLM_RETURN_IF_ERROR(flash.CreateFile(model + ".key", b));
                   auto wrapped = Tzguf::ReadWrappedKey(&flash, model);
                   if (!wrapped.ok()) {
                     return wrapped.status();
                   }
                   return keys.UnwrapModelKey(*wrapped).status();
                 });
  SweepMutations("meta", stored(model + ".meta"),
                 [&](const std::vector<uint8_t>& b) {
                   TZLLM_RETURN_IF_ERROR(flash.CreateFile(model + ".meta", b));
                   return Tzguf::ReadMeta(&flash, model, model_key).status();
                 });
  for (const std::string& id : {model + ".sess.1", model + ".serve"}) {
    SweepMutations(id, stored(id + ".ckpt"),
                   [&](const std::vector<uint8_t>& b) {
                     TZLLM_RETURN_IF_ERROR(flash.CreateFile(id + ".ckpt", b));
                     return CheckpointService(&flash)
                         .Restore(id, model_key)
                         .status();
                   });
  }

  // A one-frame pool under the model key, as the TA builds it: page 0
  // spills when page 1 takes the frame, and page 1's release leaves the
  // frame free, so every restore attempt below is the open alone.
  KvPagePoolOptions opts;
  opts.pool_bytes =
      KvPagePool::PageBytes(runtime.spec(), opts.page_positions);
  opts.spill_key = model_key;
  KvPagePool pool(runtime.spec(), opts);
  auto page = pool.Alloc(false);
  ASSERT_TRUE(page.ok());
  Rng(7).FillBytes(reinterpret_cast<uint8_t*>(pool.Data16(*page)),
                   pool.page_bytes());
  auto other = pool.Alloc(false);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(pool.Unref(*other).ok());
  ASSERT_NE(pool.ree_blob(*page), nullptr);
  const std::vector<uint8_t> spill = *pool.ree_blob(*page);
  SweepMutations("kv page", spill,
                 [&](const std::vector<uint8_t>& b) {
                   std::vector<uint8_t>* spilled = pool.ree_blob(*page);
                   if (spilled == nullptr) {
                     return Internal("page is no longer spilled");
                   }
                   *spilled = b;
                   return pool.EnsureResident(*page);
                 });
  EXPECT_TRUE(pool.resident(*page));
  EXPECT_EQ(pool.stats().restores, 1u);
}

}  // namespace
}  // namespace tzllm

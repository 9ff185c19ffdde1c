// Attack battery against the full stack (paper §6, Security Analysis): each
// test plays one attacker move from the threat model and asserts the
// corresponding defense actually fires on real state.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/llm_ta.h"
#include "src/crypto/sha256.h"
#include "src/llm/engine.h"

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

// §6: the model key in flash is wrapped; the REE reading the key file gets
// nothing usable, and a wrong-device unwrap fails.
TEST_F(SecurityTest, WrappedKeyUselessToRee) {
  auto wrapped = Tzguf::ReadWrappedKey(&plat_.flash(), "m");
  ASSERT_TRUE(wrapped.ok());
  const AesKey128 real_key = tee_->keys().DeriveModelKey("m");
  // The ciphertext is not the key.
  EXPECT_NE(0,
            memcmp(wrapped->ciphertext.data(), real_key.data(), 16));
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

}  // namespace
}  // namespace tzllm

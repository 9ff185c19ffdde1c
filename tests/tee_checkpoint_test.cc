#include "src/tee/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/hw/platform.h"

namespace tzllm {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() : svc_(&plat_.flash()) {
    key_.fill(0);
    key_[0] = 9;
  }

  std::vector<uint8_t> Stored(const std::string& file) {
    std::vector<uint8_t> raw(*plat_.flash().FileSize(file));
    EXPECT_TRUE(plat_.flash().PeekBytes(file, 0, raw.size(), raw.data()).ok());
    return raw;
  }

  SocPlatform plat_;
  CheckpointService svc_;
  AesKey128 key_;
};

std::vector<uint8_t> RandomState(uint64_t seed, size_t len) {
  std::vector<uint8_t> state(len);
  Rng(seed).FillBytes(state.data(), state.size());
  return state;
}

// The last `len` bytes of a blob: its ciphertext, whatever the header.
std::vector<uint8_t> Tail(const std::vector<uint8_t>& blob, size_t len) {
  return std::vector<uint8_t>(blob.end() - len, blob.end());
}

bool Contains(const std::vector<uint8_t>& blob, const Sha256Digest& digest) {
  return std::search(blob.begin(), blob.end(), digest.begin(),
                     digest.end()) != blob.end();
}

TEST_F(CheckpointTest, SaveRestoreRoundTrip) {
  std::vector<uint8_t> state(5000);
  Rng(4).FillBytes(state.data(), state.size());
  auto size = svc_.Save("m", key_, state);
  ASSERT_TRUE(size.ok());
  EXPECT_GT(*size, state.size());
  EXPECT_TRUE(svc_.Exists("m"));

  auto restored = svc_.Restore("m", key_);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, state);
}

TEST_F(CheckpointTest, StateIsEncryptedOnFlash) {
  std::vector<uint8_t> state(256, 0x42);
  ASSERT_TRUE(svc_.Save("m", key_, state).ok());
  // Read raw flash content: the payload must not contain the plaintext run.
  auto size = plat_.flash().FileSize("m.ckpt");
  ASSERT_TRUE(size.ok());
  std::vector<uint8_t> raw(*size);
  ASSERT_TRUE(plat_.flash().PeekBytes("m.ckpt", 0, *size, raw.data()).ok());
  int runs_of_42 = 0;
  for (size_t i = 0; i + 4 <= raw.size(); ++i) {
    if (raw[i] == 0x42 && raw[i + 1] == 0x42 && raw[i + 2] == 0x42 &&
        raw[i + 3] == 0x42) {
      ++runs_of_42;
    }
  }
  EXPECT_EQ(runs_of_42, 0);
}

TEST_F(CheckpointTest, TamperedCheckpointRejected) {
  std::vector<uint8_t> state(1000, 7);
  ASSERT_TRUE(svc_.Save("m", key_, state).ok());
  ASSERT_TRUE(plat_.flash().CorruptBytes("m.ckpt", 60, 4).ok());
  auto restored = svc_.Restore("m", key_);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), ErrorCode::kDataCorruption);
}

TEST_F(CheckpointTest, WrongKeyRejected) {
  std::vector<uint8_t> state(1000, 7);
  ASSERT_TRUE(svc_.Save("m", key_, state).ok());
  AesKey128 wrong = key_;
  wrong[15] ^= 1;
  EXPECT_FALSE(svc_.Restore("m", wrong).ok());
}

TEST_F(CheckpointTest, MissingCheckpointIsNotFound) {
  EXPECT_FALSE(svc_.Exists("nope"));
  EXPECT_EQ(svc_.Restore("nope", key_).status().code(), ErrorCode::kNotFound);
}

// Re-saving one id must not reuse a keystream: with a shared keystream the
// XOR of the two ciphertexts equals the XOR of the two plaintexts at every
// offset; with independent keystreams it does so at 1 offset in 256.
TEST_F(CheckpointTest, ResaveUnderOneIdSharesNoKeystream) {
  const std::vector<uint8_t> p1 = RandomState(1, 300);
  const std::vector<uint8_t> p2 = RandomState(2, 300);
  ASSERT_TRUE(svc_.Save("m", key_, p1).ok());
  const std::vector<uint8_t> c1 = Tail(Stored("m.ckpt"), p1.size());
  ASSERT_TRUE(svc_.Save("m", key_, p2).ok());
  const std::vector<uint8_t> c2 = Tail(Stored("m.ckpt"), p2.size());
  int reused = 0;
  for (size_t i = 0; i < p1.size(); ++i) {
    reused += (c1[i] ^ c2[i]) == (p1[i] ^ p2[i]);
  }
  EXPECT_LE(reused, static_cast<int>(p1.size() / 50));  // <= 2%.
}

// The REE knows a blob's plaintext P and wants it to restore as P': it
// XORs P ^ P' into the ciphertext (CTR is malleable) and swaps every copy
// of SHA-256(P) in the blob for SHA-256(P'). Without the key it cannot
// compute the tag, so the forged blob must not restore.
TEST_F(CheckpointTest, KnownPlaintextForgeryRejected) {
  const std::vector<uint8_t> p = RandomState(3, 200);
  std::vector<uint8_t> forged_plain = p;
  forged_plain[0] ^= 0xff;
  forged_plain[150] ^= 0x01;
  ASSERT_TRUE(svc_.Save("m", key_, p).ok());
  std::vector<uint8_t> blob = Stored("m.ckpt");
  const size_t ct = blob.size() - p.size();
  for (size_t i = 0; i < p.size(); ++i) {
    blob[ct + i] ^= p[i] ^ forged_plain[i];
  }
  const Sha256Digest digest = Sha256::Hash(p.data(), p.size());
  const Sha256Digest forged_digest =
      Sha256::Hash(forged_plain.data(), forged_plain.size());
  for (auto it = blob.begin();
       (it = std::search(it, blob.end(), digest.begin(), digest.end())) !=
       blob.end();) {
    it = std::copy(forged_digest.begin(), forged_digest.end(), it);
  }
  ASSERT_TRUE(plat_.flash().CreateFile("m.ckpt", blob).ok());
  auto restored = svc_.Restore("m", key_);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), ErrorCode::kDataCorruption);
}

// A stored plaintext digest lets the REE confirm a guessed plaintext
// offline; no blob may carry one.
TEST_F(CheckpointTest, BlobCarriesNoPlaintextDigest) {
  for (size_t len : {0, 1, 300, 5000}) {
    const std::vector<uint8_t> state = RandomState(10 + len, len);
    ASSERT_TRUE(svc_.Save("m", key_, state).ok());
    const std::vector<uint8_t> blob = Stored("m.ckpt");
    EXPECT_FALSE(Contains(blob, Sha256::Hash(state.data(), state.size())))
        << len;
  }
}

TEST_F(CheckpointTest, RestoreTimeBeatsFullInit) {
  // The optimization the checkpoint exists for (§3.2): restoring is much
  // cheaper than the 2.3 s framework initialization.
  EXPECT_LT(CheckpointService::RestoreTime(),
            CheckpointService::FullInitTime() / 10);
}

}  // namespace
}  // namespace tzllm

#include "src/crypto/aes.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/crypto_dispatch.h"

namespace tzllm {
namespace {

AesKey128 KeyFromHex(const uint8_t (&bytes)[16]) {
  AesKey128 key;
  std::memcpy(key.data(), bytes, 16);
  return key;
}

// FIPS-197 Appendix B example vector.
TEST(Aes128Test, Fips197AppendixB) {
  const uint8_t key_bytes[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                 0x09, 0xcf, 0x4f, 0x3c};
  uint8_t block[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                       0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const uint8_t expected[16] = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc,
                                0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97,
                                0x19, 0x6a, 0x0b, 0x32};
  Aes128 aes(KeyFromHex(key_bytes));
  aes.EncryptBlock(block);
  EXPECT_EQ(0, std::memcmp(block, expected, 16));
}

// FIPS-197 Appendix C.1 (AES-128 with the 000102... key).
TEST(Aes128Test, Fips197AppendixC1) {
  uint8_t key_bytes[16], block[16];
  for (int i = 0; i < 16; ++i) {
    key_bytes[i] = static_cast<uint8_t>(i);
    block[i] = static_cast<uint8_t>(i * 0x11);
  }
  const uint8_t expected[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                                0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                                0x70, 0xb4, 0xc5, 0x5a};
  Aes128 aes(KeyFromHex(key_bytes));
  aes.EncryptBlock(block);
  EXPECT_EQ(0, std::memcmp(block, expected, 16));
}

// NIST SP 800-38A F.5.1 (CTR-AES128.Encrypt, first block).
TEST(AesCtrTest, Sp80038aF51FirstBlock) {
  const uint8_t key_bytes[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                 0x09, 0xcf, 0x4f, 0x3c};
  AesBlock iv;
  for (int i = 0; i < 16; ++i) {
    iv[i] = static_cast<uint8_t>(0xf0 + i);
  }
  uint8_t plain[16] = {0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96,
                       0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17, 0x2a};
  const uint8_t expected[16] = {0x87, 0x4d, 0x61, 0x91, 0xb6, 0x20,
                                0xe3, 0x26, 0x1b, 0xef, 0x68, 0x64,
                                0x99, 0x0d, 0xb6, 0xce};
  AesCtr ctr(KeyFromHex(key_bytes), iv);
  ctr.Crypt(0, plain, 16);
  EXPECT_EQ(0, std::memcmp(plain, expected, 16));
}

TEST(AesCtrTest, EncryptDecryptRoundTrip) {
  AesKey128 key{};
  key[0] = 1;
  AesBlock iv{};
  AesCtr ctr(key, iv);
  std::vector<uint8_t> data(1000);
  Rng(3).FillBytes(data.data(), data.size());
  const std::vector<uint8_t> original = data;
  ctr.CryptAll(data.data(), data.size());
  EXPECT_NE(data, original);
  ctr.CryptAll(data.data(), data.size());
  EXPECT_EQ(data, original);
}

// The property pipelined decryption relies on: decrypting arbitrary
// sub-extents (in any order, at unaligned offsets) equals decrypting the
// whole buffer at once.
class CtrSeekTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CtrSeekTest, ChunkedEqualsWhole) {
  AesKey128 key{};
  key[5] = 0xAB;
  AesBlock iv{};
  iv[2] = 7;
  AesCtr ctr(key, iv);

  std::vector<uint8_t> whole(613);
  Rng(GetParam()).FillBytes(whole.data(), whole.size());
  std::vector<uint8_t> chunked = whole;

  ctr.CryptAll(whole.data(), whole.size());

  const size_t chunk = GetParam();
  // Process chunks in reverse order to prove order independence.
  std::vector<std::pair<size_t, size_t>> extents;
  for (size_t off = 0; off < chunked.size(); off += chunk) {
    extents.emplace_back(off, std::min(chunk, chunked.size() - off));
  }
  for (auto it = extents.rbegin(); it != extents.rend(); ++it) {
    ctr.Crypt(it->first, chunked.data() + it->first, it->second);
  }
  EXPECT_EQ(whole, chunked);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, CtrSeekTest,
                         ::testing::Values(1, 3, 16, 17, 64, 100, 613));

// --- Crypto rows (crypto_dispatch.h). -----------------------------------

// Every row this build and CPU can run: the portable oracle, plus the x86
// row when present.
std::vector<const CryptoDispatch*> Rows() {
  std::vector<const CryptoDispatch*> rows = {PortableCrypto()};
  if (X86Crypto() != nullptr) {
    rows.push_back(X86Crypto());
  }
  return rows;
}

const uint8_t kSp800Key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                               0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                               0x09, 0xcf, 0x4f, 0x3c};

// FIPS-197 Appendix B and C.1 through each row's CTR slot: with the
// plaintext as the IV and counter 0, the keystream block is E(plaintext).
TEST(CryptoRowsTest, Fips197VectorsOnEveryRow) {
  uint8_t c1_key[16], c1_plain[16];
  for (int i = 0; i < 16; ++i) {
    c1_key[i] = static_cast<uint8_t>(i);
    c1_plain[i] = static_cast<uint8_t>(i * 0x11);
  }
  const uint8_t b_plain[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a,
                               0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2,
                               0xe0, 0x37, 0x07, 0x34};
  const uint8_t b_cipher[16] = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc,
                                0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97,
                                0x19, 0x6a, 0x0b, 0x32};
  const uint8_t c1_cipher[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                                 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                                 0x70, 0xb4, 0xc5, 0x5a};
  const Aes128 b_aes(KeyFromHex(kSp800Key));
  const Aes128 c1_aes(KeyFromHex(c1_key));
  for (const CryptoDispatch* row : Rows()) {
    uint8_t out[16] = {};
    row->aes_ctr_xor(b_aes.round_keys(), b_plain, 0, out, 1);
    EXPECT_EQ(0, std::memcmp(out, b_cipher, 16)) << row->aes_impl;
    std::memset(out, 0, 16);
    row->aes_ctr_xor(c1_aes.round_keys(), c1_plain, 0, out, 1);
    EXPECT_EQ(0, std::memcmp(out, c1_cipher, 16)) << row->aes_impl;
  }
}

// NIST SP 800-38A F.5.1 (CTR-AES128.Encrypt), all four blocks, whole and
// block by block; F.5.2 (decrypt) is the same operation run backwards.
TEST(CryptoRowsTest, Sp80038aF51AllBlocksOnEveryRow) {
  AesBlock iv;
  for (int i = 0; i < 16; ++i) {
    iv[i] = static_cast<uint8_t>(0xf0 + i);
  }
  const uint8_t plain[64] = {
      0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e,
      0x11, 0x73, 0x93, 0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03,
      0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf, 0x8e, 0x51, 0x30,
      0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb, 0xc1, 0x19,
      0x1a, 0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b,
      0x17, 0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c, 0x37, 0x10};
  const uint8_t cipher[64] = {
      0x87, 0x4d, 0x61, 0x91, 0xb6, 0x20, 0xe3, 0x26, 0x1b, 0xef, 0x68,
      0x64, 0x99, 0x0d, 0xb6, 0xce, 0x98, 0x06, 0xf6, 0x6b, 0x79, 0x70,
      0xfd, 0xff, 0x86, 0x17, 0x18, 0x7b, 0xb9, 0xff, 0xfd, 0xff, 0x5a,
      0xe4, 0xdf, 0x3e, 0xdb, 0xd5, 0xd3, 0x5e, 0x5b, 0x4f, 0x09, 0x02,
      0x0d, 0xb0, 0x3e, 0xab, 0x1e, 0x03, 0x1d, 0xda, 0x2f, 0xbe, 0x03,
      0xd1, 0x79, 0x21, 0x70, 0xa0, 0xf3, 0x00, 0x9c, 0xee};
  for (const CryptoDispatch* row : Rows()) {
    const AesCtr ctr(KeyFromHex(kSp800Key), iv, row);
    uint8_t buf[64];
    std::memcpy(buf, plain, 64);
    ctr.Crypt(0, buf, 64);
    EXPECT_EQ(0, std::memcmp(buf, cipher, 64)) << row->aes_impl;
    ctr.Crypt(0, buf, 64);
    EXPECT_EQ(0, std::memcmp(buf, plain, 64)) << row->aes_impl;
    for (int b = 3; b >= 0; --b) {
      ctr.Crypt(16 * b, buf + 16 * b, 16);
    }
    EXPECT_EQ(0, std::memcmp(buf, cipher, 64)) << row->aes_impl;
  }
}

// The CTR contract restoration relies on, row against row: random keys,
// IVs, offsets and lengths — unaligned heads and tails, and runs of eight
// blocks and more that exercise the in-flight lanes.
TEST(CryptoRowsTest, RowsMatchPortableAtUnalignedOffsetsAndLengths) {
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    AesKey128 key;
    AesBlock iv;
    rng.FillBytes(key.data(), key.size());
    rng.FillBytes(iv.data(), iv.size());
    // Mostly small offsets; some far into the stream.
    const uint64_t offset = trial % 8 == 0 ? rng.NextU64() >> 8
                                           : rng.NextBounded(1 << 20);
    const size_t len = static_cast<size_t>(rng.NextBounded(16 * 8 * 3 + 32));
    std::vector<uint8_t> data(len);
    rng.FillBytes(data.data(), data.size());
    std::vector<uint8_t> want = data;
    AesCtr(key, iv, PortableCrypto()).Crypt(offset, want.data(), want.size());
    for (const CryptoDispatch* row : Rows()) {
      std::vector<uint8_t> got = data;
      AesCtr(key, iv, row).Crypt(offset, got.data(), got.size());
      ASSERT_EQ(got, want) << row->aes_impl << " trial " << trial
                           << " offset " << offset << " len " << len;
    }
  }
}

// The counter is the IV's low 8 bytes, big-endian, mod 2^64: it wraps
// without carrying into the high half. The expected keystream is built
// block by block from the ECB primitive; the wrap falls inside a run of
// eight blocks.
TEST(CryptoRowsTest, CounterWrapsWithoutCarryIntoIvHighHalf) {
  const AesKey128 key = KeyFromHex(kSp800Key);
  AesBlock iv;
  for (int i = 0; i < 8; ++i) {
    iv[i] = static_cast<uint8_t>(0xa0 + i);
  }
  const uint64_t start = ~uint64_t{0} - 2;  // Wraps at block 3.
  for (int i = 0; i < 8; ++i) {
    iv[8 + i] = static_cast<uint8_t>(start >> (56 - 8 * i));
  }
  constexpr int kBlocks = 20;
  std::vector<uint8_t> want(16 * kBlocks);
  const Aes128 aes(key);
  for (int b = 0; b < kBlocks; ++b) {
    uint8_t* block = want.data() + 16 * b;
    std::memcpy(block, iv.data(), 8);
    const uint64_t counter = start + static_cast<uint64_t>(b);
    for (int i = 0; i < 8; ++i) {
      block[8 + i] = static_cast<uint8_t>(counter >> (56 - 8 * i));
    }
    aes.EncryptBlock(block);
  }
  for (const CryptoDispatch* row : Rows()) {
    std::vector<uint8_t> got(want.size(), 0);
    AesCtr(key, iv, row).CryptAll(got.data(), got.size());
    EXPECT_EQ(got, want) << row->aes_impl;
    // Unaligned, straddling the wrap.
    std::vector<uint8_t> part(40, 0);
    AesCtr(key, iv, row).Crypt(37, part.data(), part.size());
    EXPECT_EQ(0, std::memcmp(part.data(), want.data() + 37, part.size()))
        << row->aes_impl;
  }
}

// TZLLM_SIMD=off pins the portable row as well as the scalar kernels.
TEST(CryptoRowsTest, SimdOffPinsThePortableRow) {
  for (const char* off : {"off", "OFF", "scalar", "0", "none"}) {
    EXPECT_EQ(ResolveCrypto(off), PortableCrypto()) << off;
  }
  const CryptoDispatch* best =
      X86Crypto() != nullptr ? X86Crypto() : PortableCrypto();
  EXPECT_EQ(ResolveCrypto(nullptr), best);
  EXPECT_EQ(ResolveCrypto(""), best);
  EXPECT_EQ(ResolveCrypto("avx2"), best);
  if (X86Crypto() != nullptr) {
    // The x86 row exists only when at least one slot is hardware.
    EXPECT_TRUE(std::strcmp(X86Crypto()->aes_impl, "aes-ni") == 0 ||
                std::strcmp(X86Crypto()->sha_impl, "sha-ni") == 0 ||
                std::strcmp(X86Crypto()->ghash_impl, "pclmul") == 0);
  }
}

TEST(AesCtrTest, DistinctIvsGiveDistinctStreams) {
  AesKey128 key{};
  AesBlock iv1{}, iv2{};
  iv2[0] = 1;
  uint8_t a[32] = {0}, b[32] = {0};
  AesCtr(key, iv1).CryptAll(a, 32);
  AesCtr(key, iv2).CryptAll(b, 32);
  EXPECT_NE(0, std::memcmp(a, b, 32));
}

}  // namespace
}  // namespace tzllm

#include "src/crypto/gmac.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/crypto_dispatch.h"

namespace tzllm {
namespace {

// Every row this build and CPU can run: the portable oracle, plus the x86
// row when present.
std::vector<const CryptoDispatch*> Rows() {
  std::vector<const CryptoDispatch*> rows = {PortableCrypto()};
  if (X86Crypto() != nullptr) {
    rows.push_back(X86Crypto());
  }
  return rows;
}

std::string Hex(const uint8_t* data, size_t len) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xf]);
  }
  return out;
}

std::string Hex(const GmacTag& tag) { return Hex(tag.data(), tag.size()); }

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out(hex.size() / 2);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(std::stoi(hex.substr(2 * i, 2), nullptr, 16));
  }
  return out;
}

GmacTag MacOf(const AesKey128& key, const GmacIv& iv, const uint8_t* data,
              size_t len, const CryptoDispatch* row) {
  Gmac mac(key, iv, row);
  mac.Update(data, len);
  return mac.Finalize();
}

// McGrew and Viega, "The Galois/Counter Mode of Operation (GCM)", test
// cases 1 and 2: K = 0^128, IV = 0^96. Case 1 has no data, so its tag is
// E_K(J0) alone. Case 2 encrypts one zero block to
// C = 0388dace60b6a392f328c2b971b2fe78; its GHASH runs over C and the
// length block [0]_64 || [128]_64, and its tag is E_K(J0) ^ that GHASH.
TEST(GhashRowsTest, McGrewViegaCases1And2OnEveryRow) {
  const AesKey128 zero_key{};
  const GmacIv zero_iv{};
  const std::vector<uint8_t> h = FromHex("66e94bd4ef8a2c3b884cfa59ca342b2e");
  std::vector<uint8_t> blocks = FromHex("0388dace60b6a392f328c2b971b2fe78");
  blocks.resize(32, 0);
  blocks[31] = 0x80;
  for (const CryptoDispatch* row : Rows()) {
    SCOPED_TRACE(row->ghash_impl);
    const GmacTag mask = MacOf(zero_key, zero_iv, nullptr, 0, row);
    EXPECT_EQ(Hex(mask), "58e2fccefa7e3061367f1d57a4e7455a");

    GhashKey key;
    row->ghash_init(h.data(), &key);
    uint8_t y[16] = {};
    row->ghash(key, y, blocks.data(), 2);
    EXPECT_EQ(Hex(y, 16), "f38cbb1ad69223dcc3457ae5b6b0f885");
    uint8_t stepwise[16] = {};
    row->ghash(key, stepwise, blocks.data(), 1);
    row->ghash(key, stepwise, blocks.data() + 16, 1);
    EXPECT_EQ(Hex(stepwise, 16), Hex(y, 16));
    GmacTag tag;
    for (size_t i = 0; i < tag.size(); ++i) {
      tag[i] = mask[i] ^ y[i];
    }
    EXPECT_EQ(Hex(tag), "ab6e47d42cec13bdf53a67b21257bddf");
  }
}

// GMAC = AES-128-GCM with an empty plaintext and the data as AAD. Key and
// IV are McGrew–Viega case 3's; the 60-byte data is case 4's plaintext,
// the others are bytes (131 i + 7) mod 256. Each tag was computed when
// written with Python `cryptography` 48:
// AESGCM(key).encrypt(iv, b"", data). Fed whole and in two pieces.
TEST(GhashRowsTest, GmacTagsMatchAesGcmOnEveryRow) {
  AesKey128 key;
  const std::vector<uint8_t> key_bytes =
      FromHex("feffe9928665731c6d6a8f9467308308");
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  GmacIv iv;
  const std::vector<uint8_t> iv_bytes = FromHex("cafebabefacedbaddecaf888");
  std::copy(iv_bytes.begin(), iv_bytes.end(), iv.begin());
  auto pattern = [](size_t n) {
    std::vector<uint8_t> data(n);
    for (size_t i = 0; i < n; ++i) {
      data[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    return data;
  };
  struct Vector {
    std::vector<uint8_t> data;
    const char* tag;
  };
  const Vector vectors[] = {
      {pattern(0), "3247184b3c4f69a44dbcd22887bbb418"},
      {pattern(1), "7dab340c8a0f05e4dc78e23b5f6e3add"},
      {pattern(15), "03f8b8c720e7ef1f49c2a1b5f67b86b4"},
      {pattern(16), "5912d48a30117e4d9eb292191290677e"},
      {pattern(17), "3e2bc20de51616d5bd1a206729897b08"},
      {FromHex("d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d"
               "8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657"
               "ba637b39"),
       "ffb400e7fd5ad8583f1e10c809074607"},
      {pattern(4096), "45aab6b34bb185e46628ec91ffba5e6a"},
  };
  for (const CryptoDispatch* row : Rows()) {
    for (const Vector& v : vectors) {
      SCOPED_TRACE(std::string(row->ghash_impl) + " on " +
                   std::to_string(v.data.size()) + " bytes");
      EXPECT_EQ(Hex(MacOf(key, iv, v.data.data(), v.data.size(), row)),
                v.tag);
      const size_t cut = v.data.size() / 3;
      Gmac mac(key, iv, row);
      mac.Update(v.data.data(), cut);
      mac.Update(v.data.data() + cut, v.data.size() - cut);
      EXPECT_EQ(Hex(mac.Finalize()), v.tag);
    }
  }
}

// Restoration feeds a tensor's tag in frame-sized pieces that start and
// end anywhere: on every row, random keys, IVs and lengths up to 4 KiB fed
// at random split points must give the portable row's one-shot tag.
TEST(GhashRowsTest, RandomKeysAndSplitsMatchPortable) {
  Rng rng(0x6A4C);
  for (int trial = 0; trial < 1000; ++trial) {
    AesKey128 key;
    GmacIv iv;
    rng.FillBytes(key.data(), key.size());
    rng.FillBytes(iv.data(), iv.size());
    std::vector<uint8_t> data(rng.NextBounded(4097));
    rng.FillBytes(data.data(), data.size());
    const GmacTag want =
        MacOf(key, iv, data.data(), data.size(), PortableCrypto());
    for (const CryptoDispatch* row : Rows()) {
      Gmac mac(key, iv, row);
      size_t pos = 0;
      while (pos < data.size()) {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(data.size() - pos, rng.NextBounded(300)));
        mac.Update(data.data() + pos, n);
        pos += n;
      }
      ASSERT_EQ(Hex(mac.Finalize()), Hex(want))
          << row->ghash_impl << " trial " << trial << " len " << data.size();
    }
  }
}

// The slot itself, row against row, from a nonzero state: every block
// count from 0 to 40 covers the 8-block aggregation and each remainder.
TEST(GhashRowsTest, SlotMatchesPortableForEveryBlockCount) {
  Rng rng(38);
  for (uint64_t nblocks = 0; nblocks <= 40; ++nblocks) {
    uint8_t h[16], y0[16];
    rng.FillBytes(h, sizeof(h));
    rng.FillBytes(y0, sizeof(y0));
    std::vector<uint8_t> blocks(16 * nblocks);
    rng.FillBytes(blocks.data(), blocks.size());
    GhashKey portable_key;
    GhashInitPortable(h, &portable_key);
    uint8_t want[16];
    std::memcpy(want, y0, 16);
    GhashPortable(portable_key, want, blocks.data(), nblocks);
    for (const CryptoDispatch* row : Rows()) {
      GhashKey key;
      row->ghash_init(h, &key);
      uint8_t got[16];
      std::memcpy(got, y0, 16);
      row->ghash(key, got, blocks.data(), nblocks);
      EXPECT_EQ(Hex(got, 16), Hex(want, 16))
          << row->ghash_impl << " over " << nblocks << " blocks";
    }
  }
}

// TZLLM_SIMD=off pins the portable GHASH with the rest of the row.
TEST(GhashRowsTest, SimdOffPinsThePortableGhash) {
  for (const char* off : {"off", "scalar", "0", "none"}) {
    const CryptoDispatch* row = ResolveCrypto(off);
    EXPECT_EQ(row->ghash, &GhashPortable) << off;
    EXPECT_STREQ(row->ghash_impl, "portable") << off;
  }
  if (X86Crypto() != nullptr) {
    EXPECT_EQ(ResolveCrypto(nullptr), X86Crypto());
  }
}

TEST(GmacTest, TagDependsOnKeyIvAndEveryByte) {
  AesKey128 key{};
  key[0] = 7;
  GmacIv iv{};
  std::vector<uint8_t> data(100, 0x5a);
  const GmacTag base = MacOf(key, iv, data.data(), data.size(), ActiveCrypto());
  data[99] ^= 1;
  EXPECT_NE(MacOf(key, iv, data.data(), data.size(), ActiveCrypto()), base);
  data[99] ^= 1;
  iv[3] = 1;
  EXPECT_NE(MacOf(key, iv, data.data(), data.size(), ActiveCrypto()), base);
  iv[3] = 0;
  key[15] = 1;
  EXPECT_NE(MacOf(key, iv, data.data(), data.size(), ActiveCrypto()), base);
  // A trailing zero byte changes the length block, so it changes the tag.
  key[15] = 0;
  data.push_back(0);
  EXPECT_NE(MacOf(key, iv, data.data(), data.size(), ActiveCrypto()), base);
}

}  // namespace
}  // namespace tzllm

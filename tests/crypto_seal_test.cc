// HMAC-SHA256 against RFC 4231 and the seal built on it: round trips,
// determinism, the binding of kind, object id and generation, and the
// construction itself recomputed from its parts.

#include "src/crypto/seal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"

namespace tzllm {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

Sha256Digest Hmac(const std::vector<uint8_t>& key,
                  const std::vector<uint8_t>& data) {
  HmacSha256 h(key.data(), key.size());
  h.Update(data.data(), data.size());
  return h.Finalize();
}

AesKey128 TestKey() {
  AesKey128 key;
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0x30 + 7 * i);
  }
  return key;
}

// RFC 4231 test cases 1-4, 6 and 7 (case 5 truncates the output). Offline:
// python3 -c "import hmac, hashlib;
//   print(hmac.new(key, data, hashlib.sha256).hexdigest())"
TEST(HmacSha256Test, Rfc4231Vectors) {
  struct Case {
    std::vector<uint8_t> key;
    std::vector<uint8_t> data;
    const char* mac;
  };
  std::vector<uint8_t> key4;
  for (uint8_t b = 0x01; b <= 0x19; ++b) {
    key4.push_back(b);
  }
  const std::vector<Case> cases = {
      {std::vector<uint8_t>(20, 0x0b), Bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {Bytes("Jefe"), Bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {std::vector<uint8_t>(20, 0xaa), std::vector<uint8_t>(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, std::vector<uint8_t>(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {std::vector<uint8_t>(131, 0xaa),
       Bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {std::vector<uint8_t>(131, 0xaa),
       Bytes("This is a test using a larger than block-size key and a larger "
             "than block-size data. The key needs to be hashed before being "
             "used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(DigestToHex(Hmac(cases[i].key, cases[i].data)), cases[i].mac)
        << "case index " << i;
  }
}

TEST(HmacSha256Test, SplitUpdatesMatchOneShot) {
  std::vector<uint8_t> data(300);
  Rng(5).FillBytes(data.data(), data.size());
  const std::vector<uint8_t> key = Bytes("split-key");
  HmacSha256 h(key.data(), key.size());
  h.Update(data.data(), 1);
  h.Update(data.data() + 1, 130);
  h.Update(data.data() + 131, data.size() - 131);
  EXPECT_EQ(h.Finalize(), Hmac(key, data));
}

TEST(SealTest, RoundTripsEveryLengthIncludingEmpty) {
  const SealContext ctx{SealKind::kCheckpoint, "m.sess.1"};
  for (size_t len : {0, 1, 15, 16, 17, 64, 300, 5000}) {
    std::vector<uint8_t> plain(len);
    Rng(len + 1).FillBytes(plain.data(), plain.size());
    const std::vector<uint8_t> blob =
        Seal(TestKey(), ctx, plain.data(), plain.size());
    ASSERT_EQ(blob.size(), kSealHeaderBytes + len);
    auto opened = Open(TestKey(), ctx, blob);
    ASSERT_TRUE(opened.ok()) << len << ": " << opened.status().ToString();
    EXPECT_EQ(*opened, plain) << len;
  }
}

TEST(SealTest, DeterministicAndPlaintextDependentIv) {
  const SealContext ctx{SealKind::kKvPage, "0", 1};
  std::vector<uint8_t> a(64, 0x11), b(64, 0x11);
  b[63] ^= 1;
  const auto seal_a = Seal(TestKey(), ctx, a.data(), a.size());
  // One plaintext, one context: the same blob, byte for byte.
  EXPECT_EQ(seal_a, Seal(TestKey(), ctx, a.data(), a.size()));
  // A one-bit change in the last byte moves the tag and with it the IV, so
  // the two ciphertexts differ from the first block on.
  const auto seal_b = Seal(TestKey(), ctx, b.data(), b.size());
  EXPECT_NE(std::vector<uint8_t>(seal_a.begin() + kSealHeaderBytes,
                                 seal_a.begin() + kSealHeaderBytes + 16),
            std::vector<uint8_t>(seal_b.begin() + kSealHeaderBytes,
                                 seal_b.begin() + kSealHeaderBytes + 16));
}

TEST(SealTest, OpensOnlyAsTheObjectItWasSealedFor) {
  const SealContext ctx{SealKind::kKvPage, "7", 3};
  std::vector<uint8_t> plain(100, 0x42);
  const auto blob = Seal(TestKey(), ctx, plain.data(), plain.size());
  ASSERT_TRUE(Open(TestKey(), ctx, blob).ok());

  AesKey128 other_key = TestKey();
  other_key[0] ^= 1;
  const std::vector<std::pair<AesKey128, SealContext>> wrong = {
      {TestKey(), {SealKind::kCheckpoint, "7", 3}},  // Another kind.
      {TestKey(), {SealKind::kKvPage, "8", 3}},      // Another object id.
      {TestKey(), {SealKind::kKvPage, "7", 2}},      // An older generation.
      {other_key, ctx},                              // Another key.
  };
  for (size_t i = 0; i < wrong.size(); ++i) {
    auto opened = Open(wrong[i].first, wrong[i].second, blob);
    ASSERT_FALSE(opened.ok()) << "case index " << i;
    EXPECT_EQ(opened.status().code(), ErrorCode::kDataCorruption);
  }
}

TEST(SealTest, FailedOpenScrubsItsOutput) {
  const SealContext ctx{SealKind::kModelKey, "m"};
  std::vector<uint8_t> plain(32, 0x5a);
  auto blob = Seal(TestKey(), ctx, plain.data(), plain.size());
  blob.back() ^= 1;
  std::vector<uint8_t> out(plain.size(), 0xee);
  EXPECT_EQ(Open(TestKey(), ctx, blob.data(), blob.size(), out.data(),
                 out.size())
                .code(),
            ErrorCode::kDataCorruption);
  EXPECT_EQ(out, std::vector<uint8_t>(out.size(), 0));
  // A length mismatch fails and scrubs too, before any decryption.
  std::fill(out.begin(), out.end(), 0xee);
  EXPECT_EQ(Open(TestKey(), ctx, blob.data(), blob.size() - 1, out.data(),
                 out.size())
                .code(),
            ErrorCode::kDataCorruption);
  EXPECT_EQ(out, std::vector<uint8_t>(out.size(), 0));
}

// The blob is "TZSEAL01" || tag || AES-128-CTR(K_enc, tag[0..16), plain),
// tag = HMAC(K_mac, u8 kind || str object id || u64 generation || plain),
// and K_enc / K_mac are HMACs of the caller's key over fixed labels.
TEST(SealTest, MatchesTheConstruction) {
  const SealContext ctx{SealKind::kKvPage, "12", 9};
  std::vector<uint8_t> plain(77);
  Rng(3).FillBytes(plain.data(), plain.size());
  const auto blob = Seal(TestKey(), ctx, plain.data(), plain.size());

  const AesKey128 raw_key = TestKey();
  const std::vector<uint8_t> key(raw_key.begin(), raw_key.end());
  const Sha256Digest enc = Hmac(key, Bytes("tzllm/seal/enc/v1"));
  const Sha256Digest mac = Hmac(key, Bytes("tzllm/seal/mac/v1"));
  std::vector<uint8_t> tagged;
  ByteWriter w(&tagged);
  w.U8(static_cast<uint8_t>(SealKind::kKvPage));
  w.Str("12");
  w.U64(9);
  w.Bytes(plain.data(), plain.size());
  const Sha256Digest tag =
      Hmac(std::vector<uint8_t>(mac.begin(), mac.end()), tagged);
  AesKey128 k_enc;
  AesBlock iv;
  std::copy_n(enc.begin(), k_enc.size(), k_enc.begin());
  std::copy_n(tag.begin(), iv.size(), iv.begin());
  std::vector<uint8_t> ct = plain;
  AesCtr(k_enc, iv).CryptAll(ct.data(), ct.size());

  std::vector<uint8_t> expected = Bytes("TZSEAL01");
  expected.insert(expected.end(), tag.begin(), tag.end());
  expected.insert(expected.end(), ct.begin(), ct.end());
  EXPECT_EQ(blob, expected);
}

}  // namespace
}  // namespace tzllm

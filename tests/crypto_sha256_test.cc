#include "src/crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/crypto_dispatch.h"

namespace tzllm {
namespace {

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(DigestToHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalEqualsOneShot) {
  std::vector<uint8_t> data(7777);
  Rng(11).FillBytes(data.data(), data.size());
  const Sha256Digest oneshot = Sha256::Hash(data.data(), data.size());
  // Feed in awkward chunk sizes.
  Sha256 h;
  size_t pos = 0;
  size_t chunk = 1;
  while (pos < data.size()) {
    const size_t n = std::min(chunk, data.size() - pos);
    h.Update(data.data() + pos, n);
    pos += n;
    chunk = chunk * 2 + 1;
  }
  EXPECT_EQ(h.Finalize(), oneshot);
}

TEST(Sha256Test, SingleBitFlipChangesDigest) {
  std::vector<uint8_t> data(256);
  Rng(13).FillBytes(data.data(), data.size());
  const Sha256Digest before = Sha256::Hash(data.data(), data.size());
  data[100] ^= 0x01;
  EXPECT_NE(Sha256::Hash(data.data(), data.size()), before);
}

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

// FIPS 180-4 / NIST CAVS vectors on every row. Lengths 0, 3, 56 and 112
// cover both padding shapes (one block and two); the million 'a's and the
// 100,003-byte pattern (digest from Python's hashlib) run the bulk path.
TEST(Sha256RowsTest, NistVectorsOnEveryRow) {
  struct Vector {
    std::string message;
    const char* digest;
  };
  std::string pattern(100003, '\0');
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<char>(i * 131 + 7);
  }
  const Vector vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
       "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
      {pattern,
       "bbfad4f95f90d384d555f3df407b8abd654b51131434e1bdca5cda29038f40d1"},
  };
  for (const CryptoDispatch* row : Rows()) {
    for (const Vector& v : vectors) {
      Sha256 h(row);
      h.Update(v.message);
      EXPECT_EQ(DigestToHex(h.Finalize()), v.digest)
          << row->sha_impl << " on " << v.message.size() << " bytes";
    }
  }
}

// Streaming restoration feeds a tensor's digest in frame-sized pieces that
// start and end anywhere: every row, fed at random split points, must give
// the portable row's one-shot digest.
TEST(Sha256RowsTest, RandomSplitsMatchPortableOneShot) {
  Rng rng(180);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> data(rng.NextBounded(3000));
    rng.FillBytes(data.data(), data.size());
    Sha256 oracle(PortableCrypto());
    oracle.Update(data.data(), data.size());
    const Sha256Digest want = oracle.Finalize();
    for (const CryptoDispatch* row : Rows()) {
      Sha256 h(row);
      size_t pos = 0;
      while (pos < data.size()) {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(data.size() - pos, rng.NextBounded(200)));
        h.Update(data.data() + pos, n);
        pos += n;
      }
      ASSERT_EQ(h.Finalize(), want)
          << row->sha_impl << " trial " << trial << " len " << data.size();
    }
  }
}

}  // namespace
}  // namespace tzllm

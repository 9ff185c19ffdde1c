// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used by the TEE, as HMAC-SHA256 (seal.h), to authenticate sealed blobs
// and to derive keys (key_hierarchy.h, the seal's and the weight tags'
// keys). The weights themselves are authenticated by GMAC (gmac.h), which
// runs several times faster. Verified against NIST vectors in
// tests/crypto_sha256_test.cc.
//
// Whole 64-byte blocks go to a crypto row's compress slot
// (crypto_dispatch.h): SHA-NI where the CPU has it, the portable FIPS 180-4
// loop otherwise. The portable row is the test oracle; it has no table
// lookups, so unlike the portable AES it is constant-time.

#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/crypto/crypto_dispatch.h"

namespace tzllm {

using Sha256Digest = std::array<uint8_t, 32>;

class Sha256 {
 public:
  // Hashes on the process-wide row; `row` pins one (tests check each).
  Sha256() : Sha256(ActiveCrypto()) {}
  explicit Sha256(const CryptoDispatch* row);

  void Update(const uint8_t* data, size_t len);
  void Update(const std::string& s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  // Finalizes and returns the digest. The object must not be reused after.
  Sha256Digest Finalize();

  // One-shot helpers.
  static Sha256Digest Hash(const uint8_t* data, size_t len);
  static Sha256Digest Hash(const std::string& s);

 private:
  Sha256CompressFn compress_;
  std::array<uint32_t, 8> state_;
  uint64_t total_len_ = 0;
  std::array<uint8_t, 64> buffer_;
  size_t buffer_len_ = 0;
};

// Lowercase hex string of a digest.
std::string DigestToHex(const Sha256Digest& digest);

}  // namespace tzllm

#endif  // SRC_CRYPTO_SHA256_H_

// GMAC (NIST SP 800-38D): the GCM authentication tag over data that is
// only authenticated, i.e. AES-128-GCM with an empty plaintext and the data
// as its additional authenticated data:
//
//   H    = E_K(0^128)
//   J0   = IV || 0^31 || 1                      (a 96-bit IV)
//   tag  = E_K(J0) ^ GHASH_H(data || 0-pad to 16 || [8 * len]_64 || 0^64)
//
// Implemented from scratch, like aes.h and sha256.h. H and E_K(J0) come
// from AesCtr, so the block cipher runs on the AES slot of the crypto row;
// whole 16-byte blocks go to the row's GHASH slot (crypto_dispatch.h),
// PCLMULQDQ where the CPU has it, the portable bit-serial multiply
// otherwise. Verified against the McGrew–Viega GCM vectors and Python
// `cryptography` AESGCM tags in tests/crypto_ghash_test.cc.
//
// GHASH is a universal hash, so a tag is only unforgeable while each
// (key, IV) pair authenticates one message: callers derive a key of its
// own for GMAC and never reuse an IV under it for different data.

#ifndef SRC_CRYPTO_GMAC_H_
#define SRC_CRYPTO_GMAC_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/crypto/aes.h"
#include "src/crypto/crypto_dispatch.h"

namespace tzllm {

using GmacIv = std::array<uint8_t, 12>;
using GmacTag = std::array<uint8_t, 16>;

class Gmac {
 public:
  // Authenticates on the process-wide row; `row` pins one (tests check
  // each).
  Gmac(const AesKey128& key, const GmacIv& iv,
       const CryptoDispatch* row = ActiveCrypto());

  void Update(const uint8_t* data, size_t len);

  // Finalizes and returns the tag. The object must not be reused after.
  GmacTag Finalize();

 private:
  GhashFn ghash_;
  GhashKey key_;
  AesBlock mask_;  // E_K(J0).
  AesBlock y_{};   // GHASH state over the whole blocks so far.
  uint64_t total_len_ = 0;
  AesBlock buffer_{};
  size_t buffer_len_ = 0;
};

}  // namespace tzllm

#endif  // SRC_CRYPTO_GMAC_H_

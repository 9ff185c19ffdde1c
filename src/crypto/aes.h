// AES-128 block cipher (FIPS-197) and CTR-mode streaming, implemented from
// scratch for the reproduction. The paper links llama.cpp against OpenSSL for
// parameter decryption; here the TEE uses this self-contained implementation
// so the repo has no external crypto dependency. Verified against FIPS-197 /
// NIST SP 800-38A test vectors in tests/crypto_aes_test.cc.
//
// CTR mode lets the restoration pipeline decrypt arbitrary tensor extents
// independently (seekable by block offset), which is exactly what the
// chunked, preemptible decryption micro-operators need.
//
// AesCtr runs its whole blocks through a crypto row (crypto_dispatch.h):
// AES-NI where the CPU has it, the portable byte-wise code otherwise. The
// portable row is the test oracle. It indexes the S-box with secret bytes,
// so its cache footprint depends on the key and the data: the timing
// channel TrustZone cache attacks (TruSpy, ARMageddon) exploit. The key
// schedule is portable code on every row, so one S-box pass over the key
// runs per AesCtr; the per-block work leaves the S-box on AES-NI.

#ifndef SRC_CRYPTO_AES_H_
#define SRC_CRYPTO_AES_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/crypto/crypto_dispatch.h"

namespace tzllm {

using AesKey128 = std::array<uint8_t, 16>;
using AesBlock = std::array<uint8_t, 16>;

class Aes128 {
 public:
  explicit Aes128(const AesKey128& key);

  // Encrypts one 16-byte block in place (portable ECB primitive).
  void EncryptBlock(uint8_t block[16]) const;

  // The 11 round keys, 16 bytes each (FIPS-197 byte order).
  const uint8_t* round_keys() const { return round_keys_.data(); }

 private:
  std::array<uint8_t, 176> round_keys_;
};

// AES-128-CTR stream cipher. Encryption == decryption.
class AesCtr {
 public:
  // `row` picks the crypto row (tests pin each one); callers leave it at
  // the process-wide row.
  AesCtr(const AesKey128& key, const AesBlock& iv,
         const CryptoDispatch* row = ActiveCrypto());

  // XORs the keystream for absolute stream offset `offset` into
  // data[0..len). Offsets may be arbitrary (not block aligned) and calls may
  // be issued out of order — essential for parallel / preempted decryption
  // operators that each own a byte range of a tensor.
  void Crypt(uint64_t offset, uint8_t* data, size_t len) const;

  // Convenience for contiguous whole-buffer operation starting at offset 0.
  void CryptAll(uint8_t* data, size_t len) const { Crypt(0, data, len); }

 private:
  Aes128 cipher_;
  AesBlock iv_;
  AesCtrXorFn ctr_xor_;
};

}  // namespace tzllm

#endif  // SRC_CRYPTO_AES_H_

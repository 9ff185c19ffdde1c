// Sealed blobs: the one framing for TEE state kept in REE-controlled flash
// or memory (paper §6, §3.2), which the REE can read, replay or rewrite:
// the wrapped model key, the TZGUF meta file, session checkpoints and the
// serving manifest, and spilled KV pages.
//
// The seal is deterministic authenticated encryption in the SIV style
// (Rogaway and Shrimpton, "Deterministic Authenticated-Encryption",
// EUROCRYPT 2006; RFC 5297):
//
//   K_enc, K_mac = HMAC-SHA256(key, fixed labels)
//   tag  = HMAC-SHA256(K_mac, context || plaintext)
//   blob = "TZSEAL01" || tag || AES-128-CTR(K_enc, IV = tag[0..16), plaintext)
//
// The context names the blob's kind, the object it belongs to and, for KV
// pages, the spill generation. It is authenticated but never stored, so a
// blob opens only as the object it was sealed for. The IV is a function of
// the plaintext, so two different plaintexts never share a keystream,
// within or across boots, with no nonce, counter or RNG to keep. Sealing
// one plaintext under one context twice gives the same blob: that reveals
// only that the two plaintexts are equal.
//
// Not covered: freshness. An older blob of the same object still opens, so
// the REE can roll an object back; refusing that needs a replay-protected
// monotonic counter.

#ifndef SRC_CRYPTO_SEAL_H_
#define SRC_CRYPTO_SEAL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/crypto/aes.h"
#include "src/crypto/sha256.h"

namespace tzllm {

// HMAC-SHA256 (RFC 2104) over Sha256, so it runs on the active crypto row.
class HmacSha256 {
 public:
  HmacSha256(const uint8_t* key, size_t key_len);

  void Update(const uint8_t* data, size_t len) { inner_.Update(data, len); }
  // Finalizes and returns the MAC. The object must not be reused after.
  Sha256Digest Finalize();

 private:
  Sha256 inner_;
  std::array<uint8_t, 64> outer_pad_;
};

// Whether a[0..n) == b[0..n), in time that depends only on n: no early
// exit at the first differing byte. Every tag comparison goes through it.
bool ConstantTimeEqual(const uint8_t* a, const uint8_t* b, size_t n);

// What a blob is. Each kind is bound into the context of its seals.
enum class SealKind : uint8_t {
  kModelKey = 1,    // A model key wrapped under the TEE key (<model>.key).
  kModelMeta = 2,   // TZGUF metadata (<model>.meta).
  kCheckpoint = 3,  // A session checkpoint or the serving manifest.
  kKvPage = 4,      // A KV page spilled to REE memory.
};

// The object a blob is sealed as: authenticated, never stored.
struct SealContext {
  SealKind kind;
  std::string object_id;    // Checkpoint file id, model id or page id.
  uint64_t generation = 0;  // KV spill generation; 0 for the other kinds.
};

// The magic and the tag. The ciphertext that follows is exactly as long as
// the plaintext.
inline constexpr size_t kSealHeaderBytes = 8 + 32;

// Seals plaintext[0..len) under `key` as `context`.
std::vector<uint8_t> Seal(const AesKey128& key, const SealContext& context,
                          const uint8_t* plaintext, size_t len);

// Opens blob[0..blob_len) into out[0..out_len), which must not overlap the
// blob. The blob must be exactly kSealHeaderBytes + out_len bytes, carry the
// seal magic, and its tag must match the decrypted plaintext under `key`
// and `context`. On any mismatch `out` is scrubbed and the result is
// kDataCorruption.
Status Open(const AesKey128& key, const SealContext& context,
            const uint8_t* blob, size_t blob_len, uint8_t* out,
            size_t out_len);

// Opens a blob of any length into a new buffer.
Result<std::vector<uint8_t>> Open(const AesKey128& key,
                                  const SealContext& context,
                                  const std::vector<uint8_t>& blob);

}  // namespace tzllm

#endif  // SRC_CRYPTO_SEAL_H_

// Model key hierarchy (paper §6, "Preventing direct access attacks"):
//
//   hardware root key (fused, never leaves the SoC model)
//     └── TEE key           (derived; only the TEE OS can use it)
//           └── model key   (per model; stored in flash sealed under the
//                            TEE key (src/crypto/seal.h); opened inside the
//                            TEE, released only to the LLM TA)
//
// Keys are derived with SHA-256-based KDF and model weights are encrypted
// with AES-128-CTR under their model key.

#ifndef SRC_CRYPTO_KEY_HIERARCHY_H_
#define SRC_CRYPTO_KEY_HIERARCHY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/crypto/aes.h"

namespace tzllm {

// A wrapped model key as stored in flash next to the model file.
struct WrappedModelKey {
  std::string model_id;
  std::vector<uint8_t> sealed;  // The key sealed under the TEE key.
};

class KeyHierarchy {
 public:
  // `root_seed` models the fused hardware unique key.
  explicit KeyHierarchy(uint64_t root_seed);

  // Derives the TEE key. In the threat model only TEE-side code may call
  // this; the REE never holds a KeyHierarchy with the correct seed.
  AesKey128 DeriveTeeKey() const;

  // Derives a fresh model key deterministically from the model id (provider
  // side; the provider knows the plaintext key and ships the wrapped form).
  AesKey128 DeriveModelKey(const std::string& model_id) const;

  // Wraps a model key under the TEE key for storage in untrusted flash.
  WrappedModelKey WrapModelKey(const std::string& model_id,
                               const AesKey128& model_key) const;

  // Opens a wrapped model key. Fails with kDataCorruption if the blob was
  // tampered with or wrapped for another model (REE flash is untrusted).
  Result<AesKey128> UnwrapModelKey(const WrappedModelKey& wrapped) const;

  // Per-model CTR IV (public; derived from the model id). Only the weights
  // data file uses it (Tzguf::DataIv); sealed blobs derive theirs.
  static AesBlock ModelIv(const std::string& model_id);

 private:
  AesKey128 Kdf(const std::string& label) const;

  uint64_t root_seed_;
};

}  // namespace tzllm

#endif  // SRC_CRYPTO_KEY_HIERARCHY_H_

// TZGUF: the encrypted on-flash model container (GGUF-shaped, TrustZone-
// hardened). A provisioned model is three flash files:
//
//   <id>.key  — the model key, sealed under the device's TEE key (§6).
//   <id>.meta — metadata sealed under the model key: architecture config +
//               tensor table with one 16-byte GMAC tag per tensor. The
//               tags are the Iago defense for model loading: the TEE
//               checks a tensor's tag before it decrypts the tensor, so a
//               malicious REE filesystem cannot substitute content.
//   <id>.data — per-tensor payloads encrypted with AES-128-CTR keyed at the
//               tensor's file offset (so arbitrary extents decrypt
//               independently — the property chunked restoration needs).
//               Not a seal: it is encrypted once at provisioning, and the
//               tags inside the sealed meta authenticate it.
//
// The tags are encrypt-then-MAC: tensor i's tag is GMAC (gmac.h) over its
// CIPHERTEXT, the data file's bytes [file_offset, file_offset + data_bytes),
// under the tag key = the first 16 bytes of
// HMAC-SHA256(model key, "tzllm/weights/gmac/v1") with
// IV = big-endian u32 i || 0^64. The tag key is derived, so no GMAC runs
// under the key that encrypts the weights; the IV binds the tag to its
// tensor, so two tensors' ciphertexts cannot trade places.
//
// Both seals are src/crypto/seal.h blobs whose context binds the model id,
// so neither file opens as another model's.
//
// Functional models carry real quantized weights; paper-scale models use a
// synthetic .data stream and tagless tensors.

#ifndef SRC_LLM_TZGUF_H_
#define SRC_LLM_TZGUF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/crypto/key_hierarchy.h"
#include "src/crypto/gmac.h"
#include "src/hw/flash.h"
#include "src/llm/model_spec.h"

namespace tzllm {

struct TzgufMeta {
  std::string model_id;
  LlmConfig config;
  // Parallel to ModelSpec::Create(config).tensors().
  std::vector<GmacTag> tensor_tags;
  bool materialized = false;
  uint64_t data_file_bytes = 0;

  std::string MetaFile() const { return model_id + ".meta"; }
  std::string DataFile() const { return model_id + ".data"; }
};

class Tzguf {
 public:
  // --- Provider-side provisioning (host tool; not timed). ---
  // Creates the three files on flash. When `materialize` is true real
  // weights are generated from `weight_seed`, quantized, encrypted, tagged
  // and stored; the spec must be materializable. Returns the meta.
  static Result<TzgufMeta> Provision(FlashDevice* flash,
                                     const KeyHierarchy& keys,
                                     const std::string& model_id,
                                     const ModelSpec& spec,
                                     uint64_t weight_seed, bool materialize);

  // Reference plaintext weights for a materialized model (what the REE
  // baselines load, and what tests compare the protected path against).
  static std::vector<Tensor> ReferenceWeights(const ModelSpec& spec,
                                              uint64_t weight_seed);

  // --- TEE-side access. ---
  // Reads the wrapped key blob from flash (opened by UnwrapModelKey).
  static Result<WrappedModelKey> ReadWrappedKey(FlashDevice* flash,
                                                const std::string& model_id);
  // Opens the sealed metadata with the (unwrapped) key; kDataCorruption on
  // tamper, wrong key or another model's meta.
  static Result<TzgufMeta> ReadMeta(FlashDevice* flash,
                                    const std::string& model_id,
                                    const AesKey128& key);

  // In-place decryption of a data-file extent that has been loaded into a
  // buffer: `file_offset` is the extent's position in <id>.data.
  static void DecryptExtent(const AesKey128& key, const std::string& model_id,
                            uint64_t file_offset, uint8_t* data, uint64_t len);

  // The key every tensor tag is computed under, derived from the model key.
  static AesKey128 TagKey(const AesKey128& model_key);
  // A GMAC ready to take tensor `index`'s ciphertext under `tag_key`.
  static Gmac TensorMac(const AesKey128& tag_key, int index);

  // Verifies tensor `index`'s ciphertext, as read from the data file,
  // against the meta tag under `model_key`.
  static Status VerifyTensor(const TzgufMeta& meta,
                             const AesKey128& model_key, int index,
                             const uint8_t* ciphertext, uint64_t len);
  // The same check for a tag streamed by the caller; compares in constant
  // time.
  static Status CheckTensorTag(const TzgufMeta& meta, int index,
                               const GmacTag& tag);

  static AesBlock DataIv(const std::string& model_id) {
    return KeyHierarchy::ModelIv("data/" + model_id);
  }

  static std::string KeyFile(const std::string& model_id) {
    return model_id + ".key";
  }
};

}  // namespace tzllm

#endif  // SRC_LLM_TZGUF_H_

// TZGUF: the encrypted on-flash model container (GGUF-shaped, TrustZone-
// hardened). A provisioned model is three flash files:
//
//   <id>.key  — the model key, sealed under the device's TEE key (§6).
//   <id>.meta — metadata sealed under the model key: architecture config +
//               tensor table with per-tensor PLAINTEXT SHA-256 tags. The
//               tags are the Iago defense for model loading: after the TEE
//               decrypts a tensor it verifies the tag, so a malicious REE
//               filesystem cannot substitute content.
//   <id>.data — per-tensor payloads encrypted with AES-128-CTR keyed at the
//               tensor's file offset (so arbitrary extents decrypt
//               independently — the property chunked restoration needs).
//               Not a seal: it is encrypted once at provisioning, and the
//               tags inside the sealed meta verify it.
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
#include "src/crypto/sha256.h"
#include "src/hw/flash.h"
#include "src/llm/model_spec.h"

namespace tzllm {

struct TzgufMeta {
  std::string model_id;
  LlmConfig config;
  // Parallel to ModelSpec::Create(config).tensors().
  std::vector<Sha256Digest> tensor_tags;
  bool materialized = false;
  uint64_t data_file_bytes = 0;

  std::string MetaFile() const { return model_id + ".meta"; }
  std::string DataFile() const { return model_id + ".data"; }
};

class Tzguf {
 public:
  // --- Provider-side provisioning (host tool; not timed). ---
  // Creates the three files on flash. When `materialize` is true real
  // weights are generated from `weight_seed`, quantized, tagged, encrypted
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

  // Verifies tensor `index`'s plaintext bytes against the meta tag.
  static Status VerifyTensor(const TzgufMeta& meta, int index,
                             const uint8_t* data, uint64_t len);
  // The same check for a digest streamed by the caller.
  static Status CheckTensorDigest(const TzgufMeta& meta, int index,
                                  const Sha256Digest& digest);

  static AesBlock DataIv(const std::string& model_id) {
    return KeyHierarchy::ModelIv("data/" + model_id);
  }

  static std::string KeyFile(const std::string& model_id) {
    return model_id + ".key";
  }
};

}  // namespace tzllm

#endif  // SRC_LLM_TZGUF_H_

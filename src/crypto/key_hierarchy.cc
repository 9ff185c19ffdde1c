#include "src/crypto/key_hierarchy.h"

#include <cstring>

#include "src/crypto/seal.h"
#include "src/crypto/sha256.h"

namespace tzllm {

KeyHierarchy::KeyHierarchy(uint64_t root_seed) : root_seed_(root_seed) {}

AesKey128 KeyHierarchy::Kdf(const std::string& label) const {
  Sha256 h;
  uint8_t seed_bytes[8];
  for (int i = 0; i < 8; ++i) {
    seed_bytes[i] = static_cast<uint8_t>(root_seed_ >> (8 * i));
  }
  h.Update(seed_bytes, sizeof(seed_bytes));
  h.Update(label);
  const Sha256Digest digest = h.Finalize();
  AesKey128 key;
  std::memcpy(key.data(), digest.data(), key.size());
  return key;
}

AesKey128 KeyHierarchy::DeriveTeeKey() const { return Kdf("tzllm/tee-key/v1"); }

AesKey128 KeyHierarchy::DeriveModelKey(const std::string& model_id) const {
  return Kdf("tzllm/model-key/v1/" + model_id);
}

AesBlock KeyHierarchy::ModelIv(const std::string& model_id) {
  const Sha256Digest digest = Sha256::Hash("tzllm/model-iv/v1/" + model_id);
  AesBlock iv;
  std::memcpy(iv.data(), digest.data(), 8);
  // Zero the 64-bit counter half so CTR block indices start at 0.
  std::memset(iv.data() + 8, 0, 8);
  return iv;
}

WrappedModelKey KeyHierarchy::WrapModelKey(const std::string& model_id,
                                           const AesKey128& model_key) const {
  return {model_id, Seal(DeriveTeeKey(), {SealKind::kModelKey, model_id},
                         model_key.data(), model_key.size())};
}

Result<AesKey128> KeyHierarchy::UnwrapModelKey(
    const WrappedModelKey& wrapped) const {
  AesKey128 key;
  TZLLM_RETURN_IF_ERROR(Open(DeriveTeeKey(),
                             {SealKind::kModelKey, wrapped.model_id},
                             wrapped.sealed.data(), wrapped.sealed.size(),
                             key.data(), key.size()));
  return key;
}

}  // namespace tzllm

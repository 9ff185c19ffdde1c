#include "src/llm/tzguf.h"

#include <algorithm>
#include <cstring>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/crypto/seal.h"

namespace tzllm {

namespace {

std::vector<uint8_t> SerializeMetaBody(const TzgufMeta& meta) {
  std::vector<uint8_t> body;
  ByteWriter w(&body);
  w.Str(meta.model_id);
  const LlmConfig& c = meta.config;
  w.Str(c.name);
  w.U32(c.n_layers);
  w.U32(c.d_model);
  w.U32(c.n_heads);
  w.U32(c.n_kv_heads);
  w.U32(c.d_ff);
  w.U32(c.vocab_size);
  w.U32(c.max_ctx);
  w.U64(c.target_param_bytes);
  w.U8(meta.materialized ? 1 : 0);
  w.U64(meta.data_file_bytes);
  w.U32(static_cast<uint32_t>(meta.tensor_tags.size()));
  for (const GmacTag& tag : meta.tensor_tags) {
    w.Bytes(tag.data(), tag.size());
  }
  return body;
}

Result<TzgufMeta> DeserializeMetaBody(const std::vector<uint8_t>& body) {
  TzgufMeta meta;
  ByteReader r(body);
  LlmConfig& c = meta.config;
  uint32_t layers = 0, d = 0, heads = 0, kv = 0, ff = 0, vocab = 0, ctx = 0;
  uint8_t materialized = 0;
  uint32_t n_tags = 0;
  if (!r.Str(&meta.model_id) || !r.Str(&c.name) || !r.U32(&layers) ||
      !r.U32(&d) || !r.U32(&heads) || !r.U32(&kv) || !r.U32(&ff) ||
      !r.U32(&vocab) || !r.U32(&ctx) || !r.U64(&c.target_param_bytes) ||
      !r.U8(&materialized) || !r.U64(&meta.data_file_bytes) ||
      !r.U32(&n_tags)) {
    return Status(ErrorCode::kDataCorruption, "truncated TZGUF meta");
  }
  c.n_layers = layers;
  c.d_model = d;
  c.n_heads = heads;
  c.n_kv_heads = kv;
  c.d_ff = ff;
  c.vocab_size = vocab;
  c.max_ctx = ctx;
  meta.materialized = materialized != 0;
  // The count is checked against the bytes that hold the tags before it
  // sizes anything.
  if (static_cast<uint64_t>(n_tags) * sizeof(GmacTag) != r.remaining()) {
    return Status(ErrorCode::kDataCorruption,
                  "TZGUF tag count does not match the tag table");
  }
  meta.tensor_tags.resize(n_tags);
  for (auto& tag : meta.tensor_tags) {
    if (!r.Bytes(tag.data(), tag.size())) {
      return Status(ErrorCode::kDataCorruption, "truncated TZGUF tags");
    }
  }
  return meta;
}

}  // namespace

std::vector<Tensor> Tzguf::ReferenceWeights(const ModelSpec& spec,
                                            uint64_t weight_seed) {
  std::vector<Tensor> tensors;
  tensors.reserve(spec.tensors().size());
  for (const TensorSpec& t : spec.tensors()) {
    // Norm gains around 1.0 keep activations stable; weights around 0.
    if (t.dtype == DType::kF32) {
      Tensor norm = MakeRandomTensor(t.name, DType::kF32, t.rows, t.cols,
                                     weight_seed, 0.02);
      for (uint64_t i = 0; i < norm.NumElements(); ++i) {
        norm.mutable_f32()[i] += 1.0f;
      }
      tensors.push_back(std::move(norm));
    } else {
      tensors.push_back(
          MakeRandomTensor(t.name, t.dtype, t.rows, t.cols, weight_seed));
    }
  }
  return tensors;
}

Result<TzgufMeta> Tzguf::Provision(FlashDevice* flash,
                                   const KeyHierarchy& keys,
                                   const std::string& model_id,
                                   const ModelSpec& spec, uint64_t weight_seed,
                                   bool materialize) {
  if (materialize && !spec.materializable()) {
    return Status(ErrorCode::kInvalidArgument,
                  "scaled (paper-size) models cannot be materialized");
  }
  const AesKey128 model_key = keys.DeriveModelKey(model_id);

  TzgufMeta meta;
  meta.model_id = model_id;
  meta.config = spec.config();
  meta.materialized = materialize;
  meta.data_file_bytes = spec.total_param_bytes();
  meta.tensor_tags.assign(spec.tensors().size(), GmacTag{});

  // --- Data file. ---
  if (materialize) {
    std::vector<Tensor> weights = ReferenceWeights(spec, weight_seed);
    std::vector<uint8_t> data(spec.total_param_bytes(), 0);
    AesCtr ctr(model_key, DataIv(model_id));
    const AesKey128 tag_key = TagKey(model_key);
    for (size_t i = 0; i < weights.size(); ++i) {
      const TensorSpec& ts = spec.tensor(static_cast<int>(i));
      const Tensor& t = weights[i];
      if (t.data.size() != ts.data_bytes) {
        return Status(ErrorCode::kInternal, "tensor size mismatch");
      }
      uint8_t* extent = data.data() + ts.file_offset;
      std::memcpy(extent, t.data.data(), t.data.size());
      // Encrypt the whole page-aligned extent (padding included) so the
      // flash image carries no plaintext-zero structure, then tag the
      // tensor's ciphertext.
      ctr.Crypt(ts.file_offset, extent, ts.bytes);
      Gmac mac = TensorMac(tag_key, ts.index);
      mac.Update(extent, ts.data_bytes);
      meta.tensor_tags[i] = mac.Finalize();
    }
    TZLLM_RETURN_IF_ERROR(flash->CreateFile(meta.DataFile(), std::move(data)));
  } else {
    TZLLM_RETURN_IF_ERROR(flash->CreateSyntheticFile(
        meta.DataFile(), spec.total_param_bytes(), SplitMix64(weight_seed)));
  }

  // --- Meta file and wrapped key file: one seal each. ---
  const std::vector<uint8_t> body = SerializeMetaBody(meta);
  TZLLM_RETURN_IF_ERROR(flash->CreateFile(
      meta.MetaFile(), Seal(model_key, {SealKind::kModelMeta, model_id},
                            body.data(), body.size())));
  TZLLM_RETURN_IF_ERROR(flash->CreateFile(
      KeyFile(model_id), keys.WrapModelKey(model_id, model_key).sealed));

  return meta;
}

Result<WrappedModelKey> Tzguf::ReadWrappedKey(FlashDevice* flash,
                                              const std::string& model_id) {
  TZLLM_ASSIGN_OR_RETURN(sealed, flash->PeekFile(KeyFile(model_id)));
  return WrappedModelKey{model_id, std::move(sealed)};
}

Result<TzgufMeta> Tzguf::ReadMeta(FlashDevice* flash,
                                  const std::string& model_id,
                                  const AesKey128& key) {
  TZLLM_ASSIGN_OR_RETURN(blob, flash->PeekFile(model_id + ".meta"));
  TZLLM_ASSIGN_OR_RETURN(
      body, Open(key, {SealKind::kModelMeta, model_id}, blob));
  return DeserializeMetaBody(body);
}

void Tzguf::DecryptExtent(const AesKey128& key, const std::string& model_id,
                          uint64_t file_offset, uint8_t* data, uint64_t len) {
  AesCtr ctr(key, DataIv(model_id));
  ctr.Crypt(file_offset, data, len);
}

AesKey128 Tzguf::TagKey(const AesKey128& model_key) {
  static constexpr char kLabel[] = "tzllm/weights/gmac/v1";
  HmacSha256 h(model_key.data(), model_key.size());
  h.Update(reinterpret_cast<const uint8_t*>(kLabel), sizeof(kLabel) - 1);
  const Sha256Digest derived = h.Finalize();
  AesKey128 key;
  std::copy_n(derived.begin(), key.size(), key.begin());
  return key;
}

Gmac Tzguf::TensorMac(const AesKey128& tag_key, int index) {
  GmacIv iv{};
  for (int i = 0; i < 4; ++i) {
    iv[i] = static_cast<uint8_t>(static_cast<uint32_t>(index) >> (24 - 8 * i));
  }
  return Gmac(tag_key, iv);
}

Status Tzguf::VerifyTensor(const TzgufMeta& meta, const AesKey128& model_key,
                           int index, const uint8_t* ciphertext,
                           uint64_t len) {
  Gmac mac = TensorMac(TagKey(model_key), index);
  mac.Update(ciphertext, len);
  return CheckTensorTag(meta, index, mac.Finalize());
}

Status Tzguf::CheckTensorTag(const TzgufMeta& meta, int index,
                             const GmacTag& tag) {
  if (index < 0 || index >= static_cast<int>(meta.tensor_tags.size())) {
    return InvalidArgument("tensor index out of range");
  }
  if (!meta.materialized) {
    return OkStatus();  // Paper-scale models are tagless.
  }
  if (!ConstantTimeEqual(tag.data(), meta.tensor_tags[index].data(),
                         tag.size())) {
    return DataCorruption("tensor tag mismatch (forged model content?)");
  }
  return OkStatus();
}

}  // namespace tzllm

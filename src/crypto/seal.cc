#include "src/crypto/seal.h"

#include <algorithm>
#include <cstring>

#include "src/common/bytes.h"

namespace tzllm {

namespace {

constexpr char kSealMagic[8] = {'T', 'Z', 'S', 'E', 'A', 'L', '0', '1'};

struct SealKeys {
  AesKey128 enc;
  Sha256Digest mac;
};

// No seal runs CTR or HMAC under the caller's key itself: both keys come
// from it under fixed labels.
SealKeys DeriveSealKeys(const AesKey128& key) {
  auto derive = [&key](const std::string& label) {
    HmacSha256 h(key.data(), key.size());
    h.Update(reinterpret_cast<const uint8_t*>(label.data()), label.size());
    return h.Finalize();
  };
  SealKeys keys;
  const Sha256Digest enc = derive("tzllm/seal/enc/v1");
  std::copy_n(enc.begin(), keys.enc.size(), keys.enc.begin());
  keys.mac = derive("tzllm/seal/mac/v1");
  return keys;
}

// The context is encoded first with fixed widths and a length-prefixed id,
// so no context and plaintext pair can trade bytes with another.
Sha256Digest Tag(const Sha256Digest& mac_key, const SealContext& context,
                 const uint8_t* plaintext, size_t len) {
  std::vector<uint8_t> encoded;
  ByteWriter w(&encoded);
  w.U8(static_cast<uint8_t>(context.kind));
  w.Str(context.object_id);
  w.U64(context.generation);
  HmacSha256 h(mac_key.data(), mac_key.size());
  h.Update(encoded.data(), encoded.size());
  h.Update(plaintext, len);
  return h.Finalize();
}

AesCtr Cipher(const SealKeys& keys, const Sha256Digest& tag) {
  AesBlock iv;
  std::copy_n(tag.begin(), iv.size(), iv.begin());
  return AesCtr(keys.enc, iv);
}

}  // namespace

bool ConstantTimeEqual(const uint8_t* a, const uint8_t* b, size_t n) {
  uint8_t diff = 0;
  for (size_t i = 0; i < n; ++i) {
    diff |= a[i] ^ b[i];
  }
  return diff == 0;
}

HmacSha256::HmacSha256(const uint8_t* key, size_t key_len) {
  std::array<uint8_t, 64> block{};
  if (key_len > block.size()) {
    const Sha256Digest hashed = Sha256::Hash(key, key_len);
    std::copy(hashed.begin(), hashed.end(), block.begin());
  } else {
    std::copy_n(key, key_len, block.begin());
  }
  std::array<uint8_t, 64> inner_pad;
  for (size_t i = 0; i < block.size(); ++i) {
    inner_pad[i] = block[i] ^ 0x36;
    outer_pad_[i] = block[i] ^ 0x5c;
  }
  inner_.Update(inner_pad.data(), inner_pad.size());
}

Sha256Digest HmacSha256::Finalize() {
  const Sha256Digest inner = inner_.Finalize();
  Sha256 outer;
  outer.Update(outer_pad_.data(), outer_pad_.size());
  outer.Update(inner.data(), inner.size());
  return outer.Finalize();
}

std::vector<uint8_t> Seal(const AesKey128& key, const SealContext& context,
                          const uint8_t* plaintext, size_t len) {
  const SealKeys keys = DeriveSealKeys(key);
  const Sha256Digest tag = Tag(keys.mac, context, plaintext, len);
  std::vector<uint8_t> blob;
  blob.reserve(kSealHeaderBytes + len);
  ByteWriter w(&blob);
  w.Bytes(reinterpret_cast<const uint8_t*>(kSealMagic), sizeof(kSealMagic));
  w.Bytes(tag.data(), tag.size());
  w.Bytes(plaintext, len);
  Cipher(keys, tag).CryptAll(blob.data() + kSealHeaderBytes, len);
  return blob;
}

Status Open(const AesKey128& key, const SealContext& context,
            const uint8_t* blob, size_t blob_len, uint8_t* out,
            size_t out_len) {
  if (blob_len < kSealHeaderBytes || blob_len - kSealHeaderBytes != out_len ||
      std::memcmp(blob, kSealMagic, sizeof(kSealMagic)) != 0) {
    std::fill_n(out, out_len, 0);
    return DataCorruption("sealed blob has the wrong length or magic");
  }
  Sha256Digest stored;
  std::copy_n(blob + sizeof(kSealMagic), stored.size(), stored.begin());
  const SealKeys keys = DeriveSealKeys(key);
  std::copy_n(blob + kSealHeaderBytes, out_len, out);
  Cipher(keys, stored).CryptAll(out, out_len);
  const Sha256Digest tag = Tag(keys.mac, context, out, out_len);
  if (!ConstantTimeEqual(tag.data(), stored.data(), tag.size())) {
    std::fill_n(out, out_len, 0);
    return DataCorruption(
        "sealed blob failed its integrity check (tampered, wrong key, or "
        "sealed as another object)");
  }
  return OkStatus();
}

Result<std::vector<uint8_t>> Open(const AesKey128& key,
                                  const SealContext& context,
                                  const std::vector<uint8_t>& blob) {
  if (blob.size() < kSealHeaderBytes) {
    return DataCorruption("sealed blob truncated");
  }
  std::vector<uint8_t> plain(blob.size() - kSealHeaderBytes);
  TZLLM_RETURN_IF_ERROR(Open(key, context, blob.data(), blob.size(),
                             plain.data(), plain.size()));
  return plain;
}

}  // namespace tzllm

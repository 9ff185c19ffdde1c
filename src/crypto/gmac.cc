#include "src/crypto/gmac.h"

#include <algorithm>
#include <cstring>

namespace tzllm {

namespace {

// The reduction constant R = 11100001 || 0^120 (SP 800-38D §6.3), as the
// high word of a block.
constexpr uint64_t kR = 0xE100000000000000ULL;

inline uint64_t LoadBe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | p[i];
  }
  return v;
}

inline void StoreBe64(uint8_t* p, uint64_t v) {
  for (int i = 7; i >= 0; --i, v >>= 8) {
    p[i] = static_cast<uint8_t>(v);
  }
}

}  // namespace

// The portable key is the sequence V_i = H * x^i (i = 0 .. 127) that SP
// 800-38D Algorithm 1 walks for every block: it depends on H alone, so it
// is computed once per key. Each entry is two native-order words, high
// half first.
void GhashInitPortable(const uint8_t h[16], GhashKey* key) {
  uint64_t v[2] = {LoadBe64(h), LoadBe64(h + 8)};
  for (int i = 0; i < GhashKey::kEntries; ++i) {
    std::memcpy(key->table[i], v, 16);
    // V_{i+1} = V_i >> 1, reduced by R when a bit falls off the end.
    const uint64_t carry = 0 - (v[1] & 1);
    v[1] = (v[1] >> 1) | (v[0] << 63);
    v[0] = (v[0] >> 1) ^ (kR & carry);
  }
}

// Y = (Y ^ X) * H per block: Algorithm 1's Z is the XOR of the V_i whose
// bit i of the multiplicand is set, taken with masks instead of its branch,
// so the time depends on neither operand.
void GhashPortable(const GhashKey& key, uint8_t y[16], const uint8_t* blocks,
                   uint64_t nblocks) {
  uint64_t x[2] = {LoadBe64(y), LoadBe64(y + 8)};
  for (uint64_t n = 0; n < nblocks; ++n, blocks += 16) {
    x[0] ^= LoadBe64(blocks);
    x[1] ^= LoadBe64(blocks + 8);
    uint64_t z[2] = {0, 0};
    for (int w = 0; w < 2; ++w) {
      for (int bit = 0; bit < 64; ++bit) {
        const uint64_t take = 0 - ((x[w] >> (63 - bit)) & 1);
        uint64_t v[2];
        std::memcpy(v, key.table[64 * w + bit], 16);
        z[0] ^= v[0] & take;
        z[1] ^= v[1] & take;
      }
    }
    x[0] = z[0];
    x[1] = z[1];
  }
  StoreBe64(y, x[0]);
  StoreBe64(y + 8, x[1]);
}

Gmac::Gmac(const AesKey128& key, const GmacIv& iv, const CryptoDispatch* row)
    : ghash_(row->ghash) {
  AesBlock h{};  // E_K(0^128): the keystream block of a zero counter.
  AesCtr(key, AesBlock{}, row).CryptAll(h.data(), h.size());
  row->ghash_init(h.data(), &key_);
  AesBlock j0{};
  std::copy(iv.begin(), iv.end(), j0.begin());
  j0[15] = 1;
  mask_.fill(0);
  AesCtr(key, j0, row).CryptAll(mask_.data(), mask_.size());
}

void Gmac::Update(const uint8_t* data, size_t len) {
  if (len == 0) {
    return;  // `data` may be null (an empty vector's data()).
  }
  total_len_ += len;
  if (buffer_len_ > 0) {
    const size_t n = std::min(len, 16 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, n);
    buffer_len_ += n;
    data += n;
    len -= n;
    if (buffer_len_ < 16) {
      return;
    }
    ghash_(key_, y_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Every whole block of the input goes to the row in one call.
  const size_t whole = len / 16;
  ghash_(key_, y_.data(), data, whole);
  data += whole * 16;
  len -= whole * 16;
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
  }
  buffer_len_ = len;
}

GmacTag Gmac::Finalize() {
  // The zero-padded partial block, if any, then the length block:
  // [bit length of the data]_64 || [bit length of the (empty) text]_64.
  uint8_t tail[32] = {};
  size_t n = 0;
  if (buffer_len_ > 0) {
    std::memcpy(tail, buffer_.data(), buffer_len_);
    n = 16;
  }
  StoreBe64(tail + n, total_len_ * 8);
  ghash_(key_, y_.data(), tail, n / 16 + 1);
  GmacTag tag;
  for (size_t i = 0; i < tag.size(); ++i) {
    tag[i] = y_[i] ^ mask_[i];
  }
  return tag;
}

}  // namespace tzllm

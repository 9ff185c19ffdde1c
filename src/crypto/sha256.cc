#include "src/crypto/sha256.h"

#include <algorithm>
#include <cstring>

namespace tzllm {

namespace {

constexpr uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                               0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

}  // namespace

const uint32_t kSha256RoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

namespace {

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// One FIPS 180-4 compression of a 64-byte block into `state`.
void CompressBlock(uint32_t state[8], const uint8_t block[64]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const uint32_t s0 =
        Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const uint32_t s1 =
        Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const uint32_t ch = (e & f) ^ (~e & g);
    const uint32_t temp1 = h + s1 + ch + kSha256RoundConstants[i] + w[i];
    const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

void Sha256CompressPortable(uint32_t state[8], const uint8_t* blocks,
                            uint64_t nblocks) {
  for (uint64_t n = 0; n < nblocks; ++n) {
    CompressBlock(state, blocks + 64 * n);
  }
}

Sha256::Sha256(const CryptoDispatch* row) : compress_(row->sha256_compress) {
  std::memcpy(state_.data(), kInit, sizeof(kInit));
  buffer_.fill(0);
}

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) {
    return;  // `data` may be null (an empty vector's data()).
  }
  total_len_ += len;
  if (buffer_len_ > 0) {
    const size_t n = std::min(len, 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, n);
    buffer_len_ += n;
    data += n;
    len -= n;
    if (buffer_len_ < 64) {
      return;
    }
    compress_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Every whole block of the input goes to the row in one call.
  const size_t whole = len / 64;
  compress_(state_.data(), data, whole);
  data += whole * 64;
  len -= whole * 64;
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
  }
  buffer_len_ = len;
}

Sha256Digest Sha256::Finalize() {
  // Padding: 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit
  // length. One block when the tail leaves room for the length, else two.
  const uint64_t bit_len = total_len_ * 8;
  uint8_t pad[128] = {};
  std::memcpy(pad, buffer_.data(), buffer_len_);
  pad[buffer_len_] = 0x80;
  const size_t pad_len = buffer_len_ < 56 ? 64 : 128;
  for (int i = 0; i < 8; ++i) {
    pad[pad_len - 1 - i] = static_cast<uint8_t>(bit_len >> (8 * i));
  }
  compress_(state_.data(), pad, pad_len / 64);

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::Hash(const uint8_t* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finalize();
}

Sha256Digest Sha256::Hash(const std::string& s) {
  return Hash(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

std::string DigestToHex(const Sha256Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t b : digest) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace tzllm

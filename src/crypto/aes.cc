#include "src/crypto/aes.h"

#include <algorithm>
#include <cstring>

namespace tzllm {

namespace {

// FIPS-197 S-box.
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

inline uint8_t XTime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

// One FIPS-197 block encryption under a 176-byte key schedule.
void EncryptBlockPortable(const uint8_t* round_keys, uint8_t block[16]) {
  uint8_t s[16];
  std::memcpy(s, block, 16);

  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i) {
      s[i] ^= round_keys[round * 16 + i];
    }
  };
  auto sub_bytes = [&] {
    for (auto& b : s) {
      b = kSbox[b];
    }
  };
  auto shift_rows = [&] {
    // State is column-major: s[col*4 + row].
    uint8_t t[16];
    for (int col = 0; col < 4; ++col) {
      for (int row = 0; row < 4; ++row) {
        t[col * 4 + row] = s[((col + row) % 4) * 4 + row];
      }
    }
    std::memcpy(s, t, 16);
  };
  auto mix_columns = [&] {
    for (int col = 0; col < 4; ++col) {
      uint8_t* c = &s[col * 4];
      const uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
      c[0] = static_cast<uint8_t>(XTime(a0) ^ XTime(a1) ^ a1 ^ a2 ^ a3);
      c[1] = static_cast<uint8_t>(a0 ^ XTime(a1) ^ XTime(a2) ^ a2 ^ a3);
      c[2] = static_cast<uint8_t>(a0 ^ a1 ^ XTime(a2) ^ XTime(a3) ^ a3);
      c[3] = static_cast<uint8_t>(XTime(a0) ^ a0 ^ a1 ^ a2 ^ XTime(a3));
    }
  };

  add_round_key(0);
  for (int round = 1; round < 10; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(10);

  std::memcpy(block, s, 16);
}

}  // namespace

Aes128::Aes128(const AesKey128& key) {
  // Key expansion (Nk=4, Nr=10).
  std::memcpy(round_keys_.data(), key.data(), 16);
  for (int i = 4; i < 44; ++i) {
    uint8_t temp[4];
    std::memcpy(temp, &round_keys_[(i - 1) * 4], 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      const uint8_t t0 = temp[0];
      temp[0] = static_cast<uint8_t>(kSbox[temp[1]] ^ kRcon[i / 4]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    }
    for (int b = 0; b < 4; ++b) {
      round_keys_[i * 4 + b] =
          static_cast<uint8_t>(round_keys_[(i - 4) * 4 + b] ^ temp[b]);
    }
  }
}

void Aes128::EncryptBlock(uint8_t block[16]) const {
  EncryptBlockPortable(round_keys_.data(), block);
}

void AesCtrXorPortable(const uint8_t* round_keys, const uint8_t* iv,
                       uint64_t first_block, uint8_t* data,
                       uint64_t nblocks) {
  uint64_t counter = 0;
  for (int i = 8; i < 16; ++i) {
    counter = (counter << 8) | iv[i];
  }
  counter += first_block;
  for (uint64_t n = 0; n < nblocks; ++n, ++counter, data += 16) {
    uint8_t ks[16];
    std::memcpy(ks, iv, 8);
    for (int i = 0; i < 8; ++i) {
      ks[15 - i] = static_cast<uint8_t>(counter >> (8 * i));
    }
    EncryptBlockPortable(round_keys, ks);
    for (int i = 0; i < 16; ++i) {
      data[i] ^= ks[i];
    }
  }
}

AesCtr::AesCtr(const AesKey128& key, const AesBlock& iv,
               const CryptoDispatch* row)
    : cipher_(key), iv_(iv), ctr_xor_(row->aes_ctr_xor) {}

void AesCtr::Crypt(uint64_t offset, uint8_t* data, size_t len) const {
  const uint8_t* rk = cipher_.round_keys();
  while (len > 0) {
    const uint64_t block = offset / 16;
    const size_t in_block = static_cast<size_t>(offset % 16);
    size_t n;
    if (in_block == 0 && len >= 16) {
      // The run of whole blocks goes to the row in one call.
      n = len & ~static_cast<size_t>(15);
      ctr_xor_(rk, iv_.data(), block, data, n / 16);
    } else {
      // A partial head or tail block: one keystream block from the row.
      uint8_t ks[16] = {};
      ctr_xor_(rk, iv_.data(), block, ks, 1);
      n = std::min(len, 16 - in_block);
      for (size_t i = 0; i < n; ++i) {
        data[i] ^= ks[in_block + i];
      }
    }
    offset += n;
    data += n;
    len -= n;
  }
}

}  // namespace tzllm

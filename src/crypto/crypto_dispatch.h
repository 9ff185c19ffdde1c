// Runtime-dispatched crypto rows, in the KernelDispatch idiom
// (src/llm/simd/kernels.h): the loops every byte of restoration,
// checkpointing and KV spill runs through are slots in a CryptoDispatch
// table, resolved once per process from CPUID (plus the TZLLM_SIMD
// override), so AesCtr::Crypt, Sha256::Update and Gmac::Update pay one
// indirect call per run of whole blocks.
//
// Rows:
//  - portable: the byte-wise FIPS-197 / FIPS 180-4 transcriptions in
//    aes.cc and sha256.cc, and the bit-serial SP 800-38D GF(2^128)
//    multiply in gmac.cc. Always built, the only row on aarch64, and the
//    oracle every other row is tested against. Its S-box lookups are
//    indexed by secret bytes, so its AES timing leaks through the cache;
//    its SHA-256 and GHASH have no secret-indexed lookup or branch.
//  - x86: AES-NI CTR with 8 blocks in flight, SHA-NI compress, and
//    PCLMULQDQ GHASH with one reduction per 8 blocks, in crypto_x86.cc
//    (the only TU built with -maes -msse4.1 -msha -mssse3 -mpclmul). Each
//    slot is gated on its own CPUID bit: a CPU with AES-NI but no SHA-NI
//    (Cascade Lake, for one) gets AES-NI next to the portable compress,
//    and one without PCLMULQDQ keeps the portable GHASH.
//
// Every row computes the same bytes; tests/crypto_*_test.cc checks each
// available row against the NIST vectors and against the portable row.

#ifndef SRC_CRYPTO_CRYPTO_DISPATCH_H_
#define SRC_CRYPTO_CRYPTO_DISPATCH_H_

#include <cstdint>

namespace tzllm {

// XORs the AES-128 keystream blocks for counters first_block ..
// first_block + nblocks - 1 into data[0 .. 16 * nblocks). The counter
// block is the IV with its low 8 bytes read as a big-endian integer plus
// the counter, mod 2^64: the carry never reaches the IV's high half
// (NIST SP 800-38A CTR with a 64-bit counter). `round_keys` is the
// 176-byte FIPS-197 key schedule.
using AesCtrXorFn = void (*)(const uint8_t* round_keys, const uint8_t* iv,
                             uint64_t first_block, uint8_t* data,
                             uint64_t nblocks);

// Runs the SHA-256 compression function over nblocks 64-byte blocks.
using Sha256CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                                  uint64_t nblocks);

// A GHASH key: multiples of the hash subkey H that a row precomputes once
// per key, in the layout of the row whose ghash_init filled it (the
// portable row keeps H * x^i for i < 128, the x86 row H^1 .. H^8). Only
// that row's ghash may read it.
struct GhashKey {
  static constexpr int kEntries = 128;
  alignas(16) uint8_t table[kEntries][16];
};

// Fills `key` from the hash subkey h = E_K(0^128), in GCM byte order.
using GhashInitFn = void (*)(const uint8_t h[16], GhashKey* key);

// Folds nblocks 16-byte blocks X_i into the GHASH state y, both in GCM
// byte order: y = (y ^ X_i) * H in GF(2^128) for each block in turn
// (NIST SP 800-38D, Algorithm 2).
using GhashFn = void (*)(const GhashKey& key, uint8_t y[16],
                         const uint8_t* blocks, uint64_t nblocks);

struct CryptoDispatch {
  const char* aes_impl;  // "portable" or "aes-ni".
  AesCtrXorFn aes_ctr_xor;
  const char* sha_impl;  // "portable" or "sha-ni".
  Sha256CompressFn sha256_compress;
  const char* ghash_impl;  // "portable" or "pclmul".
  GhashInitFn ghash_init;
  GhashFn ghash;
};

// The portable row; never nullptr.
const CryptoDispatch* PortableCrypto();

// The x86 row with each slot resolved on its own CPUID bit (a slot whose
// bit is missing is the portable one). nullptr when built off x86 or when
// the CPU has none of AES-NI, SHA-NI and PCLMULQDQ.
const CryptoDispatch* X86Crypto();

// Pure resolution for a TZLLM_SIMD value (nullptr/"" = auto): the values
// that pin the SIMD kernels to their scalar table ("off", "scalar", "0",
// "none") pin the portable row; anything else picks the best supported row.
const CryptoDispatch* ResolveCrypto(const char* env_value);

// The process-wide row: ResolveCrypto(getenv("TZLLM_SIMD")), resolved once
// on first use.
const CryptoDispatch* ActiveCrypto();

// --- Backend hooks (crypto_dispatch.cc assembles the rows from these). ---

// The portable slots (aes.cc, sha256.cc, gmac.cc).
void AesCtrXorPortable(const uint8_t* round_keys, const uint8_t* iv,
                       uint64_t first_block, uint8_t* data, uint64_t nblocks);
void Sha256CompressPortable(uint32_t state[8], const uint8_t* blocks,
                            uint64_t nblocks);
void GhashInitPortable(const uint8_t h[16], GhashKey* key);
void GhashPortable(const GhashKey& key, uint8_t y[16], const uint8_t* blocks,
                   uint64_t nblocks);

// The x86 TU's slots with no CPUID gate; nullptr when built off x86. Only
// X86Crypto() may hand them out.
const CryptoDispatch* X86CryptoUngated();

// FIPS 180-4 round constants, shared by every SHA-256 row.
extern const uint32_t kSha256RoundConstants[64];

}  // namespace tzllm

#endif  // SRC_CRYPTO_CRYPTO_DISPATCH_H_

// Runtime-dispatched crypto rows, in the KernelDispatch idiom
// (src/llm/simd/kernels.h): the two loops every byte of restoration,
// checkpointing and KV spill runs through are slots in a CryptoDispatch
// table, resolved once per process from CPUID (plus the TZLLM_SIMD
// override), so AesCtr::Crypt and Sha256::Update pay one indirect call per
// run of whole blocks.
//
// Rows:
//  - portable: the byte-wise FIPS-197 / FIPS 180-4 transcriptions in
//    aes.cc and sha256.cc. Always built, the only row on aarch64, and the
//    oracle every other row is tested against. Its S-box lookups are
//    indexed by secret bytes, so its timing leaks through the cache.
//  - x86: AES-NI CTR with 8 blocks in flight and SHA-NI compress, in
//    crypto_x86.cc (the only TU built with -maes -msse4.1 -msha -mssse3).
//    Each slot is gated on its own CPUID bit: a CPU with AES-NI but no
//    SHA-NI (Cascade Lake, for one) gets AES-NI next to the portable
//    compress.
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

struct CryptoDispatch {
  const char* aes_impl;  // "portable" or "aes-ni".
  AesCtrXorFn aes_ctr_xor;
  const char* sha_impl;  // "portable" or "sha-ni".
  Sha256CompressFn sha256_compress;
};

// The portable row; never nullptr.
const CryptoDispatch* PortableCrypto();

// The x86 row with each slot resolved on its own CPUID bit (a slot whose
// bit is missing is the portable one). nullptr when built off x86 or when
// the CPU has neither AES-NI nor SHA-NI.
const CryptoDispatch* X86Crypto();

// Pure resolution for a TZLLM_SIMD value (nullptr/"" = auto): the values
// that pin the SIMD kernels to their scalar table ("off", "scalar", "0",
// "none") pin the portable row; anything else picks the best supported row.
const CryptoDispatch* ResolveCrypto(const char* env_value);

// The process-wide row: ResolveCrypto(getenv("TZLLM_SIMD")), resolved once
// on first use.
const CryptoDispatch* ActiveCrypto();

// --- Backend hooks (crypto_dispatch.cc assembles the rows from these). ---

// The portable slots (aes.cc, sha256.cc).
void AesCtrXorPortable(const uint8_t* round_keys, const uint8_t* iv,
                       uint64_t first_block, uint8_t* data, uint64_t nblocks);
void Sha256CompressPortable(uint32_t state[8], const uint8_t* blocks,
                            uint64_t nblocks);

// The x86 TU's slots with no CPUID gate; nullptr when built off x86. Only
// X86Crypto() may hand them out.
const CryptoDispatch* X86CryptoUngated();

// FIPS 180-4 round constants, shared by every SHA-256 row.
extern const uint32_t kSha256RoundConstants[64];

}  // namespace tzllm

#endif  // SRC_CRYPTO_CRYPTO_DISPATCH_H_

// Crypto row resolution: per-slot CPUID gating plus the TZLLM_SIMD
// override, computed once per process. This TU is baseline code, so the
// CPUID checks run before any AES-NI, SHA-NI or PCLMULQDQ instruction can.

#include "src/crypto/crypto_dispatch.h"

#include <cstdlib>

#include "src/common/simd_env.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace tzllm {

namespace {

struct CpuCryptoBits {
  bool aes_ni = false;  // AES-NI + SSE4.1 (the AES slot's -m flags).
  bool sha_ni = false;  // SHA-NI + SSE4.1 + SSSE3 (the compress slot's).
  bool pclmul = false;  // PCLMULQDQ + SSE4.1 + SSSE3 (the GHASH slot's).
};

CpuCryptoBits ProbeCpu() {
  CpuCryptoBits bits;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) {
    return bits;
  }
  const bool sse41 = (ecx & (1u << 19)) != 0;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  bits.aes_ni = sse41 && (ecx & (1u << 25)) != 0;
  bits.pclmul = sse41 && ssse3 && (ecx & (1u << 1)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    bits.sha_ni = sse41 && ssse3 && (ebx & (1u << 29)) != 0;
  }
#endif
  return bits;
}

}  // namespace

const CryptoDispatch* PortableCrypto() {
  static const CryptoDispatch row = {"portable", AesCtrXorPortable,
                                     "portable", Sha256CompressPortable,
                                     "portable", GhashInitPortable,
                                     GhashPortable};
  return &row;
}

const CryptoDispatch* X86Crypto() {
  static const CryptoDispatch* const resolved = []() -> const CryptoDispatch* {
    const CryptoDispatch* slots = X86CryptoUngated();
    const CpuCryptoBits cpu = ProbeCpu();
    if (slots == nullptr || (!cpu.aes_ni && !cpu.sha_ni && !cpu.pclmul)) {
      return nullptr;
    }
    static CryptoDispatch row = *PortableCrypto();
    if (cpu.aes_ni) {
      row.aes_impl = slots->aes_impl;
      row.aes_ctr_xor = slots->aes_ctr_xor;
    }
    if (cpu.sha_ni) {
      row.sha_impl = slots->sha_impl;
      row.sha256_compress = slots->sha256_compress;
    }
    if (cpu.pclmul) {
      row.ghash_impl = slots->ghash_impl;
      row.ghash_init = slots->ghash_init;
      row.ghash = slots->ghash;
    }
    return &row;
  }();
  return resolved;
}

const CryptoDispatch* ResolveCrypto(const char* env_value) {
  if (SimdEnvPinsPortable(SimdEnvValue(env_value)) ||
      X86Crypto() == nullptr) {
    return PortableCrypto();
  }
  return X86Crypto();
}

const CryptoDispatch* ActiveCrypto() {
  static const CryptoDispatch* row = ResolveCrypto(std::getenv("TZLLM_SIMD"));
  return row;
}

}  // namespace tzllm

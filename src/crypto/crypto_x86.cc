// x86 crypto row: AES-NI CTR and SHA-NI compress. This translation unit is
// the only one compiled with -maes -msse4.1 -msha -mssse3 (CMake
// per-source flags); crypto_dispatch.cc hands out each slot only after
// CPUID confirms that slot's own bit, so nothing here may run on a CPU
// without it. Off x86 the file compiles to a stub.
//
// Both slots produce exactly the portable row's bytes: the AES round keys
// are the FIPS-197 schedule in its byte order, which is the layout
// aesenc expects, and the SHA-NI rounds follow FIPS 180-4 word for word.

#include "src/crypto/crypto_dispatch.h"

#if defined(__AES__) && defined(__SHA__) && defined(__SSE4_1__) && \
    defined(__SSSE3__)

#include <immintrin.h>

#include <cstring>

namespace tzllm {
namespace {

// AES-128-CTR with kLanes independent blocks in flight: aesenc has a
// multi-cycle latency but issues every cycle, so eight interleaved blocks
// keep the unit busy where one block at a time would wait on each round.
constexpr int kLanes = 8;

// Counter block: the IV's fixed high half as stored, then the 64-bit
// counter big-endian. The counter wraps mod 2^64 without touching the
// high half, as in the portable row.
inline __m128i CounterBlock(uint64_t iv_high, uint64_t counter) {
  return _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(counter)),
                        static_cast<long long>(iv_high));
}

void AesNiCtrXor(const uint8_t* round_keys, const uint8_t* iv,
                 uint64_t first_block, uint8_t* data, uint64_t nblocks) {
  __m128i rk[11];
  for (int r = 0; r < 11; ++r) {
    rk[r] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(round_keys + 16 * r));
  }
  uint64_t iv_high = 0, iv_low = 0;
  std::memcpy(&iv_high, iv, 8);
  std::memcpy(&iv_low, iv + 8, 8);
  uint64_t counter = __builtin_bswap64(iv_low) + first_block;

  for (; nblocks >= kLanes; nblocks -= kLanes, counter += kLanes) {
    __m128i b[kLanes];
#pragma GCC unroll 8
    for (int j = 0; j < kLanes; ++j) {
      b[j] = _mm_xor_si128(CounterBlock(iv_high, counter + j), rk[0]);
    }
#pragma GCC unroll 9
    for (int r = 1; r < 10; ++r) {
#pragma GCC unroll 8
      for (int j = 0; j < kLanes; ++j) {
        b[j] = _mm_aesenc_si128(b[j], rk[r]);
      }
    }
#pragma GCC unroll 8
    for (int j = 0; j < kLanes; ++j) {
      __m128i* p = reinterpret_cast<__m128i*>(data) + j;
      _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p),
                                        _mm_aesenclast_si128(b[j], rk[10])));
    }
    data += 16 * kLanes;
  }
  for (; nblocks > 0; --nblocks, ++counter, data += 16) {
    __m128i b = _mm_xor_si128(CounterBlock(iv_high, counter), rk[0]);
    for (int r = 1; r < 10; ++r) {
      b = _mm_aesenc_si128(b, rk[r]);
    }
    __m128i* p = reinterpret_cast<__m128i*>(data);
    _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p),
                                      _mm_aesenclast_si128(b, rk[10])));
  }
}

// SHA-NI keeps the state as two registers, ABEF and CDGH; sha256rnds2 runs
// two rounds, so each group of four rounds is two calls with the message
// words (plus constants) shifted down between them. The message schedule
// runs alongside: sha256msg1 adds sigma0 three groups ahead, an alignr +
// add brings in W[t-7], and sha256msg2 adds sigma1 one group ahead.
void ShaNiCompress(uint32_t state[8], const uint8_t* blocks,
                   uint64_t nblocks) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL,
                                       0x0405060700010203ULL);
  const __m128i* k = reinterpret_cast<const __m128i*>(kSha256RoundConstants);
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks) + i),
          bswap);
    }
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      __m128i& cur = m[q % 4];
      __m128i msg = _mm_add_epi32(cur, _mm_loadu_si128(k + q));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      if (q >= 3 && q <= 14) {
        __m128i& next = m[(q + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, m[(q + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
      if (q >= 1 && q <= 12) {
        __m128i& ahead = m[(q + 3) % 4];
        ahead = _mm_sha256msg1_epu32(ahead, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

}  // namespace

const CryptoDispatch* X86CryptoUngated() {
  static const CryptoDispatch row = {"aes-ni", AesNiCtrXor, "sha-ni",
                                     ShaNiCompress};
  return &row;
}

}  // namespace tzllm

#else  // !(x86 with the crypto -m flags)

namespace tzllm {

const CryptoDispatch* X86CryptoUngated() { return nullptr; }

}  // namespace tzllm

#endif

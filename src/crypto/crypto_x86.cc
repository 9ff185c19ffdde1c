// x86 crypto row: AES-NI CTR, SHA-NI compress and PCLMULQDQ GHASH. This
// translation unit is the only one compiled with -maes -msse4.1 -msha
// -mssse3 -mpclmul (CMake per-source flags); crypto_dispatch.cc hands out
// each slot only after CPUID confirms that slot's own bit, so nothing here
// may run on a CPU without it. Off x86 the file compiles to a stub.
//
// Every slot produces exactly the portable row's bytes: the AES round keys
// are the FIPS-197 schedule in its byte order, which is the layout
// aesenc expects, the SHA-NI rounds follow FIPS 180-4 word for word, and
// GHASH is the same field product, reduced in another bit order.

#include "src/crypto/crypto_dispatch.h"

#if defined(__AES__) && defined(__SHA__) && defined(__SSE4_1__) && \
    defined(__SSSE3__) && defined(__PCLMUL__)

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

// GHASH on PCLMULQDQ: the schoolbook multiply and reflected reduction of
// Gueron and Kounavis, "Intel Carry-Less Multiplication Instruction and
// its Usage for Computing the GCM Mode" (Intel white paper). Each block is
// byte-reversed on load, which puts the GCM field element in the lane
// bit-reflected: the coefficient of x^0 in bit 127. The carry-less product
// of two reflected elements is the reflected product shifted right by one
// bit, so Reduce shifts it back before folding it mod
// x^128 + x^7 + x^2 + x + 1.
inline __m128i ByteReverse(__m128i x) {
  return _mm_shuffle_epi8(
      x, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

// An unreduced 256-bit product, as its partial sums. Products are linear,
// so several of them can be summed and share one reduction.
struct WideProduct {
  __m128i lo = _mm_setzero_si128();   // a.lo * b.lo
  __m128i mid = _mm_setzero_si128();  // a.lo * b.hi ^ a.hi * b.lo
  __m128i hi = _mm_setzero_si128();   // a.hi * b.hi
};

inline void MulAdd(__m128i a, __m128i b, WideProduct* p) {
  p->lo = _mm_xor_si128(p->lo, _mm_clmulepi64_si128(a, b, 0x00));
  p->hi = _mm_xor_si128(p->hi, _mm_clmulepi64_si128(a, b, 0x11));
  p->mid = _mm_xor_si128(p->mid,
                         _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                       _mm_clmulepi64_si128(a, b, 0x01)));
}

inline __m128i Reduce(const WideProduct& p) {
  __m128i lo = _mm_xor_si128(p.lo, _mm_slli_si128(p.mid, 8));
  __m128i hi = _mm_xor_si128(p.hi, _mm_srli_si128(p.mid, 8));
  // [hi:lo] <<= 1: each 32-bit lane's top bit moves into the next lane.
  const __m128i lo_top = _mm_srli_epi32(lo, 31);
  const __m128i hi_top = _mm_srli_epi32(hi, 31);
  lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(lo_top, 4));
  hi = _mm_or_si128(_mm_or_si128(_mm_slli_epi32(hi, 1),
                                 _mm_slli_si128(hi_top, 4)),
                    _mm_srli_si128(lo_top, 12));
  // Fold the low half into the high one: first the x^127, x^126 and x^121
  // terms of the reflected polynomial, then x^1, x^2 and x^7.
  const __m128i a = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
      _mm_slli_epi32(lo, 25));
  lo = _mm_xor_si128(lo, _mm_slli_si128(a, 12));
  const __m128i b = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
      _mm_xor_si128(_mm_srli_epi32(lo, 7), _mm_srli_si128(a, 4)));
  return _mm_xor_si128(hi, _mm_xor_si128(lo, b));
}

inline __m128i Mul(__m128i a, __m128i b) {
  WideProduct p;
  MulAdd(a, b, &p);
  return Reduce(p);
}

// Blocks folded per reduction; the key holds H^1 .. H^kAggregate,
// reflected.
constexpr int kAggregate = 8;

void PclmulGhashInit(const uint8_t h[16], GhashKey* key) {
  const __m128i h1 =
      ByteReverse(_mm_loadu_si128(reinterpret_cast<const __m128i*>(h)));
  __m128i power = h1;
  for (int i = 0; i < kAggregate; ++i) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(key->table[i]), power);
    power = Mul(power, h1);
  }
}

// Folds n <= 8 blocks with one reduction:
// ((acc ^ X_1) H^n) ^ (X_2 H^(n-1)) ^ ... ^ (X_n H).
inline __m128i FoldBlocks(__m128i acc, const __m128i* h, const uint8_t* blocks,
                          int n) {
  WideProduct p;
#pragma GCC unroll 8
  for (int j = 0; j < n; ++j) {
    __m128i x = ByteReverse(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks) + j));
    if (j == 0) {
      x = _mm_xor_si128(x, acc);
    }
    MulAdd(x, h[n - 1 - j], &p);
  }
  return Reduce(p);
}

void PclmulGhash(const GhashKey& key, uint8_t y[16], const uint8_t* blocks,
                 uint64_t nblocks) {
  __m128i h[kAggregate];
  for (int i = 0; i < kAggregate; ++i) {
    h[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key.table[i]));
  }
  __m128i acc =
      ByteReverse(_mm_loadu_si128(reinterpret_cast<const __m128i*>(y)));
  for (; nblocks >= kAggregate;
       nblocks -= kAggregate, blocks += 16 * kAggregate) {
    acc = FoldBlocks(acc, h, blocks, kAggregate);
  }
  if (nblocks > 0) {
    acc = FoldBlocks(acc, h, blocks, static_cast<int>(nblocks));
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(y), ByteReverse(acc));
}

}  // namespace

const CryptoDispatch* X86CryptoUngated() {
  static const CryptoDispatch row = {"aes-ni", AesNiCtrXor,
                                     "sha-ni", ShaNiCompress,
                                     "pclmul", PclmulGhashInit,
                                     PclmulGhash};
  return &row;
}

}  // namespace tzllm

#else  // !(x86 with the crypto -m flags)

namespace tzllm {

const CryptoDispatch* X86CryptoUngated() { return nullptr; }

}  // namespace tzllm

#endif

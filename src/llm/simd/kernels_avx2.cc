// AVX2 + F16C + FMA kernel backend. This translation unit is the only one
// compiled with -mavx2 -mf16c -mfma (CMake per-source flags); dispatch.cc
// only hands out this table after __builtin_cpu_supports confirms the ISA,
// so nothing here may be called on a lesser CPU.
//
// Bit-exactness notes (the contract kernels.h states):
//  - QuantizeRowsQ8: amax is a max tree (order-independent), the block
//    scale and its inverse are the scalar table's scalar divides, and each
//    element is one mulps and a cvtps2dq (nearest-even, like lrintf); out
//    of range both return the integer indefinite, which clamps to -127.
//  - DotRowsQ8: the 32-wide int8 dot goes through the sign trick (|w| as
//    u8 times sign(w)*x as s8 in maddubs; a pair sum is at most
//    2 * 128 * 127 = 32512 < 2^15, so nothing saturates), reduces in exact
//    integer arithmetic, and each position's float combine stays serial in
//    block order — so the result is bit-identical to the scalar table.
//  - F32ToF16: vcvtps2ph rounds to nearest-even like the scalar converter,
//    and a pre-mask reproduces its flush-subnormals-to-zero behavior, so
//    the f16 KV arena holds identical bytes whichever table filled it
//    (finite inputs; scalar turns NaN into inf, this path flushes it).
//  - Softmax: the max reduction is order-independent and exp/sum stay
//    serial, so it is bit-identical too.
//  - The QK dots, AV axpys and RMSNorm re-lane float accumulation (FMA,
//    8-wide), so those are tolerance-parity only.

#include "src/llm/simd/kernels.h"

#if defined(__AVX2__) && defined(__F16C__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>

#include "src/llm/tensor.h"

namespace tzllm {
namespace {

inline float Hsum8(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_movehdup_ps(s));
  return _mm_cvtss_f32(s);
}

inline double Hsum4d(__m256d v) {
  __m128d s = _mm_add_pd(_mm256_castpd256_pd128(v),
                         _mm256_extractf128_pd(v, 1));
  s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
  return _mm_cvtsd_f64(s);
}

// Each block as four 8-lane vectors: |x| max tree, scalar scale, then
// mul, convert, two saturating packs and one dword permute back into
// element order. Saturating to [-128, 127] and one max with -127 is the
// scalar clamp.
void QuantizeRowsQ8Avx2(const float* x, uint64_t m, uint64_t n, int8_t* q,
                        float* scale) {
  const uint64_t blocks = n / kQ8BlockElems;
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  const __m256i lo = _mm256_set1_epi8(-127);
  for (uint64_t row = 0; row < m; ++row) {
    for (uint64_t b = 0; b < blocks; ++b) {
      const float* xb = x + row * n + b * kQ8BlockElems;
      __m256 v[4];
      for (int j = 0; j < 4; ++j) {
        v[j] = _mm256_loadu_ps(xb + 8 * j);
      }
      const __m256 m8 = _mm256_max_ps(
          _mm256_max_ps(_mm256_and_ps(v[0], abs_mask),
                        _mm256_and_ps(v[1], abs_mask)),
          _mm256_max_ps(_mm256_and_ps(v[2], abs_mask),
                        _mm256_and_ps(v[3], abs_mask)));
      __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(m8),
                             _mm256_extractf128_ps(m8, 1));
      m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
      m4 = _mm_max_ss(m4, _mm_movehdup_ps(m4));
      const float amax = _mm_cvtss_f32(m4);
      const float s = amax / 127.0f;
      const float inv = s > 0.0f ? 1.0f / s : 0.0f;
      scale[b * m + row] = s;
      const __m256 vinv = _mm256_set1_ps(inv);
      __m256i r[4];
      for (int j = 0; j < 4; ++j) {
        r[j] = _mm256_cvtps_epi32(_mm256_mul_ps(v[j], vinv));
      }
      const __m256i bytes = _mm256_packs_epi16(_mm256_packs_epi32(r[0], r[1]),
                                               _mm256_packs_epi32(r[2], r[3]));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(q + row * n + b * kQ8BlockElems),
          _mm256_max_epi8(_mm256_permutevar8x32_epi32(bytes, order), lo));
    }
  }
}

// One weight row against N positions. Block-outer: each 32-byte weight
// block is loaded once and |w| = sign(w, w) formed once; per position one
// sign(x, w), one maddubs (u8 |w| times s8 sign(w)*x, exact pair sums) and
// one madd against ones widen the block's 32 products into 8 int32 lanes.
// The f16 header converts through vcvtsh2ss (exact, like the scalar
// F16ToF32). N = 1 folds its 8 lanes into one scalar dot and accumulates
// in a scalar float; N >= 2 folds up to 8 positions through an hadd tree
// into one 8-lane vector, lane p holding position p's exact block dot, and
// combines with one mul + one mul + one add per lane (no FMA, which would
// skip the rounding the scalar table performs). Lanes >= N load no scale
// (masked) and are never stored.
template <int N>
void DotRowsQ8Avx2N(const uint8_t* row, const int8_t* xq, uint64_t x_stride,
                    const float* xs, uint64_t xs_stride, uint64_t nblocks,
                    float* out) {
  const __m256i ones = _mm256_set1_epi16(1);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i mask = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(N), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256 acc = _mm256_setzero_ps();
  float acc1 = 0.0f;
  for (uint64_t b = 0; b < nblocks; ++b) {
    const uint8_t* blk = row + b * kQ8BlockBytes;
    const float wscale =
        _cvtsh_ss(static_cast<uint16_t>(blk[0] | (blk[1] << 8)));
    const __m256i w =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(blk + 2));
    const __m256i abs_w = _mm256_sign_epi8(w, w);
    __m256i part[kMaxDotRows] = {};
    for (int p = 0; p < N; ++p) {
      const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          xq + static_cast<uint64_t>(p) * x_stride + b * kQ8BlockElems));
      part[p] = _mm256_madd_epi16(
          _mm256_maddubs_epi16(abs_w, _mm256_sign_epi8(x, w)), ones);
    }
    if constexpr (N == 1) {
      __m128i s = _mm_add_epi32(_mm256_castsi256_si128(part[0]),
                                _mm256_extracti128_si256(part[0], 1));
      s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
      s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 1, 1, 1)));
      acc1 += (wscale * xs[b * xs_stride]) *
              static_cast<float>(_mm_cvtsi128_si32(s));
    } else {
      // hadd works within 128-bit halves: after two levels, half h of
      // h0123 holds positions 0..3's sums over lanes 4h..4h+3 (h4567 the
      // same for positions 4..7); adding the halves completes each dot.
      auto at = [&](int p) { return p < N ? part[p] : zero; };
      const __m256i h0123 =
          _mm256_hadd_epi32(_mm256_hadd_epi32(at(0), at(1)),
                            N > 2 ? _mm256_hadd_epi32(at(2), at(3)) : zero);
      __m256i h4567 = zero;
      if constexpr (N > 4) {
        h4567 =
            _mm256_hadd_epi32(_mm256_hadd_epi32(at(4), at(5)),
                              N > 6 ? _mm256_hadd_epi32(at(6), at(7)) : zero);
      }
      const __m256i dots =
          _mm256_add_epi32(_mm256_permute2x128_si256(h0123, h4567, 0x20),
                           _mm256_permute2x128_si256(h0123, h4567, 0x31));
      const __m256 scales =
          _mm256_mul_ps(_mm256_set1_ps(wscale),
                        _mm256_maskload_ps(xs + b * xs_stride, mask));
      acc = _mm256_add_ps(acc, _mm256_mul_ps(scales, _mm256_cvtepi32_ps(dots)));
    }
  }
  if constexpr (N == 1) {
    out[0] = acc1;
  } else {
    _mm256_maskstore_ps(out, mask, acc);
  }
}

void DotRowsQ8Avx2(const uint8_t* row, const int8_t* xq, uint64_t x_stride,
                   const float* xs, uint64_t xs_stride, uint64_t nblocks,
                   int n, float* out) {
  switch (n) {
    case 1:
      return DotRowsQ8Avx2N<1>(row, xq, x_stride, xs, xs_stride, nblocks, out);
    case 2:
      return DotRowsQ8Avx2N<2>(row, xq, x_stride, xs, xs_stride, nblocks, out);
    case 3:
      return DotRowsQ8Avx2N<3>(row, xq, x_stride, xs, xs_stride, nblocks, out);
    case 4:
      return DotRowsQ8Avx2N<4>(row, xq, x_stride, xs, xs_stride, nblocks, out);
    case 5:
      return DotRowsQ8Avx2N<5>(row, xq, x_stride, xs, xs_stride, nblocks, out);
    case 6:
      return DotRowsQ8Avx2N<6>(row, xq, x_stride, xs, xs_stride, nblocks, out);
    case 7:
      return DotRowsQ8Avx2N<7>(row, xq, x_stride, xs, xs_stride, nblocks, out);
    default:  // kMaxDotRows.
      return DotRowsQ8Avx2N<8>(row, xq, x_stride, xs, xs_stride, nblocks, out);
  }
}

float DotQkF16Avx2(const float* q, const uint16_t* k, int n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m256 k0 = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(k + j)));
    const __m256 k1 = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(k + j + 8)));
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q + j), k0, acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(q + j + 8), k1, acc1);
  }
  for (; j + 8 <= n; j += 8) {
    const __m256 kk = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(k + j)));
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q + j), kk, acc0);
  }
  float sum = Hsum8(_mm256_add_ps(acc0, acc1));
  for (; j < n; ++j) {
    sum += q[j] * F16ToF32Fast(k[j]);
  }
  return sum;
}

void AxpyF16Avx2(float w, const uint16_t* v, float* out, int n) {
  const __m256 ww = _mm256_set1_ps(w);
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 vv = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + j)));
    _mm256_storeu_ps(out + j,
                     _mm256_fmadd_ps(ww, vv, _mm256_loadu_ps(out + j)));
  }
  for (; j < n; ++j) {
    out[j] += w * F16ToF32Fast(v[j]);
  }
}

void F32ToF16Avx2(const float* src, uint16_t* dst, uint64_t n) {
  // vcvtps2ph would emit subnormal halves for |x| < 2^-14; the scalar
  // converter flushes that whole range to signed zero. Masking the inputs
  // below the f16 normal threshold reproduces the flush exactly (the
  // boundary is the same: |x| >= 2^-14 keeps full precision).
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  const __m256 sign_only =
      _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int>(0x80000000u)));
  const __m256 min_normal = _mm256_set1_ps(6.103515625e-05f);  // 2^-14.
  uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_loadu_ps(src + i);
    const __m256 keep =
        _mm256_cmp_ps(_mm256_and_ps(x, abs_mask), min_normal, _CMP_GE_OQ);
    x = _mm256_and_ps(x, _mm256_or_ps(keep, sign_only));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(dst + i),
        _mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  }
  for (; i < n; ++i) {
    dst[i] = F32ToF16(src[i]);
  }
}

void F16ToF32Avx2(const uint16_t* src, float* dst, uint64_t n) {
  uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i,
                     _mm256_cvtph_ps(_mm_loadu_si128(
                         reinterpret_cast<const __m128i*>(src + i))));
  }
  for (; i < n; ++i) {
    dst[i] = F16ToF32(src[i]);
  }
}

void RmsNormAvx2(const float* x, const float* gain, float* out, int n) {
  // Sum of squares in 4 double lanes (the scalar path accumulates in double
  // too, so the lanes only reorder, never narrow, the reduction).
  __m256d acc = _mm256_setzero_pd();
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  double sum = Hsum4d(acc);
  for (; i < n; ++i) {
    sum += static_cast<double>(x[i]) * x[i];
  }
  const float inv = 1.0f / std::sqrt(static_cast<float>(sum / n) + 1e-5f);
  const __m256 vinv = _mm256_set1_ps(inv);
  i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i,
                     _mm256_mul_ps(_mm256_mul_ps(_mm256_loadu_ps(x + i), vinv),
                                   _mm256_loadu_ps(gain + i)));
  }
  for (; i < n; ++i) {
    out[i] = x[i] * inv * gain[i];
  }
}

void SoftmaxAvx2(float* x, int n) {
  float max = x[0];
  int i = 1;
  if (n >= 8) {
    __m256 vmax = _mm256_loadu_ps(x);
    for (i = 8; i + 8 <= n; i += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(x + i));
    }
    __m128 m = _mm_max_ps(_mm256_castps256_ps128(vmax),
                          _mm256_extractf128_ps(vmax, 1));
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_movehdup_ps(m));
    max = _mm_cvtss_f32(m);
  }
  for (; i < n; ++i) {
    max = max < x[i] ? x[i] : max;
  }
  // exp and the sum stay serial: together with the order-independent max
  // and the elementwise scale this keeps softmax bit-identical to scalar.
  float sum = 0.0f;
  for (int j = 0; j < n; ++j) {
    x[j] = std::exp(x[j] - max);
    sum += x[j];
  }
  const float inv = 1.0f / sum;
  const __m256 vinv = _mm256_set1_ps(inv);
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(x + j, _mm256_mul_ps(_mm256_loadu_ps(x + j), vinv));
  }
  for (; j < n; ++j) {
    x[j] *= inv;
  }
}

const KernelDispatch kAvx2Table = {
    SimdIsa::kAvx2F16c,
    QuantizeRowsQ8Avx2,
    DotRowsQ8Avx2,
    nullptr,  // matmat_rows_q8: no matrix engine.
    DotQkF16Avx2,
    AxpyF16Avx2,
    F32ToF16Avx2,
    F16ToF32Avx2,
    RmsNormAvx2,
    SoftmaxAvx2,
};

}  // namespace

const KernelDispatch* Avx2Kernels() { return &kAvx2Table; }

}  // namespace tzllm

#else  // !(__AVX2__ && __F16C__ && __FMA__)

namespace tzllm {

// Built without the ISA (non-x86 target or SIMD disabled at compile time):
// the backend is absent and dispatch falls back to scalar.
const KernelDispatch* Avx2Kernels() { return nullptr; }

}  // namespace tzllm

#endif

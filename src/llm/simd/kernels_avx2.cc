// AVX2 + F16C + FMA kernel backend. This translation unit is the only one
// compiled with -mavx2 -mf16c -mfma (CMake per-source flags); dispatch.cc
// only hands out this table after __builtin_cpu_supports confirms the ISA,
// so nothing here may be called on a lesser CPU.
//
// Bit-exactness notes (the contract kernels.h states):
//  - DotRowQ8*: the 32-wide int8 dot reduces in exact integer arithmetic
//    (madd_epi16 pairs fit int32 with huge margin: 32 * 127 * 127 < 2^19 per
//    lane pair), and the per-block float combine stays serial in block
//    order — so the result is bit-identical to the scalar table.
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

// Exact int32 dot of one 32-element int8 block pair: widen to int16, madd
// to int32 pairs, reduce. Integer adds are associative, so the horizontal
// reduction order cannot change the value.
inline int32_t DotBlock32(const int8_t* w, const int8_t* x) {
  const __m256i w16a = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(w)));
  const __m256i w16b = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + 16)));
  const __m256i x16a = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(x)));
  const __m256i x16b = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + 16)));
  const __m256i s = _mm256_add_epi32(_mm256_madd_epi16(w16a, x16a),
                                     _mm256_madd_epi16(w16b, x16b));
  __m128i s4 = _mm_add_epi32(_mm256_castsi256_si128(s),
                             _mm256_extracti128_si256(s, 1));
  s4 = _mm_add_epi32(s4, _mm_shuffle_epi32(s4, _MM_SHUFFLE(1, 0, 3, 2)));
  s4 = _mm_add_epi32(s4, _mm_shuffle_epi32(s4, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s4);
}

float DotRowQ8Avx2(const uint8_t* row, const int8_t* xq, const float* xscale,
                   uint64_t nblocks) {
  float acc = 0.0f;
  for (uint64_t b = 0; b < nblocks; ++b) {
    const uint8_t* blk = row + b * kQ8BlockBytes;
    const float wscale =
        F16ToF32(static_cast<uint16_t>(blk[0] | (blk[1] << 8)));
    const int32_t dot = DotBlock32(reinterpret_cast<const int8_t*>(blk + 2),
                                   xq + b * kQ8BlockElems);
    acc += (wscale * xscale[b]) * static_cast<float>(dot);
  }
  return acc;
}

void DotRows4Q8Avx2(const uint8_t* row, const int8_t* xq, uint64_t x_stride,
                    const float* xs_t, uint64_t xs_stride, uint64_t nblocks,
                    float* out4) {
  // Block-outer: each weight block is loaded and widened ONCE, then all
  // four positions madd against the shared registers — the whole point of
  // the batched decode path (the single-row kernel re-streams the row per
  // position). The f16 scale header converts in-loop through vcvtsh2ss
  // (exact IEEE f16->f32, bit-identical to the scalar F16ToF32 for every
  // input), fused into the weight stream. Exactness of the rest: the three
  // hadds only reorder exact int32 adds; the float combine is one mul +
  // one mul + one add PER LANE, lane p carrying position p's serial
  // block-order accumulator with the same (wscale * xscale) * dot
  // association as the scalar loop — no FMA, which would skip the
  // intermediate rounding the scalar table performs.
  __m128 acc = _mm_setzero_ps();
  for (uint64_t b = 0; b < nblocks; ++b) {
    const uint8_t* blk = row + b * kQ8BlockBytes;
    const float wscale =
        _cvtsh_ss(static_cast<uint16_t>(blk[0] | (blk[1] << 8)));
    const int8_t* wq = reinterpret_cast<const int8_t*>(blk + 2);
    const __m256i w16a = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(wq)));
    const __m256i w16b = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(wq + 16)));
    __m256i part[4];
    for (int p = 0; p < 4; ++p) {
      const int8_t* xb =
          xq + static_cast<uint64_t>(p) * x_stride + b * kQ8BlockElems;
      const __m256i x16a = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(xb)));
      const __m256i x16b = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(xb + 16)));
      part[p] = _mm256_add_epi32(_mm256_madd_epi16(w16a, x16a),
                                 _mm256_madd_epi16(w16b, x16b));
    }
    // Cross-position reduction: fold each 8-lane partial to 4 lanes, then
    // hadd pairs so lane p of `dots` holds position p's exact block dot.
    const __m128i r0 = _mm_add_epi32(_mm256_castsi256_si128(part[0]),
                                     _mm256_extracti128_si256(part[0], 1));
    const __m128i r1 = _mm_add_epi32(_mm256_castsi256_si128(part[1]),
                                     _mm256_extracti128_si256(part[1], 1));
    const __m128i r2 = _mm_add_epi32(_mm256_castsi256_si128(part[2]),
                                     _mm256_extracti128_si256(part[2], 1));
    const __m128i r3 = _mm_add_epi32(_mm256_castsi256_si128(part[3]),
                                     _mm256_extracti128_si256(part[3], 1));
    const __m128i dots =
        _mm_hadd_epi32(_mm_hadd_epi32(r0, r1), _mm_hadd_epi32(r2, r3));
    const __m128 scales = _mm_mul_ps(_mm_set1_ps(wscale),
                                     _mm_loadu_ps(xs_t + b * xs_stride));
    acc = _mm_add_ps(acc, _mm_mul_ps(scales, _mm_cvtepi32_ps(dots)));
  }
  _mm_storeu_ps(out4, acc);
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

float DotQkF32Avx2(const float* q, const float* k, int n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  int j = 0;
  for (; j + 16 <= n; j += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q + j), _mm256_loadu_ps(k + j),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(q + j + 8),
                           _mm256_loadu_ps(k + j + 8), acc1);
  }
  for (; j + 8 <= n; j += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q + j), _mm256_loadu_ps(k + j),
                           acc0);
  }
  float sum = Hsum8(_mm256_add_ps(acc0, acc1));
  for (; j < n; ++j) {
    sum += q[j] * k[j];
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

void AxpyF32Avx2(float w, const float* v, float* out, int n) {
  const __m256 ww = _mm256_set1_ps(w);
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(
        out + j,
        _mm256_fmadd_ps(ww, _mm256_loadu_ps(v + j), _mm256_loadu_ps(out + j)));
  }
  for (; j < n; ++j) {
    out[j] += w * v[j];
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
    DotRowQ8Avx2,
    DotRows4Q8Avx2,
    DotQkF16Avx2,
    DotQkF32Avx2,
    AxpyF16Avx2,
    AxpyF32Avx2,
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

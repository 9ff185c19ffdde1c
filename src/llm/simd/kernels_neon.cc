// NEON kernel backend (aarch64). Compiled whenever the target is ARM64 —
// NEON is baseline there, no extra -m flags — and exercised by the aarch64
// qemu-user CI leg (kernel + parity suites), which is why auto dispatch now
// selects it on aarch64 (the scalar table stays one TZLLM_SIMD=off /
// EngineOptions::force_scalar away).
//
// Same structural contract as the AVX2 table: integer block dots reduce
// exactly and combine serially in block order (bit-identical to scalar);
// float dot/axpy lanes are tolerance-parity.

#include "src/llm/simd/kernels.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <cmath>

#include "src/llm/tensor.h"

namespace tzllm {
namespace {

// Each block as eight 4-lane vectors: |x| max across lanes, the scalar
// scale, then mul and fcvtns (nearest-even, saturating like aarch64's
// lrintf), two saturating narrows and one max with -127 — the scalar
// clamp.
void QuantizeRowsQ8Neon(const float* x, uint64_t m, uint64_t n, int8_t* q,
                        float* scale) {
  const uint64_t blocks = n / kQ8BlockElems;
  const int8x16_t lo = vdupq_n_s8(-127);
  for (uint64_t row = 0; row < m; ++row) {
    for (uint64_t b = 0; b < blocks; ++b) {
      const float* xb = x + row * n + b * kQ8BlockElems;
      float32x4_t v[8];
      float32x4_t vmax = vdupq_n_f32(0.0f);
      for (int j = 0; j < 8; ++j) {
        v[j] = vld1q_f32(xb + 4 * j);
        vmax = vmaxq_f32(vmax, vabsq_f32(v[j]));
      }
      const float amax = vmaxvq_f32(vmax);
      const float s = amax / 127.0f;
      const float inv = s > 0.0f ? 1.0f / s : 0.0f;
      scale[b * m + row] = s;
      int16x8_t h[4];
      for (int j = 0; j < 4; ++j) {
        h[j] = vcombine_s16(
            vqmovn_s32(vcvtnq_s32_f32(vmulq_n_f32(v[2 * j], inv))),
            vqmovn_s32(vcvtnq_s32_f32(vmulq_n_f32(v[2 * j + 1], inv))));
      }
      int8_t* qb = q + row * n + b * kQ8BlockElems;
      vst1q_s8(qb, vmaxq_s8(vcombine_s8(vqmovn_s16(h[0]), vqmovn_s16(h[1])),
                            lo));
      vst1q_s8(qb + 16,
               vmaxq_s8(vcombine_s8(vqmovn_s16(h[2]), vqmovn_s16(h[3])),
                        lo));
    }
  }
}

void DotRowsQ8Neon(const uint8_t* row, const int8_t* xq, uint64_t x_stride,
                   const float* xs, uint64_t xs_stride, uint64_t nblocks,
                   int n, float* out) {
  // Block-outer so each weight block's two int8x16 loads (and the f16
  // header convert, done through F16ToF32 — the exact software path) are
  // shared by all n positions. Each position's block dot is an exact int32
  // reduction and its float accumulator advances serially in block order
  // with the scalar table's association — bit-identical per position.
  float acc[kMaxDotRows] = {};
  for (uint64_t b = 0; b < nblocks; ++b) {
    const uint8_t* blk = row + b * kQ8BlockBytes;
    const float wscale =
        F16ToF32(static_cast<uint16_t>(blk[0] | (blk[1] << 8)));
    const int8_t* wq = reinterpret_cast<const int8_t*>(blk + 2);
    const int8x16_t w0 = vld1q_s8(wq);
    const int8x16_t w1 = vld1q_s8(wq + 16);
    for (int p = 0; p < n; ++p) {
      const int8_t* xb =
          xq + static_cast<uint64_t>(p) * x_stride + b * kQ8BlockElems;
      int32x4_t dots = vdupq_n_s32(0);
      const int8x16_t x0 = vld1q_s8(xb);
      const int8x16_t x1 = vld1q_s8(xb + 16);
      dots = vpadalq_s16(dots, vmull_s8(vget_low_s8(w0), vget_low_s8(x0)));
      dots = vpadalq_s16(dots, vmull_s8(vget_high_s8(w0), vget_high_s8(x0)));
      dots = vpadalq_s16(dots, vmull_s8(vget_low_s8(w1), vget_low_s8(x1)));
      dots = vpadalq_s16(dots, vmull_s8(vget_high_s8(w1), vget_high_s8(x1)));
      acc[p] += (wscale * xs[b * xs_stride + p]) *
                static_cast<float>(vaddvq_s32(dots));
    }
  }
  for (int p = 0; p < n; ++p) {
    out[p] = acc[p];
  }
}

float DotQkF16Neon(const float* q, const uint16_t* k, int n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const float16x4_t kh = vreinterpret_f16_u16(vld1_u16(k + j));
    acc = vfmaq_f32(acc, vld1q_f32(q + j), vcvt_f32_f16(kh));
  }
  float sum = vaddvq_f32(acc);
  for (; j < n; ++j) {
    sum += q[j] * F16ToF32Fast(k[j]);
  }
  return sum;
}

void AxpyF16Neon(float w, const uint16_t* v, float* out, int n) {
  const float32x4_t ww = vdupq_n_f32(w);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const float32x4_t vv =
        vcvt_f32_f16(vreinterpret_f16_u16(vld1_u16(v + j)));
    vst1q_f32(out + j, vfmaq_f32(vld1q_f32(out + j), ww, vv));
  }
  for (; j < n; ++j) {
    out[j] += w * F16ToF32Fast(v[j]);
  }
}

void F32ToF16Neon(const float* src, uint16_t* dst, uint64_t n) {
  // Scalar converter per element: it flushes subnormals to zero, and
  // matching that bit-for-bit matters more here than convert throughput
  // (vcvt_f16_f32 honors FPCR flush bits, which we don't control).
  for (uint64_t i = 0; i < n; ++i) {
    dst[i] = F32ToF16(src[i]);
  }
}

void F16ToF32Neon(const uint16_t* src, float* dst, uint64_t n) {
  uint64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(dst + i, vcvt_f32_f16(vreinterpret_f16_u16(vld1_u16(src + i))));
  }
  for (; i < n; ++i) {
    dst[i] = F16ToF32(src[i]);
  }
}

void RmsNormNeon(const float* x, const float* gain, float* out, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(x[i]) * x[i];
  }
  const float inv = 1.0f / std::sqrt(static_cast<float>(sum / n) + 1e-5f);
  const float32x4_t vinv = vdupq_n_f32(inv);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i,
              vmulq_f32(vmulq_f32(vld1q_f32(x + i), vinv),
                        vld1q_f32(gain + i)));
  }
  for (; i < n; ++i) {
    out[i] = x[i] * inv * gain[i];
  }
}

void SoftmaxNeon(float* x, int n) {
  float max = x[0];
  int i = 1;
  if (n >= 4) {
    float32x4_t vmax = vld1q_f32(x);
    for (i = 4; i + 4 <= n; i += 4) {
      vmax = vmaxq_f32(vmax, vld1q_f32(x + i));
    }
    max = vmaxvq_f32(vmax);
  }
  for (; i < n; ++i) {
    max = max < x[i] ? x[i] : max;
  }
  float sum = 0.0f;
  for (int j = 0; j < n; ++j) {
    x[j] = std::exp(x[j] - max);
    sum += x[j];
  }
  const float inv = 1.0f / sum;
  const float32x4_t vinv = vdupq_n_f32(inv);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(x + j, vmulq_f32(vld1q_f32(x + j), vinv));
  }
  for (; j < n; ++j) {
    x[j] *= inv;
  }
}

const KernelDispatch kNeonTable = {
    SimdIsa::kNeon,
    QuantizeRowsQ8Neon,
    DotRowsQ8Neon,
    nullptr,  // matmat_rows_q8: no matrix engine.
    DotQkF16Neon,
    AxpyF16Neon,
    F32ToF16Neon,
    F16ToF32Neon,
    RmsNormNeon,
    SoftmaxNeon,
};

}  // namespace

const KernelDispatch* NeonKernels() { return &kNeonTable; }

}  // namespace tzllm

#else  // !(__aarch64__ && __ARM_NEON)

namespace tzllm {

const KernelDispatch* NeonKernels() { return nullptr; }

}  // namespace tzllm

#endif

// Portable scalar kernel backend — the numerics baseline every other table
// is measured against, byte-for-byte the loops the executor ran before the
// dispatch layer existed. `force_scalar` and TZLLM_SIMD=off bind here, so
// the SIMD-vs-scalar parity suites compare against the same floats on every
// host.

#include <algorithm>
#include <cmath>

#include "src/llm/simd/kernels.h"
#include "src/llm/tensor.h"

namespace tzllm {
namespace {

// The clamp guards the |x| == amax element against float rounding up, and
// an infinite inv (see kernels.h).
void QuantizeRowsQ8Scalar(const float* x, uint64_t m, uint64_t n, int8_t* q,
                          float* scale) {
  const uint64_t blocks = n / kQ8BlockElems;
  for (uint64_t row = 0; row < m; ++row) {
    const float* src = x + row * n;
    int8_t* out = q + row * n;
    for (uint64_t b = 0; b < blocks; ++b) {
      const float* xb = src + b * kQ8BlockElems;
      float amax = 0.0f;
      for (uint64_t i = 0; i < kQ8BlockElems; ++i) {
        amax = std::max(amax, std::fabs(xb[i]));
      }
      const float s = amax / 127.0f;
      const float inv = s > 0.0f ? 1.0f / s : 0.0f;
      scale[b * m + row] = s;
      int8_t* qb = out + b * kQ8BlockElems;
      for (uint64_t i = 0; i < kQ8BlockElems; ++i) {
        const long r = std::lrintf(xb[i] * inv);
        qb[i] = static_cast<int8_t>(std::max(-127l, std::min(127l, r)));
      }
    }
  }
}

void DotRowsQ8Scalar(const uint8_t* row, const int8_t* xq, uint64_t x_stride,
                     const float* xs, uint64_t xs_stride, uint64_t nblocks,
                     int n, float* out) {
  // Block-outer so the header convert happens once per block (shared by
  // all n positions, like the SIMD tables); each position's accumulator
  // advances serially in block order, so a position's result does not
  // depend on which group it rides in.
  float acc[kMaxDotRows] = {};
  for (uint64_t b = 0; b < nblocks; ++b) {
    const uint8_t* blk = row + b * kQ8BlockBytes;
    const float wscale =
        F16ToF32(static_cast<uint16_t>(blk[0] | (blk[1] << 8)));
    const int8_t* wq = reinterpret_cast<const int8_t*>(blk + 2);
    for (int p = 0; p < n; ++p) {
      const int8_t* xb =
          xq + static_cast<uint64_t>(p) * x_stride + b * kQ8BlockElems;
      int32_t dot = 0;
      for (uint64_t i = 0; i < kQ8BlockElems; ++i) {
        dot += static_cast<int32_t>(wq[i]) * static_cast<int32_t>(xb[i]);
      }
      acc[p] += (wscale * xs[b * xs_stride + p]) * static_cast<float>(dot);
    }
  }
  for (int p = 0; p < n; ++p) {
    out[p] = acc[p];
  }
}

// Q.K dots, 4 independent accumulator lanes: a strict serial float reduction
// cannot be reordered by the compiler, so the lanes buy ILP/vectorization.
// The lane split is part of this table's definition (same result at every
// thread count), not a thread-dependent schedule.
float DotQkF16Scalar(const float* q, const uint16_t* k, int n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    s0 += q[j] * F16ToF32Fast(k[j]);
    s1 += q[j + 1] * F16ToF32Fast(k[j + 1]);
    s2 += q[j + 2] * F16ToF32Fast(k[j + 2]);
    s3 += q[j + 3] * F16ToF32Fast(k[j + 3]);
  }
  for (; j < n; ++j) {
    s0 += q[j] * F16ToF32Fast(k[j]);
  }
  return (s0 + s1) + (s2 + s3);
}

void AxpyF16Scalar(float w, const uint16_t* v, float* out, int n) {
  for (int j = 0; j < n; ++j) {
    out[j] += w * F16ToF32Fast(v[j]);
  }
}

void F32ToF16Scalar(const float* src, uint16_t* dst, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    dst[i] = F32ToF16(src[i]);
  }
}

// IEEE expand (not F16ToF32Fast) so the bulk converter round-trips every
// half including inf — it is not a hot-loop fusion, and matching the AVX2
// vcvtph2ps semantics bit-for-bit keeps the backends interchangeable.
void F16ToF32Scalar(const uint16_t* src, float* dst, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    dst[i] = F16ToF32(src[i]);
  }
}

void RmsNormScalar(const float* x, const float* gain, float* out, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(x[i]) * x[i];
  }
  const float inv = 1.0f / std::sqrt(static_cast<float>(sum / n) + 1e-5f);
  for (int i = 0; i < n; ++i) {
    out[i] = x[i] * inv * gain[i];
  }
}

void SoftmaxScalar(float* x, int n) {
  float max = x[0];
  for (int i = 1; i < n; ++i) {
    max = std::max(max, x[i]);
  }
  float sum = 0.0f;
  for (int i = 0; i < n; ++i) {
    x[i] = std::exp(x[i] - max);
    sum += x[i];
  }
  const float inv = 1.0f / sum;
  for (int i = 0; i < n; ++i) {
    x[i] *= inv;
  }
}

const KernelDispatch kScalarTable = {
    SimdIsa::kScalar,
    QuantizeRowsQ8Scalar,
    DotRowsQ8Scalar,
    nullptr,  // matmat_rows_q8: no matrix engine.
    DotQkF16Scalar,
    AxpyF16Scalar,
    F32ToF16Scalar,
    F16ToF32Scalar,
    RmsNormScalar,
    SoftmaxScalar,
};

}  // namespace

const KernelDispatch* ScalarKernels() { return &kScalarTable; }

}  // namespace tzllm

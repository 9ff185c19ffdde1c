#include "src/llm/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/llm/simd/kernels.h"

namespace tzllm {

const char* DTypeName(DType dtype) {
  switch (dtype) {
    case DType::kF32:
      return "f32";
    case DType::kF16:
      return "f16";
    case DType::kQ8_0:
      return "q8_0";
  }
  return "?";
}

uint64_t DTypeByteSize(DType dtype, uint64_t elems) {
  switch (dtype) {
    case DType::kF32:
      return elems * 4;
    case DType::kF16:
      return elems * 2;
    case DType::kQ8_0:
      return (elems + kQ8BlockElems - 1) / kQ8BlockElems * kQ8BlockBytes;
  }
  return 0;
}

uint16_t F32ToF16(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, 4);
  const uint32_t sign = (bits >> 16) & 0x8000;
  int32_t exp = static_cast<int32_t>((bits >> 23) & 0xFF) - 127 + 15;
  uint32_t mant = bits & 0x7FFFFF;
  if (exp <= 0) {
    return static_cast<uint16_t>(sign);  // Flush subnormals/underflow to 0.
  }
  if (exp >= 0x1F) {
    return static_cast<uint16_t>(sign | 0x7C00);  // Inf.
  }
  // Round to nearest even on the 13 truncated bits.
  const uint32_t round_bit = 1u << 12;
  uint16_t half =
      static_cast<uint16_t>(sign | (exp << 10) | (mant >> 13));
  if ((mant & round_bit) && ((mant & (round_bit - 1)) || (half & 1))) {
    ++half;
  }
  return half;
}

float F16ToF32(uint16_t half) {
  const uint32_t sign = (half & 0x8000u) << 16;
  const uint32_t exp = (half >> 10) & 0x1F;
  const uint32_t mant = half & 0x3FF;
  uint32_t bits;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;
    } else {
      // Subnormal half: normalize.
      int e = -1;
      uint32_t m = mant;
      while ((m & 0x400) == 0) {
        m <<= 1;
        ++e;
      }
      bits = sign | ((127 - 15 - e) << 23) | ((m & 0x3FF) << 13);
    }
  } else if (exp == 0x1F) {
    bits = sign | 0x7F800000 | (mant << 13);
  } else {
    bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float out;
  std::memcpy(&out, &bits, 4);
  return out;
}

void QuantizeQ8(const float* src, uint64_t n, uint8_t* dst) {
  const uint64_t blocks = (n + kQ8BlockElems - 1) / kQ8BlockElems;
  for (uint64_t b = 0; b < blocks; ++b) {
    const uint64_t base = b * kQ8BlockElems;
    const uint64_t count = std::min(kQ8BlockElems, n - base);
    float amax = 0.0f;
    for (uint64_t i = 0; i < count; ++i) {
      amax = std::max(amax, std::fabs(src[base + i]));
    }
    const float scale = amax / 127.0f;
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    uint8_t* out = dst + b * kQ8BlockBytes;
    const uint16_t h = F32ToF16(scale);
    out[0] = static_cast<uint8_t>(h);
    out[1] = static_cast<uint8_t>(h >> 8);
    for (uint64_t i = 0; i < kQ8BlockElems; ++i) {
      float v = i < count ? src[base + i] * inv : 0.0f;
      v = std::max(-127.0f, std::min(127.0f, std::round(v)));
      out[2 + i] = static_cast<uint8_t>(static_cast<int8_t>(v));
    }
  }
}

void DequantizeQ8(const uint8_t* src, uint64_t n, float* dst) {
  const uint64_t blocks = (n + kQ8BlockElems - 1) / kQ8BlockElems;
  for (uint64_t b = 0; b < blocks; ++b) {
    const uint8_t* in = src + b * kQ8BlockBytes;
    const float scale =
        F16ToF32(static_cast<uint16_t>(in[0] | (in[1] << 8)));
    const uint64_t base = b * kQ8BlockElems;
    const uint64_t count = std::min(kQ8BlockElems, n - base);
    for (uint64_t i = 0; i < count; ++i) {
      dst[base + i] = scale * static_cast<int8_t>(in[2 + i]);
    }
  }
}

void Q8Acts::QuantizeRows(const float* x, uint64_t m_rows, uint64_t n,
                          const KernelDispatch* kernels) {
  const KernelDispatch* k = kernels != nullptr ? kernels : ActiveKernels();
  cols = n;
  m = m_rows;
  q.resize(m_rows * n);
  scale.resize(m_rows * (n / kQ8BlockElems));
  k->quantize_rows_q8(x, m_rows, n, q.data(), scale.data());
}

namespace {

// Below this many multiply-accumulates the fork/join handoff costs more than
// the kernel itself (small test models, decode-time K/V projections); such
// calls run inline on the caller.
constexpr uint64_t kParallelMinWork = 48 * 1024;

}  // namespace

void MatVecQ8(const uint8_t* w, uint64_t rows, uint64_t cols, const float* x,
              float* y, ThreadPool* pool, const KernelDispatch* kernels) {
  thread_local Q8Acts acts;
  acts.Quantize(x, cols, kernels);
  MatMatQ8(w, rows, cols, acts, y, pool, kernels);
}

void MatMatQ8(const uint8_t* w, uint64_t rows, uint64_t cols, const Q8Acts& x,
              float* y, ThreadPool* pool, const KernelDispatch* kernels) {
  const KernelDispatch* k = kernels != nullptr ? kernels : ActiveKernels();
  const uint64_t blocks_per_row = cols / kQ8BlockElems;
  const uint64_t m = x.m;
  const bool parallel = pool != nullptr && rows * cols * m >= kParallelMinWork;
  if (k->matmat_rows_q8 != nullptr) {
    auto tile_rows = [&](uint64_t r0, uint64_t r1) {
      k->matmat_rows_q8(w, rows, blocks_per_row, x.q.data(), x.scale.data(),
                        m, r0, r1, y);
    };
    if (parallel) {
      pool->ParallelFor(0, rows, tile_rows);
    } else {
      tile_rows(0, rows);
    }
    return;
  }
  auto run = [&](uint64_t r0, uint64_t r1) {
    float out[kMaxDotRows];
    for (uint64_t r = r0; r < r1; ++r) {
      const uint8_t* row = w + r * blocks_per_row * kQ8BlockBytes;
      for (uint64_t p = 0; p < m; p += kMaxDotRows) {
        const int n = static_cast<int>(
            std::min<uint64_t>(kMaxDotRows, m - p));
        k->dot_rows_q8(row, x.q.data() + p * cols, cols, x.scale.data() + p,
                       m, blocks_per_row, n, out);
        for (int j = 0; j < n; ++j) {
          y[(p + j) * rows + r] = out[j];
        }
      }
    }
  };
  if (parallel) {
    pool->ParallelFor(0, rows, run);
  } else {
    run(0, rows);
  }
}

Tensor MakeRandomTensor(const std::string& name, DType dtype, uint64_t rows,
                        uint64_t cols, uint64_t seed, double stddev) {
  Tensor t;
  t.name = name;
  t.dtype = dtype;
  t.rows = rows;
  t.cols = cols;
  const uint64_t n = rows * cols;
  Rng rng(SplitMix64(seed) ^ SplitMix64(std::hash<std::string>{}(name)));
  std::vector<float> values(n);
  for (auto& v : values) {
    v = static_cast<float>(rng.NextGaussian(0.0, stddev));
  }
  if (dtype == DType::kF32) {
    t.data.resize(n * 4);
    std::memcpy(t.data.data(), values.data(), n * 4);
  } else if (dtype == DType::kQ8_0) {
    t.data.resize(DTypeByteSize(dtype, n));
    QuantizeQ8(values.data(), n, t.data.data());
  } else {
    t.data.resize(n * 2);
    auto* out = reinterpret_cast<uint16_t*>(t.data.data());
    for (uint64_t i = 0; i < n; ++i) {
      out[i] = F32ToF16(values[i]);
    }
  }
  return t;
}

}  // namespace tzllm

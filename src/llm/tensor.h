// Tensor representation and Q8_0 block quantization (llama.cpp-compatible
// layout: 32-element blocks, one fp16 scale + 32 int8 values = 34 bytes).
//
// Functional-mode models carry real data; paper-scale models carry only
// shape/size metadata (data stays empty) and flow through the cost models.

#ifndef SRC_LLM_TENSOR_H_
#define SRC_LLM_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace tzllm {

enum class DType : uint8_t {
  kF32 = 0,
  kF16 = 1,
  kQ8_0 = 2,
};

const char* DTypeName(DType dtype);

// Q8_0 geometry.
inline constexpr uint64_t kQ8BlockElems = 32;
inline constexpr uint64_t kQ8BlockBytes = 34;  // 2 (f16 scale) + 32 (int8).

// Storage bytes for `elems` elements of `dtype`.
uint64_t DTypeByteSize(DType dtype, uint64_t elems);

// IEEE-754 half-precision conversions (round-to-nearest-even on the way in).
uint16_t F32ToF16(float value);
float F16ToF32(uint16_t half);

// Branchless f16->f32 for hot loops that stream half floats (the f16 KV
// cache attention): shift the sign-stripped half into the f32 mantissa slot
// and rescale by 2^112 to rebias the exponent. Bit-exact with F16ToF32 for
// every finite half including subnormals; f16 inf/NaN come out as large
// finite floats instead (KV entries are finite by construction — F32ToF16
// only emits inf past |x| > 65504, where the forward pass has already
// diverged). Unlike a 65536-entry table this has no gather, so the
// surrounding dot loop auto-vectorizes.
inline float F16ToF32Fast(uint16_t half) {
  const uint32_t sign = static_cast<uint32_t>(half & 0x8000u) << 16;
  uint32_t bits = static_cast<uint32_t>(half & 0x7FFFu) << 13;
  float f;
  __builtin_memcpy(&f, &bits, 4);
  f *= 0x1p112f;  // 2^112: exponent rebias 15 -> 127.
  __builtin_memcpy(&bits, &f, 4);
  bits |= sign;
  __builtin_memcpy(&f, &bits, 4);
  return f;
}

// Quantizes `n` floats (n must be a multiple of 32 — pad beforehand) into
// Q8_0 blocks at dst (DTypeByteSize(kQ8_0, n) bytes).
void QuantizeQ8(const float* src, uint64_t n, uint8_t* dst);
// Dequantizes n elements.
void DequantizeQ8(const uint8_t* src, uint64_t n, float* dst);

class ThreadPool;
struct KernelDispatch;

// Activations quantized to Q8_0 blocks (llama.cpp's quantize_row_q8_0):
// int8 values plus one float scale per 32-element block, so the matvec inner
// loop is an int8xint8 integer dot instead of int8->float converts. Holds
// one or more rows; reusable scratch so hot loops don't allocate.
struct Q8Acts {
  std::vector<int8_t> q;     // [m][cols], row-major.
  // [cols/32][m], BLOCK-MAJOR: block b of position p at scale[b*m + p], so
  // a group of positions' scales for one block are contiguous — the layout
  // KernelDispatch::dot_rows_q8 reads (with m = 1 it is simply per-block).
  std::vector<float> scale;
  uint64_t cols = 0;
  uint64_t m = 0;

  void Quantize(const float* x, uint64_t n,
                const KernelDispatch* kernels = nullptr) {
    QuantizeRows(x, 1, n, kernels);
  }
  // Quantizes m rows of n floats each (n a multiple of 32) through
  // `kernels`' quantize_rows_q8 slot (nullptr = ActiveKernels()), which is
  // bit-identical on every table. Values are clamped to [-127, 127], which
  // the SIMD dot kernels rely on. Allocates only to grow q and scale.
  void QuantizeRows(const float* x, uint64_t m_rows, uint64_t n,
                    const KernelDispatch* kernels = nullptr);
};

// y[r] = sum_c W[r,c] * x[c] for a Q8_0 row-major weight matrix W
// (rows x cols, cols a multiple of 32); overwrites y. Quantizes x to Q8
// internally (thread-local scratch) and runs MatMatQ8 at m = 1; `pool`
// (optional) splits the rows across threads when the matrix is large
// enough to amortize the fork/join. The workhorse of the functional CPU/NPU
// backends.
//
// `kernels` selects the SIMD backend for the row dots (nullptr = the
// process-wide ActiveKernels() table). Threading partitions rows while the
// backend vectorizes within a row, and the integer-dot row kernel is
// bit-identical across backends (simd/kernels.h), so the output never
// depends on either choice.
void MatVecQ8(const uint8_t* w, uint64_t rows, uint64_t cols, const float* x,
              float* y, ThreadPool* pool = nullptr,
              const KernelDispatch* kernels = nullptr);

// Batched matmul: y[p*rows + r] = sum_c W[r,c] * X[p,c] for all x.m
// positions. Row-outer: each weight row is streamed once and dotted
// against the positions in groups of up to kMaxDotRows (simd/kernels.h)
// through one dot_rows_q8 call per group, so batched decode and prefill
// chunks pay one weight stream however many positions they carry. When
// the table has a matrix engine (matmat_rows_q8, the AMX table), each row
// range goes through that slot instead, at every m including batch-1
// decode. A position's result does not depend on its group or on the
// path, so batched prefill and incremental decode (m = 1) produce
// bit-identical activations. It makes no heap allocation, with or without
// a pool.
void MatMatQ8(const uint8_t* w, uint64_t rows, uint64_t cols, const Q8Acts& x,
              float* y, ThreadPool* pool = nullptr,
              const KernelDispatch* kernels = nullptr);

struct Tensor {
  std::string name;
  DType dtype = DType::kF32;
  uint64_t rows = 0;  // For 1-D tensors rows==1.
  uint64_t cols = 0;
  std::vector<uint8_t> data;  // Empty for virtual (paper-scale) tensors.

  uint64_t NumElements() const { return rows * cols; }
  uint64_t ByteSize() const { return DTypeByteSize(dtype, NumElements()); }
  bool materialized() const { return !data.empty(); }

  const float* f32() const {
    return reinterpret_cast<const float*>(data.data());
  }
  float* mutable_f32() { return reinterpret_cast<float*>(data.data()); }
};

// Builds a materialized tensor with small Gaussian weights (deterministic by
// seed), quantized to `dtype`.
Tensor MakeRandomTensor(const std::string& name, DType dtype, uint64_t rows,
                        uint64_t cols, uint64_t seed, double stddev = 0.08);

}  // namespace tzllm

#endif  // SRC_LLM_TENSOR_H_

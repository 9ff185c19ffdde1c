// Runtime-dispatched SIMD kernel backends for the functional inference
// engine (llama.cpp-style per-ISA translation units).
//
// Every hot inner loop of the engine — the Q8xQ8 integer-dot rows behind
// MatVecQ8/MatMatQ8, the f16/f32 attention QK dots and AV accumulates, the
// KV-cache width converts, and the RMSNorm/softmax reductions — is a slot in
// a KernelDispatch table. The table is resolved exactly once per process
// from CPUID (plus the TZLLM_SIMD env override), so call sites pay one
// indirect call instead of per-call feature branches, and each backend lives
// in its own translation unit compiled with exactly the -m flags it needs
// (the rest of the codebase stays portable baseline code).
//
// Numerics contract per slot:
//  - dot_row_q8 / dot_rows4_q8 are BIT-IDENTICAL across all backends: the
//    32-wide int8 MACs reduce in exact integer arithmetic and the per-block
//    float combine runs serially in block order (one independent serial
//    accumulator per position in the rows4 variant), so vectorizing the
//    integer dot cannot change a single bit of the output.
//  - f32_to_f16 is bit-identical across backends for FINITE inputs (the
//    AVX2 path reproduces the scalar converter's flush-subnormals-to-zero
//    behavior; NaN diverges — scalar emits inf, AVX2 flushes to zero — but
//    KV appends are finite by construction, the forward pass has already
//    diverged long before a NaN reaches the cache).
//  - dot_qk_*, axpy_*, rms_norm reorder float accumulation for lanes, so
//    SIMD-vs-scalar parity is tolerance-based (the parity suite bounds it
//    at the established 0.15/logit with greedy tokens identical).
//  - softmax is bit-identical (the max reduction is order-independent and
//    exp/sum stay serial; only max and the final scale are vectorized).

#ifndef SRC_LLM_SIMD_KERNELS_H_
#define SRC_LLM_SIMD_KERNELS_H_

#include <cstdint>

namespace tzllm {

struct EngineOptions;

enum class SimdIsa : uint8_t {
  kScalar = 0,
  kAvx2F16c = 1,
  kNeon = 2,
};

const char* SimdIsaName(SimdIsa isa);

// One function pointer per hot inner loop. `nblocks` counts 34-byte Q8_0
// blocks (tensor.h geometry); `row` points at a row of such blocks.
struct KernelDispatch {
  SimdIsa isa;

  // acc over blocks of (wscale_b * xscale_b) * <wq_b, xq_b>, wscale read
  // from the f16 header of each block. The MatVecQ8Pre row kernel.
  float (*dot_row_q8)(const uint8_t* row, const int8_t* xq,
                      const float* xscale, uint64_t nblocks);
  // Four positions against one weight row in a single pass — the MatMatQ8
  // group kernel behind batched multi-session decode. Each weight block is
  // loaded and widened ONCE and all four positions' activations dot
  // against it, so a batch streams the weight bytes (and converts each f16
  // scale header) once instead of four times; reading the header in-kernel
  // rather than via a pre-expanded wscales pass keeps the converts fused
  // into the weight stream, where they hide in the DRAM latency instead of
  // serializing against the dots. out4[j] is BIT-IDENTICAL to dot_row_q8
  // over position j: the block dots reduce in exact integer arithmetic (a
  // 4-wide horizontal add only reorders integer adds) and the per-position
  // float combine runs serially in block order with the same
  // (wscale * xscale) * dot association — four independent accumulators,
  // one per position, never mixed.
  //   xq:        position 0's quantized row; position j at xq+j*x_stride.
  //   xs_t:      activation scales TRANSPOSED to [block][position] — block
  //              b's four scales are xs_t[b*xs_stride + 0..3] — so backends
  //              load them as one vector (the caller builds the transpose
  //              once per matmul and reuses it across every row).
  void (*dot_rows4_q8)(const uint8_t* row, const int8_t* xq,
                       uint64_t x_stride, const float* xs_t,
                       uint64_t xs_stride, uint64_t nblocks, float* out4);

  // Attention primitives over one head row of `n` floats.
  float (*dot_qk_f16)(const float* q, const uint16_t* k, int n);
  float (*dot_qk_f32)(const float* q, const float* k, int n);
  void (*axpy_f16)(float w, const uint16_t* v, float* out, int n);
  void (*axpy_f32)(float w, const float* v, float* out, int n);

  // KV-cache width converts (Append compresses, tests/tools expand).
  void (*f32_to_f16)(const float* src, uint16_t* dst, uint64_t n);
  void (*f16_to_f32)(const uint16_t* src, float* dst, uint64_t n);

  // Reductions.
  void (*rms_norm)(const float* x, const float* gain, float* out, int n);
  void (*softmax)(float* x, int n);
};

// Backend tables. Scalar always exists; the others return nullptr when their
// translation unit was built without the ISA (wrong target arch).
const KernelDispatch* ScalarKernels();
const KernelDispatch* Avx2Kernels();
const KernelDispatch* NeonKernels();

// True when the running CPU can execute the AVX2+F16C+FMA backend.
bool CpuSupportsAvx2F16c();

// Pure resolution for a given TZLLM_SIMD value (nullptr/"" = auto): "off",
// "scalar" or "0" force the scalar table; "avx2"/"neon" request a backend
// (falling back to scalar when unavailable); anything else auto-selects the
// best supported table — AVX2 behind its CPUID gate on x86, NEON on aarch64
// (baseline there; covered by the aarch64 qemu-user CI leg that runs the
// kernel + parity suites). Exposed separately from ActiveKernels so tests
// can exercise every branch without mutating process env.
const KernelDispatch* ResolveKernels(const char* env_value);

// The process-wide table: ResolveKernels(getenv("TZLLM_SIMD")), resolved
// once on first use.
const KernelDispatch* ActiveKernels();

// The table an engine configured with `options` must use: the scalar table
// under force_scalar (and under use_reference_kernels, so parity baselines
// stay frozen), ActiveKernels() otherwise.
const KernelDispatch* KernelsFor(const EngineOptions& options);

}  // namespace tzllm

#endif  // SRC_LLM_SIMD_KERNELS_H_

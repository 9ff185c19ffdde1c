// Runtime-dispatched SIMD kernel backends for the functional inference
// engine (llama.cpp-style per-ISA translation units).
//
// Every hot inner loop of the engine — the activation quantizer and the
// Q8xQ8 integer-dot rows behind MatVecQ8/MatMatQ8 (and, on a matrix-engine
// table, whole row ranges of MatMatQ8), the f16/f32 attention QK dots and
// AV accumulates, the KV-cache width converts, and the RMSNorm/softmax
// reductions — is a slot in a KernelDispatch table. The table is resolved
// exactly once per process from CPUID (plus the TZLLM_SIMD env override),
// so call sites pay one indirect call instead of per-call feature
// branches, and each backend lives in its own translation unit compiled
// with exactly the -m flags it needs (the rest of the codebase stays
// portable baseline code).
//
// Numerics contract per slot:
//  - quantize_rows_q8 is BIT-IDENTICAL across all backends for FINITE
//    inputs: each block's amax is an order-independent max of |x|; its
//    scale s = amax / 127.0f and inv = s > 0 ? 1.0f / s : 0 are scalar
//    float ops; each element is one IEEE multiply x * inv (never a divide
//    or a reciprocal estimate), rounded half-to-even in the default mode
//    (lrintf, cvtps2dq, fcvtns) and clamped to [-127, 127]. |x * inv|
//    exceeds 127 by at most a few ulps unless 1 / s overflows (amax below
//    ~3.7e-37): then x * inv is +-inf or NaN, which each ISA converts
//    the same way in its scalar and vector forms — x86 to the integer
//    indefinite (-127 after the clamp), aarch64 saturating (+-127, NaN 0).
//  - dot_rows_q8 is BIT-IDENTICAL across all backends and across group
//    sizes: out[p] equals the scalar table's n = 1 result for position p
//    alone. Each block dot is an exact int32 (integer adds reorder freely),
//    and each position's float accumulator advances serially in block order
//    as acc += (wscale * xscale) * dot, with no FMA — one independent
//    accumulator per position, never mixed with another position's.
//    The AVX2 table multiplies through the sign trick: |w| as u8 times
//    sign(w)*x as s8 via maddubs. Activations are clamped to [-127, 127]
//    (Q8Acts::QuantizeRows) and |w| <= 128 (a 0x80 byte is -128), so a
//    maddubs pair sum is at most 2 * 128 * 127 = 32512 < 2^15 and never
//    saturates. Lanes of positions >= n are masked: their scales are
//    never loaded and their outputs never stored.
//  - matmat_rows_q8 (matrix-engine tables only) is BIT-IDENTICAL to the
//    scalar table: y[p*rows + r] equals the scalar dot_rows_q8 n = 1 result
//    for row r and position p, at every m, row range and tail. The AMX
//    table's TDPBSSD multiplies signed bytes into exact int32 sums: each
//    tile product covers one 32-element block, whose dot is at most
//    32 * 128 * 127 = 520192 in magnitude, so nothing wraps or saturates
//    (and 520192 < 2^24 converts to float exactly either way). The f16
//    block headers expand through vcvtph2ps, exact for every half like
//    F16ToF32. The AVX-512 epilogue then advances each (row, position)
//    float accumulator serially in block order as
//    acc += (wscale * xscale) * dot — lanes are (row, position) pairs, mul
//    then mul then add, no FMA (the TU is built with -ffp-contract=off and
//    uses no fmadd intrinsic) — the scalar table's exact operation
//    sequence. C is stored dense, at the position count padded to 1, 2, 4,
//    8 or 16 int32 per row, so the epilogue's cost follows m. Lanes of
//    positions >= m and rows outside the range are masked: never loaded
//    from the headers or scales, never stored. The slot prefetches the
//    next 16 weight rows while it runs a row group, only rows inside
//    [r0, r1), so a thread's part never reads its neighbour's rows.
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
  kAmxInt8 = 3,
};

const char* SimdIsaName(SimdIsa isa);

// Largest group of positions one dot_rows_q8 call takes.
inline constexpr int kMaxDotRows = 8;

// One function pointer per hot inner loop. `nblocks` counts 34-byte Q8_0
// blocks (tensor.h geometry); `row` points at a row of such blocks.
struct KernelDispatch {
  SimdIsa isa;

  // Quantizes m rows of n floats (n a multiple of 32) to Q8_0 activations
  // in the Q8Acts layout: row p's int8 values at q[p*n .. p*n + n), its
  // block b scale at scale[b*m + p] (block-major). Writes nothing else and
  // makes no heap allocation.
  void (*quantize_rows_q8)(const float* x, uint64_t m, uint64_t n, int8_t* q,
                           float* scale);

  // One weight row against n positions (1 <= n <= kMaxDotRows) in a single
  // pass: for each position p, out[p] = sum over blocks b of
  // (wscale_b * xs[b*xs_stride + p]) * <wq_b, xq_p,b>, wscale_b read from
  // block b's f16 header. Each weight block is loaded (and its header
  // converted) ONCE for all n positions, so a batch streams the weight
  // bytes once instead of once per position — MatMatQ8 runs every batched
  // decode step and prefill chunk through this slot in groups of up to
  // kMaxDotRows positions.
  //   xq:        position 0's quantized row; position p at xq + p*x_stride.
  //   xs:        activation scales BLOCK-MAJOR — block b's n scales are
  //              xs[b*xs_stride + 0..n-1] — so backends load them as one
  //              vector (the Q8Acts::scale layout, xs_stride = its m).
  //   out:       n floats; only out[0..n-1] is written.
  void (*dot_rows_q8)(const uint8_t* row, const int8_t* xq, uint64_t x_stride,
                      const float* xs, uint64_t xs_stride, uint64_t nblocks,
                      int n, float* out);

  // Rows [r0, r1) of a Q8_0 matrix `w` (`rows` rows of `nblocks` blocks)
  // against all m positions of a Q8Acts (xq = its q, xs = its block-major
  // scale): y[p*rows + r] for every p < m and r0 <= r < r1, nothing else
  // written. The row range may start anywhere, so a thread pool's row
  // partition applies unchanged. nullptr in every table without a matrix
  // engine (scalar, AVX2, NEON); MatMatQ8 then runs dot_rows_q8 groups.
  // The slot makes no heap allocation.
  void (*matmat_rows_q8)(const uint8_t* w, uint64_t rows, uint64_t nblocks,
                         const int8_t* xq, const float* xs, uint64_t m,
                         uint64_t r0, uint64_t r1, float* y);

  // Attention primitives over one head row of `n` floats, against the f16
  // KV cache.
  float (*dot_qk_f16)(const float* q, const uint16_t* k, int n);
  void (*axpy_f16)(float w, const uint16_t* v, float* out, int n);

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
// The AVX2 table plus an AMX-INT8 matmat_rows_q8 (kernels_amx.cc); nullptr
// when the compiler rejected the tile TU's -m flags.
const KernelDispatch* AmxInt8Kernels();

// True when the running CPU can execute the AVX2+F16C+FMA backend.
bool CpuSupportsAvx2F16c();

// True when this process may execute the AMX-INT8 table, checked once:
// the AVX2 table's gate, CPUID AMX-TILE + AMX-INT8 + AVX512F + AVX512BW,
// OSXSAVE with XCR0 enabling the SSE, AVX, AVX-512 and tile state (bits
// 1-2, 5-7, 17, 18), and the kernel granting this process the tile data
// state (arch_prctl ARCH_REQ_XCOMP_PERM, Linux x86-64 only). The grant can
// fail — e.g. ENOSPC when a thread's sigaltstack is too small for the
// larger signal frame, as under some sanitizers — and any failure leaves
// auto dispatch on the AVX2 table; no tile instruction ever runs ungated.
bool CpuSupportsAmxInt8();

// Pure resolution for a given TZLLM_SIMD value (nullptr/"" = auto): "off",
// "scalar" or "0" force the scalar table; "avx2"/"neon" request a backend
// (falling back to scalar when unavailable) — "avx2" pins the AVX2 table,
// tiles off, even on an AMX host; anything else auto-selects the best
// supported table — AMX-INT8 behind CpuSupportsAmxInt8, else AVX2 behind
// its CPUID gate on x86, NEON on aarch64 (baseline there; covered by the
// aarch64 qemu-user CI leg that runs the kernel + parity suites). Exposed
// separately from ActiveKernels so tests can exercise every branch without
// mutating process env.
const KernelDispatch* ResolveKernels(const char* env_value);

// The process-wide table: ResolveKernels(getenv("TZLLM_SIMD")), resolved
// once on first use.
const KernelDispatch* ActiveKernels();

// The table an engine configured with `options` must use: the scalar table
// under force_scalar, ActiveKernels() otherwise.
const KernelDispatch* KernelsFor(const EngineOptions& options);

}  // namespace tzllm

#endif  // SRC_LLM_SIMD_KERNELS_H_

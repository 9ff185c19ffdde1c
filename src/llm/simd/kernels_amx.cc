// AMX-INT8 tile backend: the AVX2 table plus a matmat_rows_q8 slot that
// runs a batch of positions through the host's matrix engine. This
// translation unit is the only one compiled with -mavx512f -mavx512bw
// -mf16c -mamx-tile -mamx-int8 (CMake per-source flags, behind a
// compiler-flag check); dispatch.cc only hands out this table after
// CpuSupportsAmxInt8 confirms the CPU, the OS state and the kernel's
// tile-data permission, so nothing here may be called otherwise.
//
// MatMatRowsQ8Amx, per group of up to 16 positions, 16-row group and
// block:
//  - A (tmm1) is 16 weight rows x one block's 32 quant bytes, tile-loaded
//    straight from the Q8_0 rows with stride = row bytes, skipping each
//    block's 2-byte f16 header: the weights are never repacked.
//  - B (tmm2) is the same block of the group's n positions, packed
//    VNNI-style once per position group into a bounded stack buffer: row k
//    holds bytes 4k..4k+3 of every position, so B is [8][n x 4] bytes.
//  - One TDPBSSD leaves the exact int32 dots of 16 rows x n positions in
//    C (tmm0), stored dense at NP int32 per row, NP being n padded to 1,
//    2, 4, 8 or 16. An AVX-512 epilogue then advances NP float accumulator
//    vectors whose lanes are (row, position) pairs, kept in registers for
//    the whole row group, as acc += (wscale * xs) * float(dot), with no
//    FMA — the scalar table's operation sequence, so the result is
//    bit-identical to it (kernels.h). Its cost follows n, not a fixed 16.
//  - The next row group's rows, inside the call's row range, are
//    prefetched a few cache lines per block, so they are in cache when
//    that group starts.
// Tail groups (fewer rows or positions) reconfigure the tile shapes, so a
// tile load never reads past the weight matrix or the packed buffer.

#include "src/llm/simd/kernels.h"

#if defined(__AMX_TILE__) && defined(__AMX_INT8__) && \
    defined(__AVX512F__) && defined(__AVX512BW__) && defined(__F16C__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "src/llm/tensor.h"

namespace tzllm {
namespace {

constexpr int kTileRows = 16;       // Weight rows per A / C tile.
constexpr int kTilePositions = 16;  // Positions per B / C tile.
// B tile rows: each row carries 4 consecutive bytes of every position.
constexpr int kQuadsPerBlock = static_cast<int>(kQ8BlockElems / 4);
constexpr uint64_t kPackedBlockBytes = kQuadsPerBlock * kTilePositions * 4;
// Blocks packed at once: 48 blocks (24 KiB of stack) cover every row up to
// 1536 columns in one chunk; longer rows are packed chunk by chunk per row
// group, which only costs re-packing.
constexpr uint64_t kPackBlocks = 48;

// gcc's tileloadd and ldtilecfg asm name no (or only part of their) memory
// operand, so stores they must observe need a compiler barrier first.
inline void CompilerBarrier() { __asm__ volatile("" ::: "memory"); }

// Palette-1 tile configuration (Intel SDM LDTILECFG memory layout).
struct alignas(64) TileConfig {
  uint8_t palette_id = 1;
  uint8_t start_row = 0;
  uint8_t reserved[14] = {};
  uint16_t colsb[16] = {};
  uint8_t rows[16] = {};
};

// tmm0 = C (r rows x n int32), tmm1 = A (r rows x 32 bytes),
// tmm2 = B (8 rows x n*4 bytes).
void ConfigureTiles(int r, int n) {
  TileConfig cfg;
  cfg.rows[0] = static_cast<uint8_t>(r);
  cfg.colsb[0] = static_cast<uint16_t>(n * 4);
  cfg.rows[1] = static_cast<uint8_t>(r);
  cfg.colsb[1] = static_cast<uint16_t>(kQ8BlockElems);
  cfg.rows[2] = static_cast<uint8_t>(kQuadsPerBlock);
  cfg.colsb[2] = static_cast<uint16_t>(n * 4);
  CompilerBarrier();
  _tile_loadconfig(&cfg);
}

// One MatMatRowsQ8Amx call's operands and its current position group.
struct TileJob {
  const uint8_t* w;
  uint64_t rows;
  uint64_t nblocks;
  uint64_t row_bytes;
  const int8_t* xq;
  const float* xs;
  uint64_t m;
  float* y;
  // Byte offsets of rows 0-7 and 8-15 of a row group (i * row_bytes), for
  // the header gathers; 64-bit so no row length can overflow them.
  __m512i header_lo;
  __m512i header_hi;
  // End of the call's row range; no row at or past it is prefetched.
  uint64_t r1;
  // Position group: positions [p0, p0 + n), `lanes` their mask. `packed`
  // holds their B tiles for every block when `packed_all`, otherwise one
  // kPackBlocks chunk at a time (re-packed per row group).
  uint64_t p0;
  int n;
  __mmask16 lanes;
  int8_t* packed;
  bool packed_all;
};

// Packs blocks [b0, b1) of the job's positions into B layout: block b's
// tile at packed + (b - b0) * kPackedBlockBytes, row k at +64k, position
// p's bytes 4k..4k+3 at +4p.
void PackPositions(const TileJob& job, uint64_t b0, uint64_t b1) {
  const uint64_t cols = job.nblocks * kQ8BlockElems;
  for (uint64_t b = b0; b < b1; ++b) {
    int8_t* dst = job.packed + (b - b0) * kPackedBlockBytes;
    for (int p = 0; p < job.n; ++p) {
      const int8_t* src = job.xq + (job.p0 + p) * cols + b * kQ8BlockElems;
      for (int k = 0; k < kQuadsPerBlock; ++k) {
        std::memcpy(dst + k * kTilePositions * 4 + p * 4, src + 4 * k, 4);
      }
    }
  }
}

// The f16 scales of a row group's first r rows at block `blk`, as 16
// floats (rows >= r are 0). The headers come in through two masked gathers
// (rows >= r are never read) and convert together, exactly, like
// F16ToF32. Zero-masked forms throughout: gcc 12's unmasked ones warn on
// their self-initialized pass-through operand.
inline __m512 RowScales(const TileJob& job, const uint8_t* blk,
                        __mmask16 row_mask) {
  const __m256i lo = _mm512_mask_i64gather_epi32(
      _mm256_setzero_si256(), static_cast<__mmask8>(row_mask),
      job.header_lo, blk, 1);
  const __m256i hi = _mm512_mask_i64gather_epi32(
      _mm256_setzero_si256(), static_cast<__mmask8>(row_mask >> 8),
      job.header_hi, blk, 1);
  // Each gathered dword is a header plus two quant bytes; keep the header.
  const __m256i halves = _mm512_maskz_cvtepi32_epi16(
      0xFFFF,
      _mm512_maskz_inserti64x4(0xFF, _mm512_castsi256_si512(lo), hi, 1));
  return _mm512_maskz_cvtph_ps(0xFFFF, halves);
}

// Rows [g, g + r) against the job's position group over every block,
// written to y. C is stored dense at NP int32 per row, so accumulator
// vector v holds rows v * 16 / NP onward: its lane l is row l / NP of that
// slice at position l % NP. Per block, each vector's scales are the rows'
// f16 scales permuted to that pattern and its xs the positions' scales
// repeated every NP lanes; then acc += (wscale * xs) * float(dot), mul then
// mul then add — per (row, position) the scalar table's operation sequence
// in block order. The tile stores only r rows x n dots, so the other lanes
// read the zeroed buffer; none of them is ever stored.
template <int NP>
void RowGroup(const TileJob& job, uint64_t g, int r) {
  constexpr int kRowsPerVector = kTileRows / NP;
  constexpr long kStrideB = kTilePositions * 4;
  constexpr long kStrideC = NP * 4;
  const uint8_t* rows_base = job.w + g * job.row_bytes;
  const long stride_a = static_cast<long>(job.row_bytes);
  const __mmask16 row_mask = static_cast<__mmask16>((1u << r) - 1);
  const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  const __m512i lane_position =
      _mm512_and_si512(lane, _mm512_set1_epi32(NP - 1));
  const __m512i lane_row = _mm512_srli_epi32(lane, __builtin_ctz(NP));
  // The next row group's rows, clamped to the call's range (a thread's
  // part never warms its neighbour's rows), spread over this group's
  // blocks: every line holding a byte of rows [g + 16, min(g + 32, r1)).
  const uint8_t* prefetch = nullptr;
  const uint8_t* prefetch_end = nullptr;
  uint64_t prefetch_lines = 0;  // Per block.
  if (g + kTileRows < job.r1) {
    const uint64_t next = g + kTileRows;
    prefetch = reinterpret_cast<const uint8_t*>(
        reinterpret_cast<uintptr_t>(job.w + next * job.row_bytes) &
        ~uintptr_t{63});
    prefetch_end = job.w + std::min(job.r1, next + kTileRows) * job.row_bytes;
    const uint64_t lines = (prefetch_end - prefetch + 63) / 64;
    prefetch_lines = (lines + job.nblocks - 1) / job.nblocks;
  }
  __m512 acc[NP] = {};
  alignas(64) int32_t dots[kTileRows * NP] = {};
  for (uint64_t c0 = 0; c0 < job.nblocks; c0 += kPackBlocks) {
    const uint64_t c1 = std::min(job.nblocks, c0 + kPackBlocks);
    if (!job.packed_all) {
      PackPositions(job, c0, c1);
    }
    CompilerBarrier();
    for (uint64_t b = c0; b < c1; ++b) {
      const uint8_t* blk = rows_base + b * kQ8BlockBytes;
      _tile_loadd(1, blk + 2, stride_a);
      _tile_loadd(2, job.packed + (b - c0) * kPackedBlockBytes, kStrideB);
      _tile_zero(0);
      _tile_dpbssd(0, 1, 2);
      _tile_stored(0, dots, kStrideC);
      for (uint64_t i = 0; i < prefetch_lines && prefetch < prefetch_end;
           ++i, prefetch += 64) {
        _mm_prefetch(reinterpret_cast<const char*>(prefetch), _MM_HINT_T0);
      }
      const __m512 ws = RowScales(job, blk, row_mask);
      const __m512 xs_live =
          _mm512_maskz_loadu_ps(job.lanes, job.xs + b * job.m + job.p0);
      const __m512 xs = NP == kTilePositions
                            ? xs_live
                            : _mm512_maskz_permutexvar_ps(
                                  0xFFFF, lane_position, xs_live);
#pragma GCC unroll 16
      for (int v = 0; v < NP; ++v) {
        const __m512 wsv =
            NP == 1 ? ws
                    : _mm512_maskz_permutexvar_ps(
                          0xFFFF,
                          _mm512_add_epi32(
                              lane_row,
                              _mm512_set1_epi32(v * kRowsPerVector)),
                          ws);
        const __m512 dot = _mm512_maskz_cvtepi32_ps(
            0xFFFF, _mm512_load_si512(dots + v * kTilePositions));
        acc[v] = _mm512_add_ps(acc[v],
                               _mm512_mul_ps(_mm512_mul_ps(wsv, xs), dot));
      }
    }
  }
  alignas(64) float out[kTileRows * NP];
  for (int v = 0; v < NP; ++v) {
    _mm512_store_ps(out + v * kTilePositions, acc[v]);
  }
  for (int p = 0; p < job.n; ++p) {
    float* dst = job.y + (job.p0 + p) * job.rows + g;
    for (int i = 0; i < r; ++i) {
      dst[i] = out[i * NP + p];
    }
  }
}

// Every row group of the call's range against the job's position group.
template <int NP>
void RowGroups(const TileJob& job, uint64_t r0) {
  int configured_rows = 0;
  for (uint64_t g = r0; g < job.r1; g += kTileRows) {
    const int r = static_cast<int>(std::min<uint64_t>(kTileRows, job.r1 - g));
    if (r != configured_rows) {
      ConfigureTiles(r, job.n);
      configured_rows = r;
    }
    RowGroup<NP>(job, g, r);
  }
}

void MatMatRowsQ8Amx(const uint8_t* w, uint64_t rows, uint64_t nblocks,
                     const int8_t* xq, const float* xs, uint64_t m,
                     uint64_t r0, uint64_t r1, float* y) {
  if (r0 >= r1 || m == 0 || nblocks == 0) {
    return;
  }
  alignas(64) int8_t packed[kPackBlocks * kPackedBlockBytes];
  TileJob job;
  job.w = w;
  job.rows = rows;
  job.nblocks = nblocks;
  job.row_bytes = nblocks * kQ8BlockBytes;
  job.xq = xq;
  job.xs = xs;
  job.m = m;
  job.y = y;
  const long long rb = static_cast<long long>(job.row_bytes);
  job.header_lo = _mm512_setr_epi64(0, rb, 2 * rb, 3 * rb, 4 * rb, 5 * rb,
                                    6 * rb, 7 * rb);
  job.header_hi = _mm512_add_epi64(job.header_lo, _mm512_set1_epi64(8 * rb));
  job.r1 = r1;
  job.packed = packed;
  job.packed_all = nblocks <= kPackBlocks;
  for (uint64_t p0 = 0; p0 < m; p0 += kTilePositions) {
    job.p0 = p0;
    job.n = static_cast<int>(std::min<uint64_t>(kTilePositions, m - p0));
    job.lanes = static_cast<__mmask16>((1u << job.n) - 1);
    if (job.packed_all) {
      PackPositions(job, 0, nblocks);
    }
    if (job.n == 1) {
      RowGroups<1>(job, r0);
    } else if (job.n == 2) {
      RowGroups<2>(job, r0);
    } else if (job.n <= 4) {
      RowGroups<4>(job, r0);
    } else if (job.n <= 8) {
      RowGroups<8>(job, r0);
    } else {
      RowGroups<16>(job, r0);
    }
  }
  _tile_release();
}

}  // namespace

const KernelDispatch* AmxInt8Kernels() {
  static const KernelDispatch* const table = []() -> const KernelDispatch* {
    if (Avx2Kernels() == nullptr) {
      return nullptr;
    }
    static KernelDispatch amx = *Avx2Kernels();
    amx.isa = SimdIsa::kAmxInt8;
    amx.matmat_rows_q8 = MatMatRowsQ8Amx;
    return &amx;
  }();
  return table;
}

}  // namespace tzllm

#else  // No AMX-INT8 + AVX-512 at compile time.

namespace tzllm {

// Built without the tile ISA (non-x86 target, or a compiler that rejected
// the -m flags): the backend is absent and auto dispatch stays on AVX2.
const KernelDispatch* AmxInt8Kernels() { return nullptr; }

}  // namespace tzllm

#endif

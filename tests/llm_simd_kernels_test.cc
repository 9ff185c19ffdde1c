// Dispatch-resolution and kernel-table tests (ISSUE 3): the scalar table is
// selected under force_scalar / TZLLM_SIMD=off, CPUID gating never selects
// an unsupported table, the activation quantizer and the integer-dot row
// kernels (and the AMX tile slot) are bit-identical across backends, and
// the float kernels track scalar within tight bounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "src/llm/engine_options.h"
#include "src/llm/simd/kernels.h"
#include "src/llm/tensor.h"

namespace tzllm {
namespace {

// Every non-scalar table this host can actually run: NEON on aarch64; AVX2
// and, where the CPU and kernel allow tiles, AMX-INT8 on x86 (so an AMX
// host checks both). Tests that compare backends skip on scalar-only
// hosts — the CI matrix provides the TZLLM_SIMD=off leg, so both outcomes
// stay covered.
std::vector<const KernelDispatch*> HostSimdTables() {
  std::vector<const KernelDispatch*> tables;
  if (NeonKernels() != nullptr) {
    tables.push_back(NeonKernels());
  }
  if (Avx2Kernels() != nullptr && CpuSupportsAvx2F16c()) {
    tables.push_back(Avx2Kernels());
  }
  if (AmxInt8Kernels() != nullptr && CpuSupportsAmxInt8()) {
    tables.push_back(AmxInt8Kernels());
  }
  return tables;
}

// The scalar table followed by every host SIMD table.
std::vector<const KernelDispatch*> AllHostTables() {
  std::vector<const KernelDispatch*> tables = HostSimdTables();
  tables.insert(tables.begin(), ScalarKernels());
  return tables;
}

// The AMX-INT8 table when this host can run it; otherwise nullptr, with
// `why` naming the missing piece for the skip message.
const KernelDispatch* HostTileTable(std::string* why) {
  if (AmxInt8Kernels() == nullptr) {
    *why = "AMX-INT8 unavailable: the tile TU was built without "
           "-mamx-tile/-mamx-int8 (compiler rejected the flags or non-x86)";
    return nullptr;
  }
  if (!CpuSupportsAmxInt8()) {
    *why = "AMX-INT8 unavailable: the host lacks CPUID AMX-TILE/AMX-INT8/"
           "AVX512F/AVX512BW, XCR0 tile state, or the kernel refused "
           "arch_prctl(ARCH_REQ_XCOMP_PERM, XTILEDATA)";
    return nullptr;
  }
  return AmxInt8Kernels();
}

std::vector<float> RandomFloats(size_t n, uint32_t seed, float scale = 1.0f) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-scale, scale);
  std::vector<float> out(n);
  for (auto& v : out) {
    v = dist(rng);
  }
  return out;
}

// --- Resolution. ---

TEST(SimdDispatchTest, OffForcesScalarTable) {
  for (const char* v : {"off", "OFF", "scalar", "0", "none"}) {
    EXPECT_EQ(ResolveKernels(v), ScalarKernels()) << v;
    EXPECT_EQ(ResolveKernels(v)->isa, SimdIsa::kScalar) << v;
  }
}

TEST(SimdDispatchTest, AutoSelectsBestSupportedTable) {
  for (const char* v : {static_cast<const char*>(nullptr), "", "bogus"}) {
    const KernelDispatch* table = ResolveKernels(v);
    ASSERT_NE(table, nullptr);
    switch (table->isa) {
      case SimdIsa::kScalar:
        // Auto must not leave a supported SIMD table unused: scalar is only
        // correct when neither the CPUID-gated AVX2 table nor the aarch64
        // NEON table (auto-selected since the qemu-user CI leg runs it) is
        // available.
        EXPECT_FALSE(Avx2Kernels() != nullptr && CpuSupportsAvx2F16c());
        EXPECT_FALSE(AmxInt8Kernels() != nullptr && CpuSupportsAmxInt8());
        EXPECT_EQ(NeonKernels(), nullptr);
        break;
      case SimdIsa::kAvx2F16c:
        // AVX2 is only the best table when tiles are unavailable.
        EXPECT_TRUE(CpuSupportsAvx2F16c());
        EXPECT_FALSE(AmxInt8Kernels() != nullptr && CpuSupportsAmxInt8());
        break;
      case SimdIsa::kAmxInt8:
        EXPECT_EQ(table, AmxInt8Kernels());
        EXPECT_TRUE(CpuSupportsAmxInt8());
        EXPECT_TRUE(CpuSupportsAvx2F16c());
        break;
      case SimdIsa::kNeon:
        // NEON is baseline where its TU is compiled in (aarch64 only).
        EXPECT_NE(NeonKernels(), nullptr);
        break;
    }
  }
}

TEST(SimdDispatchTest, ExplicitRequestFallsBackWhenUnsupported) {
  if (Avx2Kernels() == nullptr || !CpuSupportsAvx2F16c()) {
    EXPECT_EQ(ResolveKernels("avx2"), ScalarKernels());
  } else {
    // "avx2" pins the AVX2 table with tiles off, even on an AMX host.
    EXPECT_EQ(ResolveKernels("avx2"), Avx2Kernels());
    EXPECT_EQ(ResolveKernels("avx2")->matmat_rows_q8, nullptr);
  }
  // There is no TZLLM_SIMD value for tiles: "amx" is unknown, so auto.
  EXPECT_EQ(ResolveKernels("amx"), ResolveKernels(nullptr));
  if (NeonKernels() == nullptr) {
    EXPECT_EQ(ResolveKernels("neon"), ScalarKernels());
  } else {
    EXPECT_EQ(ResolveKernels("neon"), NeonKernels());
  }
}

TEST(SimdDispatchTest, ActiveKernelsHonorsProcessEnv) {
  // ActiveKernels resolves once from the real environment; under the CI
  // TZLLM_SIMD=off leg this asserts the whole process is pinned scalar, and
  // in the auto leg that it matches pure resolution of the same env value.
  const char* env = std::getenv("TZLLM_SIMD");
  EXPECT_EQ(ActiveKernels(), ResolveKernels(env));
  if (env != nullptr && std::string(env) == "off") {
    EXPECT_EQ(ActiveKernels()->isa, SimdIsa::kScalar);
  }
}

TEST(SimdDispatchTest, ForceScalarBindsScalarTable) {
  EngineOptions forced;
  forced.force_scalar = true;
  EXPECT_EQ(KernelsFor(forced), ScalarKernels());

  EngineOptions normal;
  EXPECT_EQ(KernelsFor(normal), ActiveKernels());
}

TEST(SimdDispatchTest, IsaNamesAreStable) {
  EXPECT_STREQ(SimdIsaName(SimdIsa::kScalar), "scalar");
  EXPECT_STREQ(SimdIsaName(SimdIsa::kAvx2F16c), "avx2_f16c");
  EXPECT_STREQ(SimdIsaName(SimdIsa::kNeon), "neon");
  EXPECT_STREQ(SimdIsaName(SimdIsa::kAmxInt8), "amx_int8");
}

TEST(SimdDispatchTest, TablesAreFullyPopulated) {
  for (const KernelDispatch* t : {ScalarKernels(), Avx2Kernels(),
                                  NeonKernels(), AmxInt8Kernels()}) {
    if (t == nullptr) {
      continue;
    }
    EXPECT_NE(t->quantize_rows_q8, nullptr);
    EXPECT_NE(t->dot_rows_q8, nullptr);
    // Only a matrix-engine table has the tile slot.
    EXPECT_EQ(t->matmat_rows_q8 != nullptr, t->isa == SimdIsa::kAmxInt8)
        << SimdIsaName(t->isa);
    EXPECT_NE(t->dot_qk_f16, nullptr);
    EXPECT_NE(t->axpy_f16, nullptr);
    EXPECT_NE(t->f32_to_f16, nullptr);
    EXPECT_NE(t->f16_to_f32, nullptr);
    EXPECT_NE(t->rms_norm, nullptr);
    EXPECT_NE(t->softmax, nullptr);
  }
  // The tile table is the AVX2 table plus the tile slot.
  if (const KernelDispatch* amx = AmxInt8Kernels()) {
    const KernelDispatch* avx2 = Avx2Kernels();
    ASSERT_NE(avx2, nullptr);
    EXPECT_EQ(amx->isa, SimdIsa::kAmxInt8);
    EXPECT_EQ(amx->quantize_rows_q8, avx2->quantize_rows_q8);
    EXPECT_EQ(amx->dot_rows_q8, avx2->dot_rows_q8);
    EXPECT_EQ(amx->dot_qk_f16, avx2->dot_qk_f16);
    EXPECT_EQ(amx->softmax, avx2->softmax);
  }
}

// --- Activation quantization: bit-identical across backends. ---

// Block patterns at the quantizer's edges, all finite: zeros, signed
// zeros, one nonzero, elements at +-amax, values the block scale puts
// exactly on k + 0.5 (s = 1 and s = 2), magnitudes near 1e30, and a
// subnormal amax, whose 1 / s overflows to inf.
constexpr int kQuantEdgeKinds = 8;

void FillEdgeBlock(int kind, std::mt19937& rng, float* xb) {
  std::normal_distribution<float> gauss(0.0f, 1.0f);
  const uint64_t lone = rng() % kQ8BlockElems;
  for (uint64_t i = 0; i < kQ8BlockElems; ++i) {
    const float sign = i % 2 == 0 ? 1.0f : -1.0f;
    switch (kind) {
      case 0:
        xb[i] = 0.0f;
        break;
      case 1:
        xb[i] = sign * 0.0f;
        break;
      case 2:
        xb[i] = i == lone ? gauss(rng) : 0.0f;
        break;
      case 3:  // amax = 3.25: every third element at +-amax.
        xb[i] = i % 3 == 0 ? sign * 3.25f
                           : std::clamp(gauss(rng), -3.0f, 3.0f);
        break;
      case 4:  // s = 127 / 127 = 1: x * inv = k + 0.5 exactly.
        xb[i] = i == 0 ? 127.0f
                       : static_cast<float>(static_cast<int>(rng() % 254) -
                                            127) +
                             0.5f;
        break;
      case 5:  // s = 254 / 127 = 2: odd x, x * 0.5 = k + 0.5 exactly.
        xb[i] = i == 0 ? -254.0f
                       : static_cast<float>(
                             2 * (static_cast<int>(rng() % 254) - 127) + 1);
        break;
      case 6:
        xb[i] = gauss(rng) * 1e30f;
        break;
      default:  // amax 1e-40: inv = inf, so x * inv is +-inf or NaN.
        xb[i] = i % 4 == 0 ? sign * 1e-40f : (i % 4 == 1 ? 5e-41f : 0.0f);
        break;
    }
  }
}

// m rows of `cols` floats. Blocks, counted row-major, run through the
// edge patterns in turn, then as many gaussian blocks at a per-row scale
// from 1e-3 to 1e4, and repeat.
std::vector<float> QuantizeInputs(uint64_t m, uint64_t cols, uint32_t seed) {
  constexpr float kRowScales[] = {1.0f, 1e-3f, 37.0f, 1e4f};
  std::mt19937 rng(seed);
  std::normal_distribution<float> gauss(0.0f, 1.0f);
  std::vector<float> x(m * cols);
  const uint64_t blocks = cols / kQ8BlockElems;
  for (uint64_t p = 0; p < m; ++p) {
    for (uint64_t b = 0; b < blocks; ++b) {
      float* xb = x.data() + p * cols + b * kQ8BlockElems;
      const uint64_t pick = (p * blocks + b) % (2 * kQuantEdgeKinds);
      if (pick < kQuantEdgeKinds) {
        FillEdgeBlock(static_cast<int>(pick), rng, xb);
        continue;
      }
      for (uint64_t i = 0; i < kQ8BlockElems; ++i) {
        xb[i] = gauss(rng) * kRowScales[p % std::size(kRowScales)];
      }
    }
  }
  return x;
}

TEST(SimdQuantizeTest, ScalarOracleRoundsHalfToEven) {
  // One s = 1 block: halves round to even, 127 stays 127.
  float x[kQ8BlockElems] = {127.0f, 0.5f,  1.5f,   2.5f,  -0.5f,
                            -1.5f,  -2.5f, 126.5f, -126.5f};
  int8_t q[kQ8BlockElems];
  float s = 0.0f;
  ScalarKernels()->quantize_rows_q8(x, 1, kQ8BlockElems, q, &s);
  EXPECT_EQ(s, 1.0f);
  const int8_t want[] = {127, 0, 2, 2, 0, -2, -2, 126, -126};
  for (size_t i = 0; i < std::size(want); ++i) {
    EXPECT_EQ(q[i], want[i]) << i;
  }
  for (size_t i = std::size(want); i < kQ8BlockElems; ++i) {
    EXPECT_EQ(q[i], 0) << i;
  }
}

TEST(SimdQuantizeTest, QuantizeRowsBitIdenticalSimdVsScalar) {
  if (HostSimdTables().empty()) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
  // q byte for byte and every scale bit for bit, at every m from 1 to 17
  // and one block, d_model and d_ff wide rows. Guard bytes past both
  // outputs catch a write outside the Q8Acts layout.
  constexpr int8_t kGuardQ = 0x5A;
  constexpr float kGuardScale = -1234.5f;
  constexpr uint64_t kGuard = 64;
  for (uint64_t cols : {uint64_t{32}, uint64_t{512}, uint64_t{1408}}) {
    const uint64_t blocks = cols / kQ8BlockElems;
    for (uint64_t m = 1; m <= 17; ++m) {
      const auto x =
          QuantizeInputs(m, cols, static_cast<uint32_t>(cols * 100 + m));
      std::vector<int8_t> want_q(m * cols);
      std::vector<float> want_s(m * blocks);
      ScalarKernels()->quantize_rows_q8(x.data(), m, cols, want_q.data(),
                                        want_s.data());
      for (const KernelDispatch* simd : HostSimdTables()) {
        std::vector<int8_t> q(m * cols + kGuard, kGuardQ);
        std::vector<float> s(m * blocks + kGuard, kGuardScale);
        simd->quantize_rows_q8(x.data(), m, cols, q.data(), s.data());
        EXPECT_EQ(0, std::memcmp(q.data(), want_q.data(), want_q.size()))
            << SimdIsaName(simd->isa) << " cols " << cols << " m " << m;
        EXPECT_EQ(0, std::memcmp(s.data(), want_s.data(),
                                 want_s.size() * sizeof(float)))
            << SimdIsaName(simd->isa) << " cols " << cols << " m " << m;
        EXPECT_TRUE(std::all_of(q.begin() + want_q.size(), q.end(),
                                [](int8_t v) { return v == kGuardQ; }))
            << SimdIsaName(simd->isa) << " wrote past q";
        EXPECT_TRUE(std::all_of(s.begin() + want_s.size(), s.end(),
                                [](float v) { return v == kGuardScale; }))
            << SimdIsaName(simd->isa) << " wrote past scale";
      }
    }
  }
}

// --- Integer-dot path: bit-identical across backends. ---

// The scalar table's single-position dot of position p of `x` — the oracle
// every grouped call, on every table, must reproduce bit for bit.
float ScalarSingle(const uint8_t* row, const Q8Acts& x, uint64_t p,
                   uint64_t nblocks) {
  float out = 0.0f;
  ScalarKernels()->dot_rows_q8(row, x.q.data() + p * x.cols, x.cols,
                               x.scale.data() + p, x.m, nblocks, 1, &out);
  return out;
}

// Random Q8_0 weights: `rows` rows of `nblocks` blocks.
std::vector<uint8_t> RandomQ8Matrix(uint64_t rows, uint64_t nblocks,
                                    uint32_t seed) {
  const uint64_t n = rows * nblocks * kQ8BlockElems;
  std::vector<uint8_t> w(DTypeByteSize(DType::kQ8_0, n));
  QuantizeQ8(RandomFloats(n, seed).data(), n, w.data());
  return w;
}

// The scalar table's MatMatQ8: the oracle every table's result must equal.
std::vector<float> ScalarMatMat(const std::vector<uint8_t>& w, uint64_t rows,
                                const Q8Acts& x) {
  std::vector<float> y(x.m * rows);
  MatMatQ8(w.data(), rows, x.cols, x, y.data(), nullptr, ScalarKernels());
  return y;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class SimdKernelTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = 48;
  static constexpr uint64_t kCols = 256;  // 8 blocks per row.
  static constexpr uint64_t kBlocks = kCols / kQ8BlockElems;

  SimdKernelTest() {
    const auto wf = RandomFloats(kRows * kCols, 11);
    w_.resize(DTypeByteSize(DType::kQ8_0, kRows * kCols));
    QuantizeQ8(wf.data(), kRows * kCols, w_.data());
    acts_.Quantize(RandomFloats(kCols, 22).data(), kCols);
  }

  std::vector<uint8_t> w_;
  Q8Acts acts_;
};

TEST_F(SimdKernelTest, MatVecQ8BitIdenticalSimdVsScalar) {
  if (HostSimdTables().empty()) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
  std::vector<float> ys(kRows), yv(kRows);
  MatMatQ8(w_.data(), kRows, kCols, acts_, ys.data(), nullptr,
           ScalarKernels());
  for (const KernelDispatch* simd : HostSimdTables()) {
    MatMatQ8(w_.data(), kRows, kCols, acts_, yv.data(), nullptr, simd);
    // Bit-identical, not just close: the integer dot reduces exactly and
    // the float combine runs in the same block order on every backend.
    EXPECT_EQ(0, std::memcmp(ys.data(), yv.data(), kRows * sizeof(float)))
        << SimdIsaName(simd->isa);
  }
}

TEST_F(SimdKernelTest, MatMatQ8BitIdenticalSimdVsScalar) {
  if (HostSimdTables().empty()) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
  // Every m from 1 to 33: each dot_rows_q8 group size 1..8 as a whole
  // batch or as the tail after full groups; on a tile table every padded
  // position count (1, 2, 4, 8, 16), one and two full 16-position tiles
  // and every tail. nblocks 1..8 is every short row, 44 bench-medium's
  // d_ff = 1408, and 48, 49 and 97 rows at, just over and past twice the
  // tile's 48-block pack buffer, which re-pack the positions per row group.
  // 40 rows are two full 16-row tiles plus a tail of 8. A table with a
  // tile slot also runs it directly at every m.
  constexpr uint64_t kRows = 40;
  for (uint64_t nblocks : {1, 2, 3, 4, 5, 6, 7, 8, 44, 48, 49, 97}) {
    const uint64_t cols = nblocks * kQ8BlockElems;
    const auto w =
        RandomQ8Matrix(kRows, nblocks, 100 + static_cast<uint32_t>(nblocks));
    for (uint64_t m = 1; m <= 33; ++m) {
      Q8Acts x;
      x.QuantizeRows(
          RandomFloats(m * cols, 200 + static_cast<uint32_t>(m)).data(), m,
          cols);
      const auto want = ScalarMatMat(w, kRows, x);
      for (const KernelDispatch* simd : HostSimdTables()) {
        std::vector<float> got(m * kRows);
        MatMatQ8(w.data(), kRows, cols, x, got.data(), nullptr, simd);
        EXPECT_TRUE(SameBits(got, want)) << SimdIsaName(simd->isa)
                                         << " nblocks " << nblocks << " m "
                                         << m;
        if (simd->matmat_rows_q8 != nullptr) {
          std::vector<float> slot(m * kRows);
          simd->matmat_rows_q8(w.data(), kRows, nblocks, x.q.data(),
                               x.scale.data(), m, 0, kRows, slot.data());
          EXPECT_TRUE(SameBits(slot, want))
              << SimdIsaName(simd->isa) << " slot nblocks " << nblocks
              << " m " << m;
        }
      }
    }
  }
}

TEST_F(SimdKernelTest, DotRowsMatchesSingleScalarDotsBitIdentically) {
  // The slot's contract: out[p] is the scalar table's single-position dot
  // of position p, bit-for-bit, for every group size n on EVERY table —
  // that identity is what lets MatMatQ8 (and through it batched
  // multi-session decode) group positions purely for weight-streaming
  // bandwidth. Groups start at position 0 and end at the last position,
  // so the block-major scale reads run to the end of Q8Acts::scale.
  constexpr uint64_t kPositions = 2 * kMaxDotRows;
  Q8Acts rows;
  rows.QuantizeRows(RandomFloats(kPositions * kCols, 44).data(), kPositions,
                    kCols);
  for (const KernelDispatch* t : AllHostTables()) {
    for (int n = 1; n <= kMaxDotRows; ++n) {
      for (uint64_t p0 : {uint64_t{0}, kPositions - n}) {
        for (uint64_t r = 0; r < kRows; ++r) {
          const uint8_t* row = w_.data() + r * kBlocks * kQ8BlockBytes;
          // Sentinels past out[n - 1] catch a store of a masked lane.
          float grouped[kMaxDotRows];
          std::fill(std::begin(grouped), std::end(grouped), -1234.5f);
          t->dot_rows_q8(row, rows.q.data() + p0 * kCols, kCols,
                         rows.scale.data() + p0, kPositions, kBlocks, n,
                         grouped);
          for (int p = 0; p < n; ++p) {
            const float single = ScalarSingle(row, rows, p0 + p, kBlocks);
            EXPECT_EQ(0, std::memcmp(&grouped[p], &single, sizeof(float)))
                << SimdIsaName(t->isa) << " n " << n << " p0 " << p0
                << " row " << r << " position " << p;
          }
          for (int p = n; p < kMaxDotRows; ++p) {
            EXPECT_EQ(grouped[p], -1234.5f)
                << SimdIsaName(t->isa) << " n " << n << " wrote lane " << p;
          }
        }
      }
    }
  }
}

TEST_F(SimdKernelTest, DotRowsHandlesRaggedBlockCounts) {
  // 1..8 blocks exercises every loop-trip count, at the shortest (n = 1)
  // and widest (n = 8) group.
  if (HostSimdTables().empty()) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
  Q8Acts rows;
  rows.QuantizeRows(RandomFloats(kMaxDotRows * kCols, 45).data(), kMaxDotRows,
                    kCols);
  for (const KernelDispatch* simd : HostSimdTables()) {
    for (int n : {1, kMaxDotRows}) {
      for (uint64_t nblocks = 1; nblocks <= kBlocks; ++nblocks) {
        float a[kMaxDotRows], b[kMaxDotRows];
        ScalarKernels()->dot_rows_q8(w_.data(), rows.q.data(), kCols,
                                     rows.scale.data(), rows.m, nblocks, n,
                                     a);
        simd->dot_rows_q8(w_.data(), rows.q.data(), kCols, rows.scale.data(),
                          rows.m, nblocks, n, b);
        EXPECT_EQ(0, std::memcmp(a, b, n * sizeof(float)))
            << SimdIsaName(simd->isa) << " n=" << n
            << " nblocks=" << nblocks;
      }
    }
  }
}

TEST(SimdDotRowsEdgeTest, MinusOneTwentyEightWeightsAgainstFullScaleActs) {
  // QuantizeQ8 never emits a 0x80 (-128) weight, but a weight file could
  // hold one, and it is the sign trick's edge: |-128| only fits as u8 128.
  // Against activations of -127 every maddubs pair sum is +32512 (the
  // largest, still < 2^15), against +127 it is -32512. Every table must
  // agree with the scalar oracle bit for bit.
  constexpr uint64_t kBlocks = 4;
  constexpr uint64_t kCols = kBlocks * kQ8BlockElems;
  std::vector<uint8_t> row(kBlocks * kQ8BlockBytes);
  for (uint64_t b = 0; b < kBlocks; ++b) {
    uint8_t* blk = row.data() + b * kQ8BlockBytes;
    const uint16_t h = F32ToF16(0.01f * static_cast<float>(b + 1));
    blk[0] = static_cast<uint8_t>(h);
    blk[1] = static_cast<uint8_t>(h >> 8);
    for (uint64_t i = 0; i < kQ8BlockElems; ++i) {
      // Blocks 0 and 1 all -128; blocks 2 and 3 alternate -128 and 127.
      blk[2 + i] = (b < 2 || i % 2 == 0) ? 0x80 : 0x7F;
    }
  }
  // Position p: all -127, all +127, or alternating, by p % 3.
  Q8Acts x;
  x.cols = kCols;
  x.m = kMaxDotRows;
  x.q.resize(x.m * kCols);
  x.scale.resize(kBlocks * x.m);
  for (uint64_t p = 0; p < x.m; ++p) {
    for (uint64_t c = 0; c < kCols; ++c) {
      const int8_t v = p % 3 == 0   ? -127
                       : p % 3 == 1 ? 127
                                    : (c % 2 == 0 ? 127 : -127);
      x.q[p * kCols + c] = v;
    }
    for (uint64_t b = 0; b < kBlocks; ++b) {
      x.scale[b * x.m + p] = 0.5f + 0.125f * static_cast<float>(p);
    }
  }
  // The oracle itself: all -128 weights against all -127 activations is
  // 32 * 128 * 127 per block, exactly.
  EXPECT_EQ(ScalarSingle(row.data(), x, 0, 1),
            (F16ToF32(F32ToF16(0.01f)) * 0.5f) * 520192.0f);
  for (const KernelDispatch* t : AllHostTables()) {
    for (int n = 1; n <= kMaxDotRows; ++n) {
      float grouped[kMaxDotRows];
      t->dot_rows_q8(row.data(), x.q.data(), kCols, x.scale.data(), x.m,
                     kBlocks, n, grouped);
      for (int p = 0; p < n; ++p) {
        const float single = ScalarSingle(row.data(), x, p, kBlocks);
        EXPECT_EQ(0, std::memcmp(&grouped[p], &single, sizeof(float)))
            << SimdIsaName(t->isa) << " n " << n << " position " << p;
      }
    }
  }
}

TEST(SimdDotRowsEdgeTest, ExtremeWeightsAndZeroOrSubnormalScales) {
  // MatMatQ8 over a whole matrix on every table. 0x80 (-128) weights
  // against +-127 activations give the largest block dots,
  // +-32 * 128 * 127, which the tile table's TDPBSSD must keep exact, as
  // the AVX2 sign trick must keep its pair sums. Block scales
  // cycle through signed zeros and f16 subnormals (the f16 header convert
  // must expand them exactly), and activation scales through zero and an
  // f32 subnormal, so the float combine's products underflow the same way
  // on every table. 20 rows x 17 positions leave a tail on both tile axes.
  constexpr uint64_t kRows = 20, kBlocks = 5;
  constexpr uint64_t kCols = kBlocks * kQ8BlockElems;
  constexpr uint16_t kHeaders[] = {0x0000, 0x8000, 0x0001, 0x03FF,
                                   0x8201, 0x2E66, 0xAE66};
  std::vector<uint8_t> w(kRows * kBlocks * kQ8BlockBytes);
  std::mt19937 rng(5);
  for (uint64_t r = 0; r < kRows; ++r) {
    for (uint64_t b = 0; b < kBlocks; ++b) {
      uint8_t* blk = w.data() + (r * kBlocks + b) * kQ8BlockBytes;
      const uint16_t h = kHeaders[(r + b) % std::size(kHeaders)];
      blk[0] = static_cast<uint8_t>(h);
      blk[1] = static_cast<uint8_t>(h >> 8);
      for (uint64_t i = 0; i < kQ8BlockElems; ++i) {
        blk[2 + i] = r % 3 == 0   ? 0x80
                     : r % 3 == 1 ? (i % 2 == 0 ? 0x80 : 0x7F)
                                  : static_cast<uint8_t>(rng());
      }
    }
  }
  Q8Acts x;
  x.cols = kCols;
  x.m = 17;
  x.q.resize(x.m * kCols);
  x.scale.resize(kBlocks * x.m);
  for (uint64_t p = 0; p < x.m; ++p) {
    for (uint64_t c = 0; c < kCols; ++c) {
      x.q[p * kCols + c] = p % 3 == 0   ? -127
                           : p % 3 == 1 ? 127
                                        : (c % 2 == 0 ? 127 : -127);
    }
    for (uint64_t b = 0; b < kBlocks; ++b) {
      x.scale[b * x.m + p] = (b + p) % 4 == 0   ? 0.0f
                             : (b + p) % 4 == 1 ? 1e-40f
                                                : 0.5f + 0.125f * p;
    }
  }
  const auto want = ScalarMatMat(w, kRows, x);
  // The oracle itself: every result is the scalar single-position dot.
  for (uint64_t p = 0; p < x.m; ++p) {
    for (uint64_t r = 0; r < kRows; ++r) {
      const float single =
          ScalarSingle(w.data() + r * kBlocks * kQ8BlockBytes, x, p, kBlocks);
      EXPECT_EQ(0, std::memcmp(&want[p * kRows + r], &single, sizeof(float)))
          << "p " << p << " r " << r;
    }
  }
  for (const KernelDispatch* simd : HostSimdTables()) {
    std::vector<float> got(x.m * kRows);
    MatMatQ8(w.data(), kRows, kCols, x, got.data(), nullptr, simd);
    EXPECT_TRUE(SameBits(got, want)) << SimdIsaName(simd->isa);
  }
}

// --- The tile slot's row ranges. ---

TEST(TileKernelTest, RowRangesWriteExactlyTheirRows) {
  std::string why;
  const KernelDispatch* tile = HostTileTable(&why);
  if (tile == nullptr) {
    GTEST_SKIP() << why;
  }
  // Every matrix height 1..40, split the way ThreadPool partitions rows
  // (ceil(rows / parts) per part), so most ranges start off a multiple of
  // 16 and end in a partial row tile. Each call must write exactly its
  // rows, for every position, and match the oracle bit for bit.
  constexpr float kSentinel = -1234.5f;
  for (uint64_t rows = 1; rows <= 40; ++rows) {
    const uint64_t nblocks = 1 + rows % 8;
    const uint64_t cols = nblocks * kQ8BlockElems;
    const auto w =
        RandomQ8Matrix(rows, nblocks, 300 + static_cast<uint32_t>(rows));
    for (uint64_t m : {1, 2, 16, 17}) {
      Q8Acts x;
      x.QuantizeRows(
          RandomFloats(m * cols, 400 + static_cast<uint32_t>(rows + m)).data(),
          m, cols);
      const auto want = ScalarMatMat(w, rows, x);
      for (uint64_t parts : {1, 3, 4}) {
        const uint64_t chunk = (rows + parts - 1) / parts;
        for (uint64_t r0 = 0; r0 < rows; r0 += chunk) {
          const uint64_t r1 = std::min(rows, r0 + chunk);
          std::vector<float> y(m * rows, kSentinel);
          tile->matmat_rows_q8(w.data(), rows, nblocks, x.q.data(),
                               x.scale.data(), m, r0, r1, y.data());
          for (uint64_t p = 0; p < m; ++p) {
            for (uint64_t r = 0; r < rows; ++r) {
              const float got = y[p * rows + r];
              if (r >= r0 && r < r1) {
                EXPECT_EQ(0, std::memcmp(&got, &want[p * rows + r],
                                         sizeof(float)))
                    << "rows " << rows << " m " << m << " range [" << r0
                    << ", " << r1 << ") p " << p << " r " << r;
              } else {
                EXPECT_EQ(got, kSentinel)
                    << "rows " << rows << " m " << m << " range [" << r0
                    << ", " << r1 << ") wrote p " << p << " r " << r;
              }
            }
          }
        }
      }
    }
  }
}

// --- f16 conversions. ---

TEST(SimdConvertTest, F32ToF16BitIdenticalIncludingSubnormalFlush) {
  if (HostSimdTables().empty()) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
  for (const KernelDispatch* simd : HostSimdTables()) {
    // Normals, negatives, zeros, overflow-to-inf, and the flush boundary:
    // 2^-14 is the smallest f16 normal; everything below flushes to signed
    // zero on every backend.
    std::vector<float> src;
    for (float v : {0.0f, -0.0f, 1.0f, -1.0f, 0.333f, 65504.f, 70000.f,
                    -70000.f, 1e-07f, -1e-07f, 1e-38f, 0.4999f, 2.0f}) {
      src.push_back(v);
    }
    src.push_back(6.103515625e-05f);  // Exactly 2^-14: smallest kept normal.
    src.push_back(6.1e-05f);          // Just below: flushed.
    src.push_back(-6.1e-05f);
    auto more = RandomFloats(160, 44, 3.0f);
    src.insert(src.end(), more.begin(), more.end());
    std::vector<uint16_t> ds(src.size()), dv(src.size());
    ScalarKernels()->f32_to_f16(src.data(), ds.data(), src.size());
    simd->f32_to_f16(src.data(), dv.data(), src.size());
    for (size_t i = 0; i < src.size(); ++i) {
      EXPECT_EQ(ds[i], dv[i]) << "x=" << src[i] << " i=" << i;
      EXPECT_EQ(ds[i], F32ToF16(src[i])) << "x=" << src[i];
    }
  }
}

TEST(SimdConvertTest, F16ToF32ExhaustiveOverNonNanHalves) {
  if (HostSimdTables().empty()) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
  for (const KernelDispatch* simd : HostSimdTables()) {
    std::vector<uint16_t> halves;
    halves.reserve(1 << 16);
    for (uint32_t h = 0; h < (1u << 16); ++h) {
      const bool is_nan = ((h >> 10) & 0x1F) == 0x1F && (h & 0x3FF) != 0;
      if (!is_nan) {
        halves.push_back(static_cast<uint16_t>(h));
      }
    }
    std::vector<float> fs(halves.size()), fv(halves.size());
    ScalarKernels()->f16_to_f32(halves.data(), fs.data(), halves.size());
    simd->f16_to_f32(halves.data(), fv.data(), halves.size());
    for (size_t i = 0; i < halves.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(&fs[i], &fv[i], sizeof(float)))
          << "half=0x" << std::hex << halves[i];
    }
  }
}

// --- Float attention kernels: tolerance parity against a double-precision
// reference (the lane split reorders accumulation, so not bitwise). ---

TEST(SimdAttentionKernelTest, DotQkTracksDoubleReference) {
  const auto q = RandomFloats(128, 55);
  const auto kf = RandomFloats(128, 66);
  std::vector<uint16_t> kh(kf.size());
  for (size_t i = 0; i < kf.size(); ++i) {
    kh[i] = F32ToF16(kf[i]);
  }
  for (int n : {4, 8, 16, 64, 100, 128}) {
    double want16 = 0.0;
    for (int i = 0; i < n; ++i) {
      want16 += static_cast<double>(q[i]) * F16ToF32(kh[i]);
    }
    for (const KernelDispatch* t : AllHostTables()) {
      EXPECT_NEAR(t->dot_qk_f16(q.data(), kh.data(), n), want16, 1e-3)
          << SimdIsaName(t->isa) << " n=" << n;
    }
  }
}

TEST(SimdAttentionKernelTest, AxpyTracksScalar) {
  if (HostSimdTables().empty()) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
  for (const KernelDispatch* simd : HostSimdTables()) {
    const auto vf = RandomFloats(96, 77);
    std::vector<uint16_t> vh(vf.size());
    for (size_t i = 0; i < vf.size(); ++i) {
      vh[i] = F32ToF16(vf[i]);
    }
    for (int n : {4, 8, 60, 96}) {
      std::vector<float> a(n, 0.25f), b(n, 0.25f);
      ScalarKernels()->axpy_f16(0.7f, vh.data(), a.data(), n);
      simd->axpy_f16(0.7f, vh.data(), b.data(), n);
      for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(a[i], b[i], 1e-6f) << "f16 n=" << n << " i=" << i;
      }
    }
  }
}

// --- Reductions. ---

TEST(SimdReductionTest, RmsNormTracksScalar) {
  if (HostSimdTables().empty()) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
  for (const KernelDispatch* simd : HostSimdTables()) {
    for (int n : {8, 32, 100, 256}) {
      const auto x = RandomFloats(n, 88);
      const auto gain = RandomFloats(n, 99);
      std::vector<float> a(n), b(n);
      ScalarKernels()->rms_norm(x.data(), gain.data(), a.data(), n);
      simd->rms_norm(x.data(), gain.data(), b.data(), n);
      for (int i = 0; i < n; ++i) {
        // The double sum-of-squares only reorders across lanes; the result
        // differs by at most one float ulp of rounding in inv.
        EXPECT_NEAR(a[i], b[i], 1e-6f + 1e-6f * std::fabs(a[i]))
            << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdReductionTest, SoftmaxBitIdenticalToScalar) {
  if (HostSimdTables().empty()) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
  for (const KernelDispatch* simd : HostSimdTables()) {
    for (int n : {1, 3, 8, 17, 64, 200}) {
      auto a = RandomFloats(n, 111, 4.0f);
      auto b = a;
      ScalarKernels()->softmax(a.data(), n);
      simd->softmax(b.data(), n);
      // Max is order-independent, exp/sum stay serial, the scale is
      // elementwise: bit-identical by construction.
      EXPECT_EQ(0, std::memcmp(a.data(), b.data(), n * sizeof(float)))
          << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace tzllm

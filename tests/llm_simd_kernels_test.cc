// Dispatch-resolution and kernel-table tests (ISSUE 3): the scalar table is
// selected under force_scalar / TZLLM_SIMD=off, CPUID gating never selects
// an unsupported table, the integer-dot row kernels are bit-identical
// across backends, and the float kernels track scalar within tight bounds.

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

// The non-scalar table this host can actually run, or nullptr. Tests that
// compare backends skip (trivially pass) on scalar-only hosts — the CI
// matrix provides the TZLLM_SIMD=off leg, so both outcomes stay covered.
const KernelDispatch* HostSimdTable() {
  if (NeonKernels() != nullptr) {
    return NeonKernels();
  }
  if (Avx2Kernels() != nullptr && CpuSupportsAvx2F16c()) {
    return Avx2Kernels();
  }
  return nullptr;
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
        EXPECT_EQ(NeonKernels(), nullptr);
        break;
      case SimdIsa::kAvx2F16c:
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
    EXPECT_EQ(ResolveKernels("avx2"), Avx2Kernels());
  }
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

  EngineOptions reference;
  reference.use_reference_kernels = true;
  EXPECT_EQ(KernelsFor(reference), ScalarKernels());

  EngineOptions normal;
  EXPECT_EQ(KernelsFor(normal), ActiveKernels());
}

TEST(SimdDispatchTest, IsaNamesAreStable) {
  EXPECT_STREQ(SimdIsaName(SimdIsa::kScalar), "scalar");
  EXPECT_STREQ(SimdIsaName(SimdIsa::kAvx2F16c), "avx2_f16c");
  EXPECT_STREQ(SimdIsaName(SimdIsa::kNeon), "neon");
}

TEST(SimdDispatchTest, TablesAreFullyPopulated) {
  for (const KernelDispatch* t : {ScalarKernels(), Avx2Kernels(),
                                  NeonKernels()}) {
    if (t == nullptr) {
      continue;
    }
    EXPECT_NE(t->dot_rows_q8, nullptr);
    EXPECT_NE(t->dot_qk_f16, nullptr);
    EXPECT_NE(t->dot_qk_f32, nullptr);
    EXPECT_NE(t->axpy_f16, nullptr);
    EXPECT_NE(t->axpy_f32, nullptr);
    EXPECT_NE(t->f32_to_f16, nullptr);
    EXPECT_NE(t->f16_to_f32, nullptr);
    EXPECT_NE(t->rms_norm, nullptr);
    EXPECT_NE(t->softmax, nullptr);
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
  const KernelDispatch* simd = HostSimdTable();
  if (simd == nullptr) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
  std::vector<float> ys(kRows), yv(kRows);
  MatMatQ8(w_.data(), kRows, kCols, acts_, ys.data(), nullptr,
           ScalarKernels());
  MatMatQ8(w_.data(), kRows, kCols, acts_, yv.data(), nullptr, simd);
  // Bit-identical, not just close: the integer dot reduces exactly and the
  // float combine runs in the same block order on every backend.
  EXPECT_EQ(0, std::memcmp(ys.data(), yv.data(), kRows * sizeof(float)));
}

TEST_F(SimdKernelTest, MatMatQ8BitIdenticalSimdVsScalar) {
  const KernelDispatch* simd = HostSimdTable();
  if (simd == nullptr) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
  // Every m from 1 to 17: each group size 1..8 as a whole batch or as the
  // tail after one or two full groups.
  for (uint64_t m = 1; m <= 17; ++m) {
    const auto x = RandomFloats(m * kCols, 33 + static_cast<uint32_t>(m));
    Q8Acts rows;
    rows.QuantizeRows(x.data(), m, kCols);
    std::vector<float> ys(m * kRows), yv(m * kRows);
    MatMatQ8(w_.data(), kRows, kCols, rows, ys.data(), nullptr,
             ScalarKernels());
    MatMatQ8(w_.data(), kRows, kCols, rows, yv.data(), nullptr, simd);
    EXPECT_EQ(0, std::memcmp(ys.data(), yv.data(), ys.size() * sizeof(float)))
        << "m=" << m;
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
  for (const KernelDispatch* t : {ScalarKernels(), HostSimdTable()}) {
    if (t == nullptr) {
      continue;
    }
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
  const KernelDispatch* simd = HostSimdTable();
  if (simd == nullptr) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
  Q8Acts rows;
  rows.QuantizeRows(RandomFloats(kMaxDotRows * kCols, 45).data(), kMaxDotRows,
                    kCols);
  for (int n : {1, kMaxDotRows}) {
    for (uint64_t nblocks = 1; nblocks <= kBlocks; ++nblocks) {
      float a[kMaxDotRows], b[kMaxDotRows];
      ScalarKernels()->dot_rows_q8(w_.data(), rows.q.data(), kCols,
                                   rows.scale.data(), rows.m, nblocks, n, a);
      simd->dot_rows_q8(w_.data(), rows.q.data(), kCols, rows.scale.data(),
                        rows.m, nblocks, n, b);
      EXPECT_EQ(0, std::memcmp(a, b, n * sizeof(float)))
          << "n=" << n << " nblocks=" << nblocks;
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
  for (const KernelDispatch* t : {ScalarKernels(), HostSimdTable()}) {
    if (t == nullptr) {
      continue;
    }
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

// --- f16 conversions. ---

TEST(SimdConvertTest, F32ToF16BitIdenticalIncludingSubnormalFlush) {
  const KernelDispatch* simd = HostSimdTable();
  if (simd == nullptr) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
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

TEST(SimdConvertTest, F16ToF32ExhaustiveOverNonNanHalves) {
  const KernelDispatch* simd = HostSimdTable();
  if (simd == nullptr) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
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
    double want16 = 0.0, want32 = 0.0;
    for (int i = 0; i < n; ++i) {
      want16 += static_cast<double>(q[i]) * F16ToF32(kh[i]);
      want32 += static_cast<double>(q[i]) * kf[i];
    }
    for (const KernelDispatch* t : {ScalarKernels(), HostSimdTable()}) {
      if (t == nullptr) {
        continue;
      }
      EXPECT_NEAR(t->dot_qk_f16(q.data(), kh.data(), n), want16, 1e-3)
          << SimdIsaName(t->isa) << " n=" << n;
      EXPECT_NEAR(t->dot_qk_f32(q.data(), kf.data(), n), want32, 1e-3)
          << SimdIsaName(t->isa) << " n=" << n;
    }
  }
}

TEST(SimdAttentionKernelTest, AxpyTracksScalar) {
  const KernelDispatch* simd = HostSimdTable();
  if (simd == nullptr) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
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
    std::vector<float> c(n, -0.5f), d(n, -0.5f);
    ScalarKernels()->axpy_f32(-1.3f, vf.data(), c.data(), n);
    simd->axpy_f32(-1.3f, vf.data(), d.data(), n);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(c[i], d[i], 1e-6f) << "f32 n=" << n << " i=" << i;
    }
  }
}

// --- Reductions. ---

TEST(SimdReductionTest, RmsNormTracksScalar) {
  const KernelDispatch* simd = HostSimdTable();
  if (simd == nullptr) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
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

TEST(SimdReductionTest, SoftmaxBitIdenticalToScalar) {
  const KernelDispatch* simd = HostSimdTable();
  if (simd == nullptr) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
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

}  // namespace
}  // namespace tzllm

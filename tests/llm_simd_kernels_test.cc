// Dispatch-resolution and kernel-table tests (ISSUE 3): the scalar table is
// selected under force_scalar / TZLLM_SIMD=off, CPUID gating never selects
// an unsupported table, the integer-dot row kernels are bit-identical
// across backends, and the float kernels track scalar within tight bounds.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
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
    EXPECT_NE(t->dot_row_q8, nullptr);
    EXPECT_NE(t->dot_rows4_q8, nullptr);
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

class SimdKernelTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = 48;
  static constexpr uint64_t kCols = 256;  // 8 blocks per row.

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
  MatVecQ8Pre(w_.data(), kRows, kCols, acts_, ys.data(), nullptr,
              ScalarKernels());
  MatVecQ8Pre(w_.data(), kRows, kCols, acts_, yv.data(), nullptr, simd);
  // Bit-identical, not just close: the integer dot reduces exactly and the
  // float combine runs in the same block order on every backend.
  EXPECT_EQ(0, std::memcmp(ys.data(), yv.data(), kRows * sizeof(float)));
}

TEST_F(SimdKernelTest, MatMatQ8BitIdenticalSimdVsScalar) {
  const KernelDispatch* simd = HostSimdTable();
  if (simd == nullptr) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
  constexpr uint64_t kPositions = 5;
  Q8Acts rows;
  rows.QuantizeRows(RandomFloats(kPositions * kCols, 33).data(), kPositions,
                    kCols);
  std::vector<float> ys(kPositions * kRows), yv(kPositions * kRows);
  MatMatQ8(w_.data(), kRows, kCols, rows, ys.data(), nullptr,
           ScalarKernels());
  MatMatQ8(w_.data(), kRows, kCols, rows, yv.data(), nullptr, simd);
  EXPECT_EQ(0, std::memcmp(ys.data(), yv.data(), ys.size() * sizeof(float)));
}

TEST_F(SimdKernelTest, DotRows4MatchesFourSingleRowDotsBitIdentically) {
  // The grouped kernel's contract: out4[p] is the single-row dot of
  // position p, bit-for-bit, on EVERY backend — that identity is what lets
  // MatMatQ8 (and through it batched multi-session decode) group positions
  // purely for weight-streaming bandwidth.
  constexpr uint64_t kPositions = 4;
  const uint64_t blocks = kCols / kQ8BlockElems;
  Q8Acts rows;
  rows.QuantizeRows(RandomFloats(kPositions * kCols, 44).data(), kPositions,
                    kCols);
  // Transposed [block][position] scales, as MatMatQ8 hands them over.
  std::vector<float> xs_t(blocks * kPositions);
  for (uint64_t p = 0; p < kPositions; ++p) {
    for (uint64_t b = 0; b < blocks; ++b) {
      xs_t[b * kPositions + p] = rows.scale[p * blocks + b];
    }
  }
  for (const KernelDispatch* t : {ScalarKernels(), HostSimdTable()}) {
    if (t == nullptr) {
      continue;
    }
    for (uint64_t r = 0; r < kRows; ++r) {
      const uint8_t* row = w_.data() + r * blocks * kQ8BlockBytes;
      float grouped[4];
      t->dot_rows4_q8(row, rows.q.data(), kCols, xs_t.data(), kPositions,
                      blocks, grouped);
      for (uint64_t p = 0; p < kPositions; ++p) {
        const float single =
            t->dot_row_q8(row, rows.q.data() + p * kCols,
                          rows.scale.data() + p * blocks, blocks);
        EXPECT_EQ(0, std::memcmp(&grouped[p], &single, sizeof(float)))
            << SimdIsaName(t->isa) << " row " << r << " position " << p;
      }
    }
  }
}

TEST_F(SimdKernelTest, DotRowHandlesRaggedBlockCounts) {
  // 1..8 blocks exercises every vector-tail combination of the row kernel.
  const KernelDispatch* simd = HostSimdTable();
  if (simd == nullptr) {
    GTEST_SKIP() << "host has no SIMD backend; scalar-only";
  }
  for (uint64_t nblocks = 1; nblocks <= 8; ++nblocks) {
    const float a = ScalarKernels()->dot_row_q8(w_.data(), acts_.q.data(),
                                                acts_.scale.data(), nblocks);
    const float b = simd->dot_row_q8(w_.data(), acts_.q.data(),
                                     acts_.scale.data(), nblocks);
    EXPECT_EQ(a, b) << "nblocks=" << nblocks;
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

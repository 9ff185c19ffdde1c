#include "src/llm/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/llm/simd/kernels.h"

// Heap allocations made by the current thread, counted by replacing the
// whole global operator new/delete family: every form allocates with
// malloc (or aligned_alloc) and frees with free, so a sanitizer still sees
// each allocation paired with its matching release.
namespace {
thread_local uint64_t t_heap_allocs = 0;

void* CountedAlloc(std::size_t size) {
  ++t_heap_allocs;
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++t_heap_allocs;
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a nonzero multiple of the alignment.
  return std::aligned_alloc(a, size == 0 ? a : (size + a - 1) / a * a);
}

void* OrThrow(void* p) {
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

// Out of line so gcc's -Wmismatched-new-delete, which sees an inlined
// operator new behind a container's pointer, cannot pair it with free().
[[gnu::noinline]] void CountedFree(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new[](std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace tzllm {
namespace {

TEST(F16Test, KnownValues) {
  EXPECT_EQ(F32ToF16(0.0f), 0u);
  EXPECT_EQ(F32ToF16(1.0f), 0x3C00u);
  EXPECT_EQ(F32ToF16(-2.0f), 0xC000u);
  EXPECT_FLOAT_EQ(F16ToF32(0x3C00), 1.0f);
  EXPECT_FLOAT_EQ(F16ToF32(0x4000), 2.0f);
  EXPECT_FLOAT_EQ(F16ToF32(0xC000), -2.0f);
}

TEST(F16Test, RoundTripSmallValues) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>(rng.NextDoubleIn(-8.0, 8.0));
    const float rt = F16ToF32(F32ToF16(v));
    EXPECT_NEAR(rt, v, std::fabs(v) * 0.001 + 1e-3);
  }
}

TEST(F16Test, OverflowToInfinity) {
  EXPECT_EQ(F32ToF16(1.0e6f), 0x7C00u);
  EXPECT_TRUE(std::isinf(F16ToF32(0x7C00)));
}

TEST(F16Test, FastExpandMatchesReferenceForAllFiniteHalves) {
  // The attention hot path expands the f16 KV arena with the branchless
  // magic-multiply converter; it must agree bit-for-bit with the reference
  // converter on every finite half, including zeros and subnormals. (f16
  // inf/NaN are excluded by contract: KV entries are finite.)
  for (uint32_t h = 0; h < 65536; ++h) {
    const uint16_t half = static_cast<uint16_t>(h);
    if ((half & 0x7C00) == 0x7C00) {
      continue;  // Exponent all-ones: inf/NaN, outside the fast domain.
    }
    const float ref = F16ToF32(half);
    const float fast = F16ToF32Fast(half);
    EXPECT_EQ(ref, fast) << "half=0x" << std::hex << h;
    // Signed zero keeps its sign bit too.
    if (ref == 0.0f) {
      EXPECT_EQ(std::signbit(ref), std::signbit(fast)) << "half=0x" << std::hex
                                                       << h;
    }
  }
}

TEST(DTypeTest, ByteSizes) {
  EXPECT_EQ(DTypeByteSize(DType::kF32, 10), 40u);
  EXPECT_EQ(DTypeByteSize(DType::kF16, 10), 20u);
  EXPECT_EQ(DTypeByteSize(DType::kQ8_0, 32), 34u);
  EXPECT_EQ(DTypeByteSize(DType::kQ8_0, 64), 68u);
  EXPECT_EQ(DTypeByteSize(DType::kQ8_0, 33), 68u);  // Rounds to blocks.
}

class Q8RoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Q8RoundTripTest, QuantizeDequantizeWithinScale) {
  const uint64_t n = GetParam();
  Rng rng(n);
  std::vector<float> src(n);
  for (auto& v : src) {
    v = static_cast<float>(rng.NextGaussian(0.0, 0.5));
  }
  std::vector<uint8_t> q(DTypeByteSize(DType::kQ8_0, n));
  std::vector<float> back(n);
  QuantizeQ8(src.data(), n, q.data());
  DequantizeQ8(q.data(), n, back.data());
  // Per-block max error is scale/2 = amax/254.
  for (uint64_t b = 0; b * kQ8BlockElems < n; ++b) {
    float amax = 0.0f;
    const uint64_t lo = b * kQ8BlockElems;
    const uint64_t hi = std::min(n, lo + kQ8BlockElems);
    for (uint64_t i = lo; i < hi; ++i) {
      amax = std::max(amax, std::fabs(src[i]));
    }
    for (uint64_t i = lo; i < hi; ++i) {
      EXPECT_NEAR(back[i], src[i], amax / 100.0f + 1e-5f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, Q8RoundTripTest,
                         ::testing::Values(32, 64, 320, 1024, 4096));

TEST(Q8Test, ZeroBlockStaysZero) {
  std::vector<float> zeros(32, 0.0f);
  std::vector<uint8_t> q(kQ8BlockBytes);
  std::vector<float> back(32, 1.0f);
  QuantizeQ8(zeros.data(), 32, q.data());
  DequantizeQ8(q.data(), 32, back.data());
  for (float v : back) {
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(MatVecQ8Test, MatchesDequantizedReference) {
  const uint64_t rows = 8, cols = 64;
  Tensor w = MakeRandomTensor("w", DType::kQ8_0, rows, cols, 5);
  std::vector<float> deq(rows * cols);
  DequantizeQ8(w.data.data(), rows * cols, deq.data());

  Rng rng(6);
  std::vector<float> x(cols);
  float amax = 0.0f;
  for (auto& v : x) {
    v = static_cast<float>(rng.NextDoubleIn(-1.0, 1.0));
    amax = std::max(amax, std::fabs(v));
  }
  std::vector<float> y(rows, 0.0f), expected(rows, 0.0f);
  MatVecQ8(w.data.data(), rows, cols, x.data(), y.data());
  for (uint64_t r = 0; r < rows; ++r) {
    for (uint64_t c = 0; c < cols; ++c) {
      expected[r] += deq[r * cols + c] * x[c];
    }
  }
  for (uint64_t r = 0; r < rows; ++r) {
    // The kernel quantizes activations to Q8 (per-element error at most
    // half the block scale, amax/254), so the worst-case row error is
    // sum_c |W[r,c]| * amax/254.
    float werr = 0.0f;
    for (uint64_t c = 0; c < cols; ++c) {
      werr += std::fabs(deq[r * cols + c]);
    }
    EXPECT_NEAR(y[r], expected[r], werr * amax / 254.0f + 1e-3f);
  }
}

TEST(MatVecQ8Test, OverwritesDestination) {
  const uint64_t rows = 8, cols = 64;
  Tensor w = MakeRandomTensor("w", DType::kQ8_0, rows, cols, 5);
  std::vector<float> x(cols, 0.25f);
  std::vector<float> a(rows, 0.0f), b(rows, 1234.5f);
  MatVecQ8(w.data.data(), rows, cols, x.data(), a.data());
  MatVecQ8(w.data.data(), rows, cols, x.data(), b.data());
  EXPECT_EQ(a, b);  // Prior contents of y must not leak into the result.
}

TEST(MatVecQ8Test, QuantizedPathTracksFloatMatVec) {
  const uint64_t rows = 16, cols = 128;
  Tensor w = MakeRandomTensor("w", DType::kQ8_0, rows, cols, 11);
  Rng rng(12);
  std::vector<float> x(cols);
  float amax = 0.0f;
  for (auto& v : x) {
    v = static_cast<float>(rng.NextGaussian(0.0, 0.5));
    amax = std::max(amax, std::fabs(v));
  }
  std::vector<float> fast(rows), ref(rows, 0.0f);
  MatVecQ8(w.data.data(), rows, cols, x.data(), fast.data());
  // A float matvec over the same dequantized weights: the only divergence
  // is activation quantization (per-element error <= amax/254) plus float
  // rounding. The analytic per-row bound keeps this tight enough to catch a
  // broken activation scale, which the looser engine-level checks could
  // absorb.
  std::vector<float> deq(rows * cols);
  DequantizeQ8(w.data.data(), rows * cols, deq.data());
  for (uint64_t r = 0; r < rows; ++r) {
    float werr = 0.0f;
    for (uint64_t c = 0; c < cols; ++c) {
      ref[r] += deq[r * cols + c] * x[c];
      werr += std::fabs(deq[r * cols + c]);
    }
    EXPECT_NEAR(fast[r], ref[r], werr * amax / 254.0f + 1e-4f) << r;
  }
}

TEST(MatMatQ8Test, MatchesPerPositionMatVec) {
  // 17 positions: two full groups of kMaxDotRows and a tail of one.
  const uint64_t rows = 24, cols = 96, m = 17;
  Tensor w = MakeRandomTensor("w", DType::kQ8_0, rows, cols, 21);
  Rng rng(22);
  std::vector<float> x(m * cols);
  for (auto& v : x) {
    v = static_cast<float>(rng.NextGaussian(0.0, 0.7));
  }
  Q8Acts acts;
  acts.QuantizeRows(x.data(), m, cols);
  std::vector<float> batched(m * rows);
  MatMatQ8(w.data.data(), rows, cols, acts, batched.data());

  Q8Acts one;
  for (uint64_t p = 0; p < m; ++p) {
    one.Quantize(x.data() + p * cols, cols);
    std::vector<float> y(rows);
    MatMatQ8(w.data.data(), rows, cols, one, y.data());
    for (uint64_t r = 0; r < rows; ++r) {
      // Bit-identical: same per-(row, position) summation order.
      EXPECT_EQ(batched[p * rows + r], y[r]) << "p=" << p << " r=" << r;
    }
  }
}

TEST(MatVecQ8Test, ThreadedMatchesSingleThread) {
  // Large enough to clear the kernel's parallel-dispatch threshold. Runs on
  // the process's table and, where the host can run tiles, explicitly on
  // the AMX-INT8 table too (whose workers then all execute tile code).
  const uint64_t rows = 512, cols = 512;
  Tensor w = MakeRandomTensor("w", DType::kQ8_0, rows, cols, 31);
  std::vector<const KernelDispatch*> tables = {ActiveKernels()};
  if (AmxInt8Kernels() != nullptr && CpuSupportsAmxInt8() &&
      ActiveKernels() != AmxInt8Kernels()) {
    tables.push_back(AmxInt8Kernels());
  }
  ThreadPool pool(4);
  for (const KernelDispatch* k : tables) {
    Rng rng(32);
    std::vector<float> x(cols);
    for (auto& v : x) {
      v = static_cast<float>(rng.NextGaussian(0.0, 0.5));
    }
    std::vector<float> serial(rows), threaded(rows);
    MatVecQ8(w.data.data(), rows, cols, x.data(), serial.data(), nullptr, k);
    MatVecQ8(w.data.data(), rows, cols, x.data(), threaded.data(), &pool, k);
    // Rows are independent: bit-identical.
    EXPECT_EQ(serial, threaded) << SimdIsaName(k->isa);

    Q8Acts acts;
    acts.QuantizeRows(x.data(), 1, cols);
    std::vector<float> batched(rows);
    MatMatQ8(w.data.data(), rows, cols, acts, batched.data(), &pool, k);
    EXPECT_EQ(serial, batched) << SimdIsaName(k->isa);

    // Batched: the pool partitions rows, each worker runs every group of
    // positions (or the tile slot) over its rows, so threading never
    // changes a float.
    for (uint64_t m = 2; m <= 17; ++m) {
      std::vector<float> xm(m * cols);
      for (auto& v : xm) {
        v = static_cast<float>(rng.NextGaussian(0.0, 0.5));
      }
      acts.QuantizeRows(xm.data(), m, cols);
      std::vector<float> one_thread(m * rows), four_threads(m * rows);
      MatMatQ8(w.data.data(), rows, cols, acts, one_thread.data(), nullptr,
               k);
      MatMatQ8(w.data.data(), rows, cols, acts, four_threads.data(), &pool,
               k);
      EXPECT_EQ(one_thread, four_threads)
          << SimdIsaName(k->isa) << " m=" << m;
    }
  }
}

TEST(MatMatQ8Test, MakesNoHeapAllocation) {
  // The allocation counter must see this binary's allocations at all.
  {
    const uint64_t before = t_heap_allocs;
    int* volatile probe = new int(1);
    delete probe;
    ASSERT_EQ(t_heap_allocs, before + 1);
  }
  const uint64_t rows = 40, cols = 128;
  Tensor w = MakeRandomTensor("w", DType::kQ8_0, rows, cols, 41);
  Rng rng(42);
  std::vector<Q8Acts> acts(17);
  std::vector<std::vector<float>> xs(17), ys(17);
  for (uint64_t m = 1; m <= 17; ++m) {
    xs[m - 1].resize(m * cols);
    for (auto& v : xs[m - 1]) {
      v = static_cast<float>(rng.NextGaussian(0.0, 0.5));
    }
    acts[m - 1].QuantizeRows(xs[m - 1].data(), m, cols);
    ys[m - 1].resize(m * rows);
  }
  (void)ActiveKernels();  // Resolved once per process; not MatMatQ8's cost.
  for (uint64_t m = 1; m <= 17; ++m) {
    // Requantizing into an already-sized Q8Acts only overwrites it.
    uint64_t before = t_heap_allocs;
    acts[m - 1].QuantizeRows(xs[m - 1].data(), m, cols);
    EXPECT_EQ(t_heap_allocs, before) << "QuantizeRows m=" << m;
    before = t_heap_allocs;
    MatMatQ8(w.data.data(), rows, cols, acts[m - 1], ys[m - 1].data());
    EXPECT_EQ(t_heap_allocs, before) << "m=" << m;
  }

  // Pooled: 400 x 128 clears the parallel-dispatch threshold at every m,
  // so each call forks and joins; the pool borrows the body instead of
  // wrapping it in a std::function. The 100-row parts start off multiples
  // of 16, the tile slot's ragged case. The counter sees the calling
  // thread, which builds and publishes the fork/join task.
  const uint64_t pool_rows = 400;
  Tensor pw = MakeRandomTensor("pw", DType::kQ8_0, pool_rows, cols, 43);
  std::vector<std::vector<float>> pys(17);
  for (uint64_t m = 1; m <= 17; ++m) {
    pys[m - 1].resize(m * pool_rows);
  }
  ThreadPool pool(4);
  for (uint64_t m = 1; m <= 17; ++m) {
    const uint64_t before = t_heap_allocs;
    MatMatQ8(pw.data.data(), pool_rows, cols, acts[m - 1], pys[m - 1].data(),
             &pool);
    EXPECT_EQ(t_heap_allocs, before) << "pooled m=" << m;
  }
}

TEST(TensorTest, RandomTensorDeterministicBySeedAndName) {
  Tensor a = MakeRandomTensor("w", DType::kQ8_0, 4, 32, 7);
  Tensor b = MakeRandomTensor("w", DType::kQ8_0, 4, 32, 7);
  Tensor c = MakeRandomTensor("w", DType::kQ8_0, 4, 32, 8);
  Tensor d = MakeRandomTensor("v", DType::kQ8_0, 4, 32, 7);
  EXPECT_EQ(a.data, b.data);
  EXPECT_NE(a.data, c.data);
  EXPECT_NE(a.data, d.data);
  EXPECT_EQ(a.ByteSize(), a.data.size());
}

}  // namespace
}  // namespace tzllm

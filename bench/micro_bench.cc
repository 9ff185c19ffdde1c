// Microbenchmarks (google-benchmark): wall-clock cost of the real
// primitives the reproduction executes functionally — crypto, quantized
// kernels, CMA state machine, buddy allocator, pipeline executor, tokenizer.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/pipeline.h"
#include "src/crypto/aes.h"
#include "src/crypto/crypto_dispatch.h"
#include "src/crypto/sha256.h"
#include "src/hw/phys_mem.h"
#include "src/llm/simd/kernels.h"
#include "src/llm/tensor.h"
#include "src/llm/tokenizer.h"
#include "src/ree/buddy.h"
#include "src/ree/cma.h"

namespace tzllm {
namespace {

// The three crypto slots restoration runs every weight byte through,
// each over one 256 KiB params frame: the stage ceilings of the restore
// pipeline. Arg row: 0 = the portable row, 1 = the x86 row (skipped when
// this build or CPU has none).
constexpr size_t kRestoreFrame = 256 * 1024;

const CryptoDispatch* BenchRow(benchmark::State& state) {
  const CryptoDispatch* row =
      state.range(0) == 0 ? PortableCrypto() : X86Crypto();
  if (row == nullptr) {
    state.SkipWithError("no x86 crypto row in this build or on this CPU");
  }
  return row;
}

void BM_AesCtr(benchmark::State& state) {
  const CryptoDispatch* row = BenchRow(state);
  if (row == nullptr) {
    return;
  }
  AesKey128 key{};
  key[0] = 1;
  AesCtr ctr(key, AesBlock{}, row);
  std::vector<uint8_t> buf(kRestoreFrame);
  Rng(1).FillBytes(buf.data(), buf.size());
  for (auto _ : state) {
    ctr.CryptAll(buf.data(), buf.size());
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(row->aes_impl);
  state.SetBytesProcessed(state.iterations() * kRestoreFrame);
}
BENCHMARK(BM_AesCtr)->ArgName("row")->Arg(0)->Arg(1);

void BM_Sha256(benchmark::State& state) {
  const CryptoDispatch* row = BenchRow(state);
  if (row == nullptr) {
    return;
  }
  std::vector<uint8_t> buf(kRestoreFrame);
  Rng(2).FillBytes(buf.data(), buf.size());
  for (auto _ : state) {
    Sha256 h(row);
    h.Update(buf.data(), buf.size());
    benchmark::DoNotOptimize(h.Finalize());
  }
  state.SetLabel(row->sha_impl);
  state.SetBytesProcessed(state.iterations() * kRestoreFrame);
}
BENCHMARK(BM_Sha256)->ArgName("row")->Arg(0)->Arg(1);

// The GHASH slot alone; a tensor's Gmac adds two AES blocks and the
// key setup once per tensor.
void BM_Ghash(benchmark::State& state) {
  const CryptoDispatch* row = BenchRow(state);
  if (row == nullptr) {
    return;
  }
  std::vector<uint8_t> buf(kRestoreFrame);
  Rng(3).FillBytes(buf.data(), buf.size());
  uint8_t h[16];
  Rng(4).FillBytes(h, sizeof(h));
  GhashKey key;
  row->ghash_init(h, &key);
  uint8_t y[16] = {};
  for (auto _ : state) {
    row->ghash(key, y, buf.data(), kRestoreFrame / 16);
    benchmark::DoNotOptimize(y);
    benchmark::ClobberMemory();
  }
  state.SetLabel(row->ghash_impl);
  state.SetBytesProcessed(state.iterations() * kRestoreFrame);
}
BENCHMARK(BM_Ghash)->ArgName("row")->Arg(0)->Arg(1);

void BM_QuantizeQ8(benchmark::State& state) {
  const uint64_t n = state.range(0);
  std::vector<float> src(n, 0.5f);
  std::vector<uint8_t> dst(DTypeByteSize(DType::kQ8_0, n));
  for (auto _ : state) {
    QuantizeQ8(src.data(), n, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * n * 4);
}
BENCHMARK(BM_QuantizeQ8)->Arg(4096)->Arg(65536);

// The quantizer's tables: row 0 = scalar, row 1 = the host's SIMD table
// (AVX2 on x86, whose slot the AMX table shares; NEON on aarch64),
// skipped when this build or CPU has none.
const KernelDispatch* QuantizeTable(benchmark::State& state) {
  if (state.range(0) == 0) {
    return ScalarKernels();
  }
  const KernelDispatch* simd = Avx2Kernels() != nullptr && CpuSupportsAvx2F16c()
                                   ? Avx2Kernels()
                                   : NeonKernels();
  if (simd == nullptr) {
    state.SkipWithError("no SIMD kernel table in this build or on this CPU");
  }
  return simd;
}

void BM_QuantizeRows(benchmark::State& state) {
  // m rows of gaussian activations into a sized Q8Acts, as the executor
  // requantizes every norm, attention and SwiGLU output: m = 1 a decode
  // step, 8 a batch, 16 a prefill quantum; cols bench-medium's d_model
  // and d_ff. Bytes/s counts float input.
  const KernelDispatch* k = QuantizeTable(state);
  if (k == nullptr) {
    return;
  }
  const uint64_t m = state.range(1);
  const uint64_t cols = state.range(2);
  Rng rng(5);
  std::vector<float> x(m * cols);
  for (float& v : x) {
    v = static_cast<float>(rng.NextGaussian(0.0, 1.0));
  }
  Q8Acts acts;
  acts.QuantizeRows(x.data(), m, cols, k);
  for (auto _ : state) {
    acts.QuantizeRows(x.data(), m, cols, k);
    benchmark::DoNotOptimize(acts.q.data());
    benchmark::DoNotOptimize(acts.scale.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(SimdIsaName(k->isa));
  state.SetBytesProcessed(state.iterations() * m * cols * sizeof(float));
}
BENCHMARK(BM_QuantizeRows)
    ->ArgNames({"row", "m", "cols"})
    ->ArgsProduct({{0, 1}, {1, 8, 16}, {512, 1408}});

void BM_MatVecQ8(benchmark::State& state) {
  const uint64_t dim = state.range(0);
  Tensor w = MakeRandomTensor("w", DType::kQ8_0, dim, dim, 3);
  std::vector<float> x(dim, 0.1f), y(dim, 0.0f);
  for (auto _ : state) {
    MatVecQ8(w.data.data(), dim, dim, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * dim * dim);
}
BENCHMARK(BM_MatVecQ8)->Arg(64)->Arg(256)->Arg(512);

void BM_MatVecQ8Threaded(benchmark::State& state) {
  const uint64_t dim = state.range(0);
  const int n_threads = static_cast<int>(state.range(1));
  Tensor w = MakeRandomTensor("w", DType::kQ8_0, dim, dim, 3);
  std::vector<float> x(dim, 0.1f), y(dim, 0.0f);
  ThreadPool pool(n_threads);
  for (auto _ : state) {
    MatVecQ8(w.data.data(), dim, dim, x.data(), y.data(), &pool);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * dim * dim);
}
BENCHMARK(BM_MatVecQ8Threaded)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4});

// The dot-rows table MatMatQ8 runs when tiles are off: AVX2 (the AMX
// table minus its tile slot) on x86, NEON on aarch64.
const KernelDispatch* RowKernels() {
  const KernelDispatch* active = ActiveKernels();
  return active->matmat_rows_q8 != nullptr ? Avx2Kernels() : active;
}

void BM_MatMatQ8(benchmark::State& state) {
  // rows x cols Q8_0 weights against m positions of random activations,
  // through one path: tile = 0 runs MatMatQ8's dot_rows_q8 groups on the
  // row table (AVX2 on x86); tile = 1 calls the AMX-INT8 table's
  // matmat_rows_q8 over every row directly, the path MatMatQ8 takes at
  // every m on that table. m = 1 is batch-1 decode, 2..8 batched decode
  // steps, 16 a prefill quantum or NPU payload; the matrix stays in L2, so
  // this times the kernels' arithmetic per m (BM_WeightPass times the
  // weight stream). The shapes are bench-medium's Wq/Wo (512 x 512),
  // gate/up (1408 x 512) and down (512 x 1408). Items/s counts
  // multiply-accumulates.
  const uint64_t rows = state.range(0);
  const uint64_t cols = state.range(1);
  const uint64_t m = state.range(2);
  const bool tile = state.range(3) != 0;
  const KernelDispatch* k = tile ? AmxInt8Kernels() : RowKernels();
  if (tile && (k == nullptr || !CpuSupportsAmxInt8())) {
    state.SkipWithError("AMX-INT8 unavailable on this host");
    return;
  }
  Tensor w = MakeRandomTensor("w", DType::kQ8_0, rows, cols, 3);
  Rng rng(4);
  std::vector<float> x(m * cols), y(m * rows, 0.0f);
  for (float& v : x) {
    v = static_cast<float>(rng.NextGaussian(0.0, 1.0));
  }
  Q8Acts acts;
  acts.QuantizeRows(x.data(), m, cols);
  const uint64_t nblocks = cols / kQ8BlockElems;
  for (auto _ : state) {
    if (tile) {
      k->matmat_rows_q8(w.data.data(), rows, nblocks, acts.q.data(),
                        acts.scale.data(), m, 0, rows, y.data());
    } else {
      MatMatQ8(w.data.data(), rows, cols, acts, y.data(), nullptr, k);
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows * cols * m);
}
BENCHMARK(BM_MatMatQ8)
    ->ArgNames({"rows", "cols", "m", "tile"})
    ->Apply([](benchmark::internal::Benchmark* b) {
      // Both paths of one (shape, m) run back to back, so host drift
      // between them stays small.
      for (const auto& [rows, cols] :
           {std::pair<int64_t, int64_t>{512, 512}, {1408, 512},
            {512, 1408}}) {
        for (int64_t m : {1, 2, 3, 4, 5, 6, 7, 8, 16}) {
          for (int64_t tile : {0, 1}) {
            b->Args({rows, cols, m, tile});
          }
        }
      }
    });

// bench-medium's 57 Q8_0 matrices, heap-allocated one by one in layer
// order as the TA's weight source holds them: per layer Wq, Wk, Wv, Wo
// (512 and 256 x 512), gate and up (1408 x 512) and down (512 x 1408),
// then the 4096 x 512 LM head. 27.3 MB, built once per process.
const std::vector<Tensor>& BenchMediumWeights() {
  static const std::vector<Tensor> weights = [] {
    constexpr uint64_t kLayers = 8, kD = 512, kKv = 256, kFf = 1408;
    const std::pair<uint64_t, uint64_t> shapes[] = {
        {kD, kD}, {kKv, kD}, {kKv, kD}, {kD, kD},
        {kFf, kD}, {kFf, kD}, {kD, kFf}};
    std::vector<Tensor> w;
    for (uint64_t l = 0; l < kLayers; ++l) {
      for (const auto& [rows, cols] : shapes) {
        w.push_back(MakeRandomTensor("w" + std::to_string(w.size()),
                                     DType::kQ8_0, rows, cols, 3));
      }
    }
    w.push_back(MakeRandomTensor("lm_head", DType::kQ8_0, 4096, kD, 3));
    return w;
  }();
  return weights;
}

void BM_WeightPass(benchmark::State& state) {
  // One decode or prefill pass's matmuls: MatMatQ8 over all 57 matrices
  // at m positions, through one path as in BM_MatMatQ8 (tile = 0 the row
  // table's dot_rows_q8 groups, tile = 1 the AMX-INT8 slot called
  // directly). Unlike BM_MatMatQ8's single matrix, which stays in L2,
  // this streams the weights from the last-level cache or DRAM, so
  // bytes/s counts weight bytes read: the pass's ceiling is that stream.
  const uint64_t m = state.range(0);
  const bool tile = state.range(1) != 0;
  const KernelDispatch* k = tile ? AmxInt8Kernels() : RowKernels();
  if (tile && (k == nullptr || !CpuSupportsAmxInt8())) {
    state.SkipWithError("AMX-INT8 unavailable on this host");
    return;
  }
  const std::vector<Tensor>& weights = BenchMediumWeights();
  Rng rng(6);
  constexpr uint64_t kWidths[] = {512, 1408};  // d_model, d_ff.
  Q8Acts acts[2];
  for (int i = 0; i < 2; ++i) {
    std::vector<float> x(m * kWidths[i]);
    for (float& v : x) {
      v = static_cast<float>(rng.NextGaussian(0.0, 1.0));
    }
    acts[i].QuantizeRows(x.data(), m, kWidths[i]);
  }
  std::vector<float> y(m * 4096);  // The widest output, the LM head's.
  uint64_t bytes = 0;
  for (const Tensor& w : weights) {
    bytes += w.data.size();
  }
  for (auto _ : state) {
    for (const Tensor& w : weights) {
      const Q8Acts& x = acts[w.cols == kWidths[0] ? 0 : 1];
      if (tile) {
        k->matmat_rows_q8(w.data.data(), w.rows, w.cols / kQ8BlockElems,
                          x.q.data(), x.scale.data(), m, 0, w.rows, y.data());
      } else {
        MatMatQ8(w.data.data(), w.rows, w.cols, x, y.data(), nullptr, k);
      }
      benchmark::DoNotOptimize(y.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_WeightPass)
    ->ArgNames({"m", "tile"})
    ->ArgsProduct({{1, 2, 6, 8, 16}, {0, 1}});

void BM_WeightRead(benchmark::State& state) {
  // The rate BM_WeightPass is held against, on the same host and in the
  // same run: the same 57 matrices read once with plain loads, 32 bytes
  // per step (two 16-byte GCC vectors, native on SSE2 and NEON) OR-folded
  // so none is dead, and nothing else. A pass's bytes/s over this one's is
  // its share of the weight stream; a pass that prefetches can exceed it.
  using Bytes16 = uint64_t __attribute__((vector_size(16)));
  const std::vector<Tensor>& weights = BenchMediumWeights();
  uint64_t bytes = 0;
  for (const Tensor& w : weights) {
    bytes += w.data.size() / 32 * 32;
  }
  for (auto _ : state) {
    Bytes16 lo = {};
    Bytes16 hi = {};
    for (const Tensor& w : weights) {
      const uint8_t* data = w.data.data();
      const uint64_t n = w.data.size() / 32 * 32;
      for (uint64_t i = 0; i < n; i += 32) {
        Bytes16 a = {};
        Bytes16 b = {};
        std::memcpy(&a, data + i, sizeof(a));
        std::memcpy(&b, data + i + 16, sizeof(b));
        lo |= a;
        hi |= b;
      }
    }
    uint64_t folded = lo[0] | lo[1] | hi[0] | hi[1];
    benchmark::DoNotOptimize(folded);
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_WeightRead);

void BM_BuddyAllocFree(benchmark::State& state) {
  BuddyAllocator buddy(0, 1 << 18);
  for (auto _ : state) {
    auto block = buddy.AllocBlock(0);
    benchmark::DoNotOptimize(block.ok());
    if (block.ok()) {
      (void)buddy.FreeBlock(*block, 0);
    }
  }
}
BENCHMARK(BM_BuddyAllocFree);

void BM_CmaAllocContiguous(benchmark::State& state) {
  const uint64_t pages = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    PhysMemory dram(1 * kGiB);
    BuddyAllocator buddy(0, 1 << 16);
    CmaRegion cma(1 << 16, pages, &buddy, &dram);
    for (uint64_t i = 0; i < pages / 2; ++i) {
      (void)cma.BorrowMovablePage();
    }
    state.ResumeTiming();
    auto outcome = cma.AllocContiguousAt(1 << 16, pages);
    benchmark::DoNotOptimize(outcome.ok());
  }
  state.SetItemsProcessed(state.iterations() * pages);
}
BENCHMARK(BM_CmaAllocContiguous)->Arg(1024)->Arg(8192);

void BM_PipelineExecutor(benchmark::State& state) {
  const int extents = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<PipelineOp> ops;
    int prev_alloc = -1, prev_comp = -1;
    for (int i = 0; i < extents; ++i) {
      PipelineOp a;
      a.kind = PipelineOpKind::kAlloc;
      a.comp_index = i;
      a.duration = 1000;
      a.chunks = 4;
      if (prev_alloc >= 0) {
        a.deps.push_back(prev_alloc);
      }
      ops.push_back(a);
      prev_alloc = static_cast<int>(ops.size()) - 1;
      PipelineOp l;
      l.kind = PipelineOpKind::kLoad;
      l.comp_index = i;
      l.duration = 2000;
      l.deps = {prev_alloc};
      ops.push_back(l);
      PipelineOp d;
      d.kind = PipelineOpKind::kDecrypt;
      d.comp_index = i;
      d.duration = 1500;
      d.chunks = 2;
      d.deps = {static_cast<int>(ops.size()) - 1};
      ops.push_back(d);
      PipelineOp c;
      c.kind = PipelineOpKind::kComputeNpu;
      c.comp_index = i;
      c.duration = 2500;
      c.deps = {static_cast<int>(ops.size()) - 1};
      if (prev_comp >= 0) {
        c.deps.push_back(prev_comp);
      }
      ops.push_back(c);
      prev_comp = static_cast<int>(ops.size()) - 1;
    }
    Simulator sim;
    PipelineConfig config;
    PipelineExecutor exec(&sim, config);
    state.ResumeTiming();
    auto result = exec.RunToCompletion(std::move(ops));
    benchmark::DoNotOptimize(result.makespan);
  }
}
BENCHMARK(BM_PipelineExecutor)->Arg(32)->Arg(130);

void BM_TokenizerEncode(benchmark::State& state) {
  Tokenizer tokenizer(32000);
  std::string text;
  for (int i = 0; i < 64; ++i) {
    text += "the user opened the app and asked the assistant a question ";
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Encode(text));
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_TokenizerEncode);

}  // namespace
}  // namespace tzllm

BENCHMARK_MAIN();

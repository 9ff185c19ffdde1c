// Figure 14 (ISSUE 9): TTFT vs shared-prefix proportion on the real
// engine. The paper's caching claim (C3): reuse makes time-to-first-token
// fall roughly linearly with the cached proportion. Here the cache is the
// paged KV prefix registry: a warm request registers its prompt's pages,
// and a later request whose prompt shares a token prefix adopts those
// pages copy-on-write and prefills only the divergent tail.
//
// The harness registers a ~96-token base prompt once, then sweeps
// FIXED-LENGTH requests whose prompts share {0, 25, 50, 75, 100}% of it,
// the rest unique text (so only the base portion can hit, and every point
// prefills the same prompt length). TTFT is the wall time
// from AdmitSession through the final prefill chunk (the first sampled
// token), median of three trials. The page pool is deliberately smaller
// than the registry's working set so cold prefix pages spill to encrypted
// REE memory and come back through the restore path mid-sweep. Every
// request's tokens are checked bit-identical against a single-session
// reference engine with no prefix sharing. Emits BENCH_caching.json for the
// CI guard (scripts/check_bench_regression.py --caching).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/runtime.h"
#include "src/llm/kv_page_pool.h"
#include "src/llm/simd/kernels.h"

namespace tzllm {
namespace {

using WallClock = std::chrono::steady_clock;

constexpr int kPagePositions = 8;
constexpr int kPrefillBatch = 16;
constexpr int kDecodeBudget = 16;
constexpr int kTrials = 3;
constexpr int kMaxCtx = 192;
// Pool frames: the floor the engine enforces (one full context resident —
// a decode step pins every page of its session), and far below the
// registry's working set (base prompt + every trial's registered prefix),
// so the LRU spills cold prefix pages and later adoptions exercise
// restore.
constexpr int kPoolFrames = kMaxCtx / kPagePositions;
const int kProportions[] = {0, 25, 50, 75, 100};

LlmConfig CachingModel() {
  LlmConfig c = TestSmallModel();  // 4 layers, d=128.
  c.max_ctx = kMaxCtx;
  return c;
}

// ~96 tokens under the byte-fallback tokenizer (reported exactly at run
// time from the warm request's prompt_tokens).
std::string BasePrompt() {
  return "system: you are the on-device assistant. policy: keep answers "
         "short, never leave the enclave, prefer cached context. tools: "
         "none. persona: terse.";
}

// Builds the trial prompt at a CONSTANT total length: the first
// `proportion`% comes from the base prompt, the remainder is unique text
// (distinct from its first byte, so trials never share tokens with each
// other beyond the deliberate base portion). Holding the length fixed is
// what makes the sweep the paper's experiment — every point prefills the
// same amount of prompt, only the cached share varies.
std::string TrialPrompt(const std::string& base, int proportion, int trial) {
  const std::string shared = base.substr(0, base.size() * proportion / 100);
  std::string tail = std::to_string(proportion * 10 + trial) +
                     "? user asks a fresh question with an unshared tail ";
  const size_t target = base.size() + 48;
  while (shared.size() + tail.size() < target) {
    tail += "more unshared filler words for the cold remainder ";
  }
  tail.resize(target - shared.size());
  return shared + tail;
}

struct TrialResult {
  double ttft_ms = 0.0;
  int prompt_tokens = 0;
  int adopted_positions = 0;
  bool tokens_identical = false;
};

struct SweepPoint {
  int proportion = 0;
  double ttft_ms = 0.0;  // Median of kTrials.
  int prompt_tokens = 0;
  double adopted_mean = 0.0;
  uint64_t prefix_hits = 0;    // Across the point's trials.
  uint64_t page_restores = 0;  // Delta across the point's trials.
  bool tokens_identical = false;
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// One request through the paged engine: TTFT measured over admission +
// chunked prefill (prefix adoption happens inside AdmitSession), then
// decode to completion and a bit-identity check against the unshared
// reference.
TrialResult RunTrial(LlmTa* paged, LlmTa* reference_ta,
                     const std::string& prompt) {
  const KvArena* arena = paged->kv_arena();
  const uint64_t adopted_before = arena->prefix_stats().adopted_positions;

  const auto t0 = WallClock::now();
  auto sid = paged->AdmitSession(prompt, kDecodeBudget);
  if (!sid.ok()) {
    fprintf(stderr, "admit failed: %s\n", sid.status().ToString().c_str());
    abort();
  }
  for (;;) {
    auto finished = paged->PrefillSessionChunk(*sid);
    if (!finished.ok()) {
      fprintf(stderr, "prefill failed: %s\n",
              finished.status().ToString().c_str());
      abort();
    }
    if (*finished) {
      break;  // First token sampled: TTFT stops here.
    }
  }
  TrialResult out;
  out.ttft_ms =
      std::chrono::duration<double>(WallClock::now() - t0).count() * 1e3;
  out.adopted_positions = static_cast<int>(
      arena->prefix_stats().adopted_positions - adopted_before);

  while (!paged->session_done(*sid)) {
    const Status step = paged->DecodeSessions({*sid});
    if (!step.ok()) {
      fprintf(stderr, "decode failed: %s\n", step.ToString().c_str());
      abort();
    }
  }
  auto generation = paged->FinishSession(*sid);
  if (!generation.ok()) {
    fprintf(stderr, "finish failed: %s\n",
            generation.status().ToString().c_str());
    abort();
  }
  out.prompt_tokens = static_cast<int>(generation->prompt_tokens.size());

  auto reference = reference_ta->Generate(prompt, kDecodeBudget);
  if (!reference.ok()) {
    fprintf(stderr, "reference failed: %s\n",
            reference.status().ToString().c_str());
    abort();
  }
  out.tokens_identical =
      generation->output_tokens == reference->output_tokens;
  return out;
}

}  // namespace
}  // namespace tzllm

int main() {
  using namespace tzllm;

  const ModelSpec spec = ModelSpec::Create(CachingModel());
  const uint64_t pool_bytes =
      kPoolFrames * KvPagePool::PageBytes(spec, kPagePositions);

  RuntimeConfig paged_config;
  paged_config.model = CachingModel();
  paged_config.system = SystemKind::kTzLlm;
  paged_config.materialize_model = true;
  paged_config.engine.prefill_batch = kPrefillBatch;
  paged_config.engine.max_sessions = 2;
  paged_config.engine.kv_page_positions = kPagePositions;
  paged_config.engine.kv_pool_bytes = pool_bytes;
  SocPlatform paged_plat;
  SystemRuntime paged_runtime(&paged_plat, paged_config);
  if (!paged_runtime.Setup().ok()) {
    fprintf(stderr, "paged setup failed\n");
    return 1;
  }
  auto paged = paged_runtime.CreateFunctionalTa();
  if (!paged.ok() ||
      !(*paged)->LoadModel(paged_runtime.spec().config().name).ok()) {
    fprintf(stderr, "paged model load failed\n");
    return 1;
  }

  // Reference: one session, the pool at its default budget (its whole
  // context resident) and no prefix sharing.
  RuntimeConfig ref_config = paged_config;
  ref_config.engine.max_sessions = 1;
  ref_config.engine.kv_pool_bytes = 0;
  ref_config.engine.kv_prefix_entries = 0;
  SocPlatform ref_plat;
  SystemRuntime ref_runtime(&ref_plat, ref_config);
  if (!ref_runtime.Setup().ok()) {
    fprintf(stderr, "reference setup failed\n");
    return 1;
  }
  auto ref = ref_runtime.CreateFunctionalTa();
  if (!ref.ok() ||
      !(*ref)->LoadModel(ref_runtime.spec().config().name).ok()) {
    fprintf(stderr, "reference model load failed\n");
    return 1;
  }

  PrintHeader("Figure 14", "TTFT vs shared-prefix proportion (paged KV)");
  printf("model=%s  pages=%d frames (%d positions each)  prefill_batch=%d  "
         "simd=%s\n",
         paged_runtime.spec().config().name.c_str(), kPoolFrames,
         kPagePositions, kPrefillBatch, SimdIsaName(ActiveKernels()->isa));

  const std::string base = BasePrompt();
  // Warm request: registers the base prompt's pages in the prefix registry
  // (and streams the weights once, so trial TTFTs measure prefill, not
  // first-touch effects). The reference engine gets the same warmup.
  int base_tokens = 0;
  {
    auto warm = (*paged)->Generate(base, 4);
    auto ref_warm = (*ref)->Generate(base, 4);
    if (!warm.ok() || !ref_warm.ok()) {
      fprintf(stderr, "warmup failed\n");
      return 1;
    }
    base_tokens = static_cast<int>(warm->prompt_tokens.size());
  }
  printf("base prompt: %d tokens (%zu chars)\n\n", base_tokens, base.size());

  const KvArena* arena = (*paged)->kv_arena();
  std::vector<SweepPoint> points;
  bool all_identical = true;
  for (const int proportion : kProportions) {
    SweepPoint point;
    point.proportion = proportion;
    point.tokens_identical = true;
    const uint64_t hits_before = arena->prefix_stats().hits;
    const uint64_t restores_before = arena->pool()->stats().restores;
    std::vector<double> ttft_ms;
    uint64_t adopted_total = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const TrialResult r = RunTrial(paged->get(), ref->get(),
                                     TrialPrompt(base, proportion, trial));
      ttft_ms.push_back(r.ttft_ms);
      adopted_total += r.adopted_positions;
      point.prompt_tokens = r.prompt_tokens;
      point.tokens_identical = point.tokens_identical && r.tokens_identical;
    }
    point.ttft_ms = Median(ttft_ms);
    point.adopted_mean = static_cast<double>(adopted_total) / kTrials;
    point.prefix_hits = arena->prefix_stats().hits - hits_before;
    point.page_restores = arena->pool()->stats().restores - restores_before;
    all_identical = all_identical && point.tokens_identical;
    points.push_back(point);
  }

  PrintRow({"shared %", "ttft ms", "vs cold", "prompt tok", "adopted",
            "restores", "tokens"},
           12);
  const double cold_ms = points.front().ttft_ms;
  for (const SweepPoint& p : points) {
    PrintRow({std::to_string(p.proportion), Fmt("%.2f", p.ttft_ms),
              Fmt("%.3f", p.ttft_ms / cold_ms),
              std::to_string(p.prompt_tokens), Fmt("%.1f", p.adopted_mean),
              std::to_string(p.page_restores),
              p.tokens_identical ? "identical" : "DIVERGED"},
             12);
  }

  const KvPageStats& pool_stats = arena->pool()->stats();
  const KvArena::PrefixStats& prefix = arena->prefix_stats();
  const double hit_rate =
      prefix.lookups > 0 ? static_cast<double>(prefix.hits) / prefix.lookups
                         : 0.0;
  // The guard's claim: once at least half the prompt is shared, adopting
  // the registered pages beats recomputing them.
  bool warm_beats_cold = true;
  for (const SweepPoint& p : points) {
    if (p.proportion >= 50 && !(p.ttft_ms < cold_ms)) {
      warm_beats_cold = false;
    }
  }
  printf("\nshared >= 50%% TTFT below cold: %s\n",
         warm_beats_cold ? "yes (PASS)" : "NO (FAIL)");
  printf("prefix hit rate: %.2f (%llu/%llu)  adopted positions: %llu\n",
         hit_rate, static_cast<unsigned long long>(prefix.hits),
         static_cast<unsigned long long>(prefix.lookups),
         static_cast<unsigned long long>(prefix.adopted_positions));
  printf("page traffic: %llu spills, %llu restores, %llu cow copies\n",
         static_cast<unsigned long long>(pool_stats.spills),
         static_cast<unsigned long long>(pool_stats.restores),
         static_cast<unsigned long long>(pool_stats.cow_copies));
  printf("tokens vs unshared reference: %s\n",
         all_identical ? "identical (PASS)" : "DIVERGED (FAIL)");
  printf("\npaper (C3): TTFT falls roughly linearly with the shared "
         "proportion — the adopted pages' prefill is skipped outright, so "
         "the remaining cost is the unshared tail plus page management.\n");

  FILE* json = fopen("BENCH_caching.json", "w");
  if (json != nullptr) {
    fprintf(json, "{\n");
    fprintf(json, "  \"model\": \"%s\",\n", paged_config.model.name.c_str());
    fprintf(json, "  \"simd_isa\": \"%s\",\n",
            SimdIsaName(ActiveKernels()->isa));
    fprintf(json, "  \"hardware_concurrency\": %u,\n",
            std::thread::hardware_concurrency());
    fprintf(json, "  \"page_positions\": %d,\n", kPagePositions);
    fprintf(json, "  \"pool_frames\": %d,\n", kPoolFrames);
    fprintf(json, "  \"pool_bytes\": %llu,\n",
            static_cast<unsigned long long>(pool_bytes));
    fprintf(json, "  \"prefill_batch\": %d,\n", kPrefillBatch);
    fprintf(json, "  \"decode_budget\": %d,\n", kDecodeBudget);
    fprintf(json, "  \"trials\": %d,\n", kTrials);
    fprintf(json, "  \"base_prompt_tokens\": %d,\n", base_tokens);
    fprintf(json, "  \"points\": {\n");
    for (size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      fprintf(json,
              "    \"%d\": {\"ttft_ms\": %.3f, \"ttft_vs_cold\": %.4f, "
              "\"prompt_tokens\": %d, \"adopted_positions_mean\": %.1f, "
              "\"prefix_hits\": %llu, \"page_restores\": %llu, "
              "\"tokens_identical\": %s}%s\n",
              p.proportion, p.ttft_ms, p.ttft_ms / cold_ms, p.prompt_tokens,
              p.adopted_mean, static_cast<unsigned long long>(p.prefix_hits),
              static_cast<unsigned long long>(p.page_restores),
              p.tokens_identical ? "true" : "false",
              i + 1 < points.size() ? "," : "");
    }
    fprintf(json, "  },\n");
    fprintf(json, "  \"prefix_hit_rate\": %.4f,\n", hit_rate);
    fprintf(json, "  \"prefix_lookups\": %llu,\n",
            static_cast<unsigned long long>(prefix.lookups));
    fprintf(json, "  \"prefix_hits\": %llu,\n",
            static_cast<unsigned long long>(prefix.hits));
    fprintf(json, "  \"adopted_positions\": %llu,\n",
            static_cast<unsigned long long>(prefix.adopted_positions));
    fprintf(json, "  \"page_spills\": %llu,\n",
            static_cast<unsigned long long>(pool_stats.spills));
    fprintf(json, "  \"page_restores\": %llu,\n",
            static_cast<unsigned long long>(pool_stats.restores));
    fprintf(json, "  \"cow_copies\": %llu,\n",
            static_cast<unsigned long long>(pool_stats.cow_copies));
    fprintf(json, "  \"warm_ttft_below_cold\": %s,\n",
            warm_beats_cold ? "true" : "false");
    fprintf(json, "  \"tokens_identical\": %s\n",
            all_identical ? "true" : "false");
    fprintf(json, "}\n");
    fclose(json);
    printf("wrote BENCH_caching.json\n");
  }
  return (warm_beats_cold && all_identical) ? 0 : 1;
}

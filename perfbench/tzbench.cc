// tzbench: runs one named workload through tzllm's public API and writes a
// raw measurement record (samples, counter snapshots, spans) as one JSON
// document on stdout. perfbench/run.py builds this binary, runs it and turns
// the record into the benchmark's metrics; see run.py for the contract.
//
//   tzbench --workload <cold-start|chat-serve> --seed N --seconds S
//           --trace 0|1
//
// Workloads (each loads some layers heavily and leaves others idle):
//   cold-start  every unit boots a fresh LlmTa on one provisioned platform:
//               LoadModel (key unwrap, TZGUF check, CMA extend, restoration)
//               + BeginSession with NPU prefill + a short decode + Unload.
//   chat-serve  a warm bench-medium TA serves bursts of chat requests that
//               share one registered system prompt; more requests than
//               session slots, two urgent latecomers, arrivals on ticks.
//               Its page pool holds every slot, so it never spills; the
//               traced run adds one burst over a smaller pool after the
//               timed phase to measure KV page spill/restore.
//
// Every engine pins EngineOptions::n_threads = 1: thread count changes what
// is measured, and single-threaded runs were the ones that held still on a
// shared host. Timings are pooled over the whole timed phase, which runs
// whole units (cold starts or bursts) until --seconds have passed.
//
// Tracing (--trace 1) records a span around every public call made here;
// spans carry names, ids, byte and token counts and durations, never token
// ids or prompt text. Units alternate traced/untraced so run.py can report
// the tracer's own overhead from one run.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/core/llm_ta.h"
#include "src/core/runtime.h"
#include "src/crypto/aes.h"
#include "src/crypto/sha256.h"
#include "src/llm/engine.h"
#include "src/llm/simd/kernels.h"
#include "src/llm/tokenizer.h"
#include "src/serve/serving.h"

namespace tzllm {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void Die(const std::string& what, const Status& st) {
  fprintf(stderr, "tzbench: %s: %s\n", what.c_str(), st.ToString().c_str());
  exit(1);
}

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) {
    Die(what, st);
  }
}

template <typename T>
T Take(Result<T> r, const std::string& what) {
  if (!r.ok()) {
    Die(what, r.status());
  }
  return std::move(*r);
}

// --- Minimal JSON writer. --------------------------------------------------

class Json {
 public:
  Json& Open(const char* key = nullptr) { return Start(key, '{'); }
  Json& Close() { return End('}'); }
  Json& OpenArray(const char* key = nullptr) { return Start(key, '['); }
  Json& CloseArray() { return End(']'); }
  Json& Num(const char* key, double v) {
    Key(key);
    char buf[40];
    snprintf(buf, sizeof(buf), "%.9g", v);
    out_ += buf;
    return *this;
  }
  Json& Int(const char* key, uint64_t v) {
    Key(key);
    out_ += std::to_string(v);
    return *this;
  }
  Json& Str(const char* key, const std::string& v) {
    Key(key);
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
      }
      out_ += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    out_ += '"';
    return *this;
  }
  Json& Nums(const char* key, const std::vector<double>& vs) {
    OpenArray(key);
    for (double v : vs) {
      Num(nullptr, v);
    }
    return CloseArray();
  }
  const std::string& str() const { return out_; }

 private:
  Json& Start(const char* key, char c) {
    Key(key);
    out_ += c;
    first_ = true;
    return *this;
  }
  Json& End(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void Key(const char* key) {
    if (!first_) {
      out_ += ',';
    }
    first_ = false;
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\":";
    }
  }
  std::string out_;
  bool first_ = true;
};

// --- Spans. ----------------------------------------------------------------

enum Phase { kSetup = 0, kTimed = 1, kAfter = 2 };

struct Span {
  const char* name = "";
  int phase = kSetup;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t req = 0;
  uint64_t sess = 0;
  uint64_t bytes = 0;
  uint64_t tokens = 0;
  // Part of the span the library itself timed as an inner layer (a Tick's
  // ServeStats::decode_time_s delta); 0 elsewhere.
  int64_t inner_ns = 0;
};

// In-memory span recorder, written out once when the run ends. Off = every
// call is one branch.
class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  bool on = false;
  int phase = kSetup;

  int Open(const char* name) {
    if (!on) {
      return -1;
    }
    Span s;
    s.name = name;
    s.phase = phase;
    s.start_ns = Now();
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  // `fields` carries everything but name, phase, times and parent.
  void Close(int id, const Span& fields) {
    if (id < 0) {
      return;
    }
    Span& s = spans_[id];
    s.end_ns = Now();
    s.req = fields.req;
    s.sess = fields.sess;
    s.bytes = fields.bytes;
    s.tokens = fields.tokens;
    s.inner_ns = fields.inner_ns;
    stack_.pop_back();
  }

  void Write(Json* json) const {
    json->OpenArray("spans");
    for (const Span& s : spans_) {
      json->OpenArray()
          .Str(nullptr, s.name)
          .Int(nullptr, s.phase)
          .Int(nullptr, s.start_ns)
          .Int(nullptr, s.end_ns)
          .Num(nullptr, s.parent)
          .Int(nullptr, s.req)
          .Int(nullptr, s.sess)
          .Int(nullptr, s.bytes)
          .Int(nullptr, s.tokens)
          .Int(nullptr, s.inner_ns)
          .CloseArray();
    }
    json->CloseArray();
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Scoped span; fill in `span`'s ids and counts before it closes.
class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t), id_(t->Open(name)) {}
  ~Scope() { t_->Close(id_, span); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  Span span;

 private:
  Tracer* t_;
  int id_;
};

// --- Counters: raw snapshots of the library's cumulative counters. ---------
//
// Everything here is cumulative per TA (or per platform / per runtime);
// run.py differences snapshots taken at unit boundaries.

struct Snapshot {
  // ServingRuntime::stats() of the runtime serving the unit (a fresh one
  // per burst, so these start at zero).
  uint64_t ticks = 0;
  uint64_t preemptions = 0;
  uint64_t decode_tokens = 0;
  double decode_time_s = 0.0;
  // KvPagePool / prefix registry of the TA.
  uint64_t spills = 0;
  uint64_t restores = 0;
  uint64_t cow_copies = 0;
  uint64_t pages_lost = 0;
  uint64_t prefix_lookups = 0;
  uint64_t prefix_hits = 0;
  uint64_t prefix_adopted = 0;
  // Platform-wide co-driver and secure-monitor counters.
  uint64_t npu_jobs = 0;
  uint64_t npu_jobs_recovered = 0;
  uint64_t smc_round_trips = 0;

  void Write(Json* json, const char* key) const {
    json->Open(key)
        .Int("ticks", ticks)
        .Int("preemptions", preemptions)
        .Int("decode_tokens", decode_tokens)
        .Num("decode_time_s", decode_time_s)
        .Int("spills", spills)
        .Int("restores", restores)
        .Int("cow_copies", cow_copies)
        .Int("pages_lost", pages_lost)
        .Int("prefix_lookups", prefix_lookups)
        .Int("prefix_hits", prefix_hits)
        .Int("prefix_adopted", prefix_adopted)
        .Int("npu_jobs", npu_jobs)
        .Int("npu_jobs_recovered", npu_jobs_recovered)
        .Int("smc_round_trips", smc_round_trips)
        .Close();
  }
};

Snapshot Snap(SystemRuntime* runtime, const LlmTa* ta,
              const ServingRuntime* serve) {
  Snapshot s;
  if (serve != nullptr) {
    s.ticks = serve->stats().ticks;
    s.preemptions = static_cast<uint64_t>(serve->stats().preemptions);
    s.decode_tokens = serve->stats().decode_tokens;
    s.decode_time_s = serve->stats().decode_time_s;
  }
  const KvArena* arena = ta != nullptr ? ta->kv_arena() : nullptr;
  if (arena != nullptr && arena->paged()) {
    const KvPageStats& p = arena->pool()->stats();
    s.spills = p.spills;
    s.restores = p.restores;
    s.cow_copies = p.cow_copies;
    s.pages_lost = p.pages_lost;
    s.prefix_lookups = arena->prefix_stats().lookups;
    s.prefix_hits = arena->prefix_stats().hits;
    s.prefix_adopted = arena->prefix_stats().adopted_positions;
  }
  s.npu_jobs = runtime->tee_npu().secure_jobs_completed();
  s.npu_jobs_recovered = runtime->tee_npu().jobs_recovered();
  s.smc_round_trips = runtime->platform().monitor().round_trips();
  return s;
}

// --- Host reference measurements. ------------------------------------------

// A frozen integer loop: the same instructions every run, so its time tracks
// only how fast the host is running right now. Diagnostic only; no metric is
// ever divided by it.
double RefLoopMs(uint64_t seed) {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    uint32_t table[1024];
    for (int i = 0; i < 1024; ++i) {
      table[i] = static_cast<uint32_t>(SplitMix64(seed + i));
    }
    uint64_t x = seed | 1;
    const auto t0 = Clock::now();
    for (int i = 0; i < (1 << 22); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table[x & 1023] += static_cast<uint32_t>(x >> 32);
    }
    ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
    volatile uint32_t sink = table[x & 1023];
    (void)sink;
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

// Median MB/s of `fn` over a `bytes` buffer.
template <typename Fn>
double MedianMbps(size_t bytes, int reps, Fn fn) {
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    rates.push_back(bytes / 1e6 / SecondsBetween(t0, Clock::now()));
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

struct HostProbe {
  double aes_ctr_mbps = 0.0;
  double sha256_mbps = 0.0;
  double stream_gbps = 0.0;
};

// AES-CTR and SHA-256 throughput (the ceilings for restoration and KV spill
// crypto) and a streaming read over a buffer far larger than the LLC (the
// ceiling for decode weight streaming).
HostProbe ProbeHost(uint64_t seed) {
  HostProbe out;
  std::vector<uint8_t> buf(4 * kMiB);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(SplitMix64(seed + i));
  }
  AesKey128 key{};
  AesBlock iv{};
  key[0] = static_cast<uint8_t>(seed);
  const AesCtr ctr(key, iv);
  out.aes_ctr_mbps = MedianMbps(buf.size(), 5, [&] {
    ctr.Crypt(0, buf.data(), buf.size());
  });
  volatile uint8_t sink = 0;
  out.sha256_mbps = MedianMbps(buf.size(), 5, [&] {
    sink = Sha256::Hash(buf.data(), buf.size())[0];
  });
  std::vector<uint64_t> big(512 * kMiB / sizeof(uint64_t));
  for (size_t i = 0; i < big.size(); i += 512) {
    big[i] = seed + i;  // Touch every page before timing.
  }
  uint64_t sum = 0;
  out.stream_gbps =
      MedianMbps(big.size() * sizeof(uint64_t), 3, [&] {
        uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        for (size_t i = 0; i + 4 <= big.size(); i += 4) {
          s0 += big[i];
          s1 += big[i + 1];
          s2 += big[i + 2];
          s3 += big[i + 3];
        }
        sum += s0 + s1 + s2 + s3;
      }) /
      1e3;
  sink = static_cast<uint8_t>(sum);
  (void)sink;
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The process's peak resident set (VmHWM), since start or the last
// ResetPeakRss().
double PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0;  // Reported in kB.
    }
  }
  return 0.0;
}

// Drops the reference engines' freed memory and restarts the peak-RSS
// count, so peak_rss_mb covers only the system under test.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

// --- Models and engine options. -------------------------------------------

constexpr uint64_t kWeightSeed = 0xC0FFEE;  // SystemRuntime::Setup's seed.

// fig17's bench-medium geometry: 28.2 MiB of Q8 weights, too big for L2.
LlmConfig BenchMedium() {
  LlmConfig c;
  c.name = "bench-medium";
  c.n_layers = 8;
  c.d_model = 512;
  c.n_heads = 8;
  c.n_kv_heads = 4;
  c.d_ff = 1408;
  c.vocab_size = 4096;
  c.max_ctx = 256;
  return c;
}

// Frames of the traced chat-serve run's spill probe pool: under the 80 a
// full batch of 8 sessions pins (PageCount + 2 each at 8 pages), so the
// burst decodes in split groups that spill and restore each other's pages.
constexpr int kSpillProbeFrames = 44;

// Q8 weight bytes one decode step streams: every matmul weight and the LM
// head (the embedding table is read one row at a time).
uint64_t DecodeWeightBytes(const ModelSpec& spec) {
  uint64_t bytes = 0;
  for (const TensorSpec& t : spec.tensors()) {
    if (t.dtype == DType::kQ8_0 && t.role != TensorRole::kTokEmbedding) {
      bytes += t.data_bytes;
    }
  }
  return bytes;
}

// --- Seeded traffic. --------------------------------------------------------

// One request slot. The workload fixes its shape (prompt length in tokens,
// budget, priority, arrival tick) and the seed only picks its words, so
// every seed asks for the same work and the spread across seeds is the
// host's, not the traffic's.
struct Req {
  std::string prefix;  // Shared text before the seeded words.
  char lead = ' ';     // First character of the seeded words.
  int seeded_tokens = 0;
  int budget = 0;
  double priority = 0.0;
  int arrival_tick = 0;
  // The reference must run the whole budget (no early EOS), so output
  // lengths do not depend on the seed either.
  bool full_budget = true;
  // Filled by DrawPrompts.
  std::string prompt;
  uint64_t prompt_tokens = 0;
  std::vector<TokenId> expected;
};

Req Slot(const std::string& prefix, char lead, int seeded_tokens, int budget,
         double priority = 0.0, int arrival_tick = 0) {
  Req r;
  r.prefix = prefix;
  r.lead = lead;
  r.seeded_tokens = seeded_tokens;
  r.budget = budget;
  r.priority = priority;
  r.arrival_tick = arrival_tick;
  return r;
}

const char* const kWords[] = {
    "secure",  "memory", "model",  "device", "token",    "weights",
    "world",   "npu",    "kernel", "cache",  "session",  "prompt",
    "answer",  "please", "refine", "text",   "question", "summary",
    "task",    "user",   "screen", "photo",  "message",  "reply",
    "quickly", "later",  "today",  "notes",  "email",    "calendar",
    "travel",  "budget", "recipe", "music",  "battery",  "privacy"};
constexpr int kNumWords = sizeof(kWords) / sizeof(kWords[0]);
// Leads of the slots' seeded words: distinct per slot, so no two prompts
// share a token past their common prefix.
const char kLeads[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789abcdefghijklmnopqrstuvwxyz";

// Seeded words starting with `lead`, cut to exactly `n` tokens. Greedy
// longest-match re-encodes a decoded token prefix to the same tokens, so
// the cut text is exactly n tokens long.
std::string SeededText(Rng* rng, const Tokenizer& tok, char lead, int n) {
  if (n == 0) {
    return "";
  }
  std::string text = std::string(1, lead) + ' ';
  std::vector<TokenId> tokens;
  while ((tokens = tok.Encode(text)).size() < static_cast<size_t>(n)) {
    text += kWords[rng->NextBounded(kNumWords)];
    text += ' ';
  }
  tokens.resize(n);
  return tok.Decode(tokens);
}

// --- The benchmark. ---------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// One timed unit: a cold start or a serving burst.
struct Unit {
  bool traced = false;
  double wall_s = 0.0;
  uint64_t out_tokens = 0;
  uint64_t sent = 0;
  uint64_t prompt_tokens = 0;
  std::vector<double> ttft_ms;
  std::vector<double> itl_ms;
  Snapshot before, after;
};

// Per-TA-load counter deltas (one per CreateFunctionalTa), as snapshots.
struct Load {
  int phase = kSetup;
  Snapshot before, after;
};

// A provisioned platform with (optionally) a loaded TA. Members destroy in
// reverse order: the TA before the runtime before the platform.
struct Stack {
  std::unique_ptr<SocPlatform> plat;
  std::unique_ptr<SystemRuntime> runtime;
  std::unique_ptr<LlmTa> ta;
};

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args) {}

  int Run();

 private:
  // Workload definition.
  RuntimeConfig Config() const;
  void MakeTraffic();
  // Fills every slot's prompt from the seed and its expected output from
  // the reference engine.
  void DrawPrompts(const std::vector<Req*>& slots);

  // Setup: provision a platform and, on the warm workloads, load the model
  // and warm it up. Returns the stack ready for the first timed request.
  Stack SetUp();
  // Boots a fresh TA on `stack`, loads the model and runs one solo session
  // (BeginSession + StepSession until done) on `prompt`; the TA stays loaded.
  // TTFT counts from CreateFunctionalTa to the first sampled token.
  GenerationResult BootAndGenerate(Stack* stack, const std::string& prompt,
                                   int budget, double* ttft_s,
                                   std::vector<double>* itl_ms);
  void UnloadTa(Stack* stack);

  Unit ColdStart(Stack* stack, const Req& req);
  Unit Burst(Stack* stack, const std::vector<Req>& reqs);
  // The traced chat-serve run's spill probe: the first burst type on a
  // fresh platform whose page pool holds kSpillProbeFrames frames.
  Unit SpillProbe();
  // Serves `reqs` on the stack's TA, ticking until all complete.
  // `outputs` receives each request's tokens in `reqs` order.
  void Serve(Stack* stack, const std::vector<Req>& reqs, Unit* unit,
             std::vector<std::vector<TokenId>>* outputs);

  // Checks a request's output against its reference.
  void Verify(const Req& req, const std::vector<TokenId>& tokens);

  void SampleSecureMemory(Stack* stack);
  void Emit(const std::vector<double>& setup_s, double timed_s,
            double peak_rss, double ref_ms_start, double ref_ms_end,
            const HostProbe& probe);

  Args args_;
  Tracer tracer_;
  std::unique_ptr<ModelSpec> spec_;
  std::unique_ptr<Tokenizer> tokenizer_;
  // The setup's warm-up session; the requests cold starts cycle through;
  // one request set per burst type, which bursts cycle through; and the
  // traced cold-start run's serving probe.
  Req warmup_;
  std::vector<Req> cold_;
  std::vector<std::vector<Req>> bursts_;
  Req probe_;

  std::vector<Unit> units_;
  std::vector<Unit> spill_probe_;  // At most one; only on traced chat-serve.
  std::vector<Load> loads_;
  uint64_t kv_resident_max_ = 0;
  uint64_t kv_reserved_bytes_ = 0;
  uint64_t kv_page_bytes_ = 0;
  uint64_t params_peak_ = 0;
  uint64_t scratch_peak_ = 0;

  uint64_t checked_ = 0;
  uint64_t mismatched_ = 0;
};

RuntimeConfig Bench::Config() const {
  RuntimeConfig config;
  config.system = SystemKind::kTzLlm;
  config.materialize_model = true;
  config.engine.n_threads = 1;
  if (args_.workload == "cold-start") {
    config.model = BenchMedium();
    config.engine.prefill_batch = 16;
    config.engine.npu_prefill = true;
    config.engine.max_sessions = 1;
  } else {  // chat-serve
    config.model = BenchMedium();
    config.engine.prefill_batch = 16;
    config.engine.max_sessions = 8;
    config.use_npu = false;
  }
  return config;
}

void Bench::MakeTraffic() {
  spec_ = std::make_unique<ModelSpec>(ModelSpec::Create(Config().model));
  tokenizer_ = std::make_unique<Tokenizer>(spec_->config().vocab_size);
  std::vector<Req*> slots = {&warmup_};
  if (args_.workload == "cold-start") {
    warmup_ = Slot("", '#', 32, 8);
    for (int i = 0; i < 4; ++i) {
      cold_.push_back(Slot("", kLeads[i], 32, 16));
    }
    for (Req& r : cold_) {
      slots.push_back(&r);
    }
    if (args_.trace) {
      probe_ = Slot("", '@', 32, 120);
      slots.push_back(&probe_);
    }
  } else {
    // One shared system prompt of 4 KV pages plus 6 positions, so every
    // adopting session copies-on-write its tail page. It ends in a newline,
    // which no merged token spans, so it tokenizes to the same prefix
    // whatever follows.
    Rng rng(SplitMix64(args_.seed ^ 0x5E55C0DEull));
    const int page = Config().engine.kv_page_positions;
    const std::string system =
        SeededText(&rng, *tokenizer_, 's', 4 * page + 5) + "\n";
    warmup_ = Slot(system, ' ', 0, 8);  // Registers the system prompt.
    warmup_.full_budget = false;  // Its prompt cannot be redrawn.
    // Three burst types, so a prompt recurs only after two other bursts
    // have registered theirs: by then the registry (16 entries) has
    // evicted it, and every lookup adopts exactly the system prompt.
    // Ten relaxed requests arrive one per tick; two urgent latecomers
    // arrive once all 8 slots are busy and preempt.
    for (int b = 0; b < 3; ++b) {
      std::vector<Req> reqs;
      for (int i = 0; i < 12; ++i) {
        const bool urgent = i >= 10;
        reqs.push_back(Slot(system, kLeads[b * 12 + i], 20 + 4 * (i % 3), 24,
                            urgent ? 1.0 + (i - 10) : 10.0 + i,
                            urgent ? 18 + 4 * (i - 10) : i));
      }
      bursts_.push_back(reqs);
    }
  }
  for (std::vector<Req>& reqs : bursts_) {
    for (Req& r : reqs) {
      slots.push_back(&r);
    }
  }
  DrawPrompts(slots);
  ResetPeakRss();
}

// The quickstart's parity oracle: an unprotected host engine over the same
// reference weights, no TEE, no paging, no batching, no prefix sharing —
// every protected, batched or paged output must match it token for token.
// A draw whose reference stops early is replaced by the slot's next draw.
// Slots are spread over a few single-threaded engines running side by side;
// this runs before any setup is timed.
void Bench::DrawPrompts(const std::vector<Req*>& slots) {
  const uint64_t base = SplitMix64(args_.seed ^ 0x7A11C0DEull);
  const int workers = static_cast<int>(std::min<size_t>(
      std::max(1u, std::thread::hardware_concurrency()), 4));
  std::atomic<size_t> next{0};
  std::vector<Status> errors(workers);
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      EngineOptions options;
      options.n_threads = 1;
      options.prefill_batch = 64;
      auto engine = LlmEngine::CreateUnprotected(*spec_, kWeightSeed, options);
      for (size_t i = next++; i < slots.size(); i = next++) {
        Req* r = slots[i];
        for (uint64_t draw = 0;; ++draw) {
          if (draw == 64) {
            errors[w] = Internal("no draw ran its whole budget");
            return;
          }
          Rng rng(SplitMix64(base + i * 1024 + draw));
          r->prompt = r->prefix + SeededText(&rng, *tokenizer_, r->lead,
                                             r->seeded_tokens);
          auto ref = engine->Generate(r->prompt, r->budget);
          if (!ref.ok()) {
            errors[w] = ref.status();
            return;
          }
          if (!r->full_budget ||
              ref->output_tokens.size() == static_cast<size_t>(r->budget)) {
            r->prompt_tokens = ref->prompt_tokens.size();
            r->expected = std::move(ref->output_tokens);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const Status& st : errors) {
    Check(st, "reference generation");
  }
}

void Bench::SampleSecureMemory(Stack* stack) {
  TeeOs& tee = stack->runtime->tee_os();
  params_peak_ = std::max(
      params_peak_, tee.RegionStats(SecureRegionId::kParams).protected_bytes);
  scratch_peak_ = std::max(
      scratch_peak_, tee.RegionStats(SecureRegionId::kScratch).protected_bytes);
}

GenerationResult Bench::BootAndGenerate(Stack* stack, const std::string& prompt,
                                        int budget, double* ttft_s,
                                        std::vector<double>* itl_ms) {
  Load load;
  load.phase = tracer_.phase;
  load.before = Snap(stack->runtime.get(), nullptr, nullptr);
  const auto t0 = Clock::now();
  {
    Scope s(&tracer_, "runtime.CreateFunctionalTa");
    stack->ta = Take(stack->runtime->CreateFunctionalTa(), "CreateFunctionalTa");
  }
  LlmTa* ta = stack->ta.get();
  {
    Scope s(&tracer_, "ta.LoadModel");
    Check(ta->LoadModel(spec_->config().name), "LoadModel");
    s.span.bytes = spec_->total_param_bytes();
  }
  SampleSecureMemory(stack);
  SessionId sid = 0;
  {
    Scope s(&tracer_, "ta.BeginSession");
    sid = Take(ta->BeginSession(prompt, budget), "BeginSession");
    s.span.sess = sid;
  }
  auto last = Clock::now();
  if (ttft_s != nullptr) {
    *ttft_s = SecondsBetween(t0, last);
  }
  SampleSecureMemory(stack);
  for (;;) {
    int n = 0;
    {
      Scope s(&tracer_, "ta.StepSession");
      s.span.sess = sid;
      n = Take(ta->StepSession(sid, 1), "StepSession");
      s.span.tokens = static_cast<uint64_t>(n);
    }
    if (n == 0) {
      break;
    }
    const auto now = Clock::now();
    if (itl_ms != nullptr) {
      itl_ms->push_back(SecondsBetween(last, now) * 1e3);
    }
    last = now;
  }
  GenerationResult gen;
  {
    Scope s(&tracer_, "ta.FinishSession");
    s.span.sess = sid;
    gen = Take(ta->FinishSession(sid), "FinishSession");
    s.span.tokens = gen.output_tokens.size();
  }
  load.after = Snap(stack->runtime.get(), ta, nullptr);
  loads_.push_back(load);
  return gen;
}

void Bench::UnloadTa(Stack* stack) {
  {
    Scope s(&tracer_, "ta.Unload");
    Check(stack->ta->Unload(), "Unload");
  }
  stack->ta.reset();
}

Stack Bench::SetUp() {
  Stack stack;
  stack.plat = std::make_unique<SocPlatform>();
  stack.runtime = std::make_unique<SystemRuntime>(stack.plat.get(), Config());
  {
    Scope s(&tracer_, "runtime.Setup");
    Check(stack.runtime->Setup(), "SystemRuntime::Setup");
    s.span.bytes = spec_->total_param_bytes();
  }
  // Warm-up: one boot + session fills caches and first-touches the
  // simulated DRAM. On chat-serve its prompt is the system prompt, which
  // the TA registers as the shared prefix; cold-start unloads again.
  const GenerationResult warm =
      BootAndGenerate(&stack, warmup_.prompt, warmup_.budget, nullptr, nullptr);
  Verify(warmup_, warm.output_tokens);
  if (args_.workload == "cold-start") {
    UnloadTa(&stack);
  }
  return stack;
}

Unit Bench::ColdStart(Stack* stack, const Req& req) {
  Unit unit;
  unit.before = Snap(stack->runtime.get(), nullptr, nullptr);
  unit.sent = 1;
  unit.prompt_tokens = req.prompt_tokens;
  const auto t0 = Clock::now();
  double ttft_s = 0.0;
  GenerationResult gen;
  {
    Scope s(&tracer_, "cold_start");
    gen = BootAndGenerate(stack, req.prompt, req.budget, &ttft_s,
                          &unit.itl_ms);
    unit.after = Snap(stack->runtime.get(), stack->ta.get(), nullptr);
    UnloadTa(stack);
    s.span.tokens = gen.output_tokens.size();
  }
  unit.wall_s = SecondsBetween(t0, Clock::now());
  unit.ttft_ms.push_back(ttft_s * 1e3);
  unit.out_tokens = gen.output_tokens.size();
  Verify(req, gen.output_tokens);
  return unit;
}

void Bench::Serve(Stack* stack, const std::vector<Req>& reqs, Unit* unit,
                  std::vector<std::vector<TokenId>>* outputs) {
  LlmTa* ta = stack->ta.get();
  ServingRuntime serve(ta, &stack->plat->sim());
  unit->before = Snap(stack->runtime.get(), ta, &serve);
  std::map<uint64_t, size_t> index;  // request id -> position in reqs
  size_t next = 0;
  for (int tick = 0;; ++tick) {
    for (; next < reqs.size() && reqs[next].arrival_tick <= tick; ++next) {
      ServeRequest r;
      r.prompt = reqs[next].prompt;
      r.max_new_tokens = reqs[next].budget;
      r.priority = reqs[next].priority;
      Scope s(&tracer_, "serve.Enqueue");
      s.span.req = Take(serve.Enqueue(std::move(r)), "Enqueue");
      s.span.tokens = reqs[next].prompt_tokens;
      index[s.span.req] = next;
      unit->prompt_tokens += reqs[next].prompt_tokens;
    }
    bool more = false;
    {
      const uint64_t tokens0 = serve.stats().decode_tokens;
      const double decode0 = serve.stats().decode_time_s;
      Scope s(&tracer_, "serve.Tick");
      more = Take(serve.Tick(), "Tick");
      s.span.tokens = serve.stats().decode_tokens - tokens0;
      s.span.inner_ns =
          static_cast<int64_t>((serve.stats().decode_time_s - decode0) * 1e9);
    }
    if (tracer_.on) {
      kv_resident_max_ =
          std::max(kv_resident_max_, ta->kv_arena()->CurrentBytes());
    }
    if (!more && next == reqs.size()) {
      break;
    }
  }
  unit->after = Snap(stack->runtime.get(), ta, &serve);
  unit->sent += reqs.size();
  outputs->assign(reqs.size(), {});
  for (const ServeRequestResult& r : serve.results()) {
    const size_t i = index.at(r.request_id);
    if (!r.status.ok()) {  // Verify counts its empty output as a failure.
      fprintf(stderr, "tzbench: request failed: %s\n",
              r.status.ToString().c_str());
      continue;
    }
    (*outputs)[i] = r.generation.output_tokens;
    unit->out_tokens += r.generation.output_tokens.size();
    unit->ttft_ms.push_back((r.first_token_s - r.submit_s) * 1e3);
    for (size_t t = 1; t < r.token_s.size(); ++t) {
      unit->itl_ms.push_back((r.token_s[t] - r.token_s[t - 1]) * 1e3);
    }
  }
}

Unit Bench::Burst(Stack* stack, const std::vector<Req>& reqs) {
  Unit unit;
  std::vector<std::vector<TokenId>> outputs;
  const auto t0 = Clock::now();
  {
    Scope s(&tracer_, "burst");
    Serve(stack, reqs, &unit, &outputs);
    s.span.tokens = unit.out_tokens;
  }
  unit.wall_s = SecondsBetween(t0, Clock::now());
  SampleSecureMemory(stack);
  for (size_t i = 0; i < reqs.size(); ++i) {
    Verify(reqs[i], outputs[i]);
  }
  return unit;
}

Unit Bench::SpillProbe() {
  RuntimeConfig config = Config();
  config.engine.kv_pool_bytes =
      kSpillProbeFrames * spec_->KvCacheBytes(config.engine.kv_page_positions);
  Stack stack;
  stack.plat = std::make_unique<SocPlatform>();
  stack.runtime = std::make_unique<SystemRuntime>(stack.plat.get(), config);
  Check(stack.runtime->Setup(), "SystemRuntime::Setup");
  stack.ta = Take(stack.runtime->CreateFunctionalTa(), "CreateFunctionalTa");
  Check(stack.ta->LoadModel(spec_->config().name), "LoadModel");
  Unit unit;
  std::vector<std::vector<TokenId>> outputs;
  const auto t0 = Clock::now();
  Serve(&stack, bursts_[0], &unit, &outputs);
  unit.wall_s = SecondsBetween(t0, Clock::now());
  for (size_t i = 0; i < outputs.size(); ++i) {
    Verify(bursts_[0][i], outputs[i]);
  }
  UnloadTa(&stack);
  return unit;
}

void Bench::Verify(const Req& req, const std::vector<TokenId>& tokens) {
  ++checked_;
  if (tokens != req.expected) {
    ++mismatched_;
    fprintf(stderr,
            "tzbench: %zu output tokens differ from the reference's %zu "
            "(prompt of %llu tokens)\n",
            tokens.size(), req.expected.size(),
            static_cast<unsigned long long>(req.prompt_tokens));
  }
}

int Bench::Run() {
  const double ref_ms_start = RefLoopMs(args_.seed);
  MakeTraffic();

  // Set up at least 3 times and for at least 2 s (a 0.1-s setup needs more
  // samples to hold still); the median is setup_s. The last stack serves
  // the timed phase, the others are torn down first.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  tracer_.on = args_.trace;
  tracer_.phase = kSetup;
  Stack stack;
  while (setup_s.size() < 3 || setup_total_s < 2.0) {
    if (stack.ta != nullptr) {
      UnloadTa(&stack);
    }
    stack = Stack();
    const auto t0 = Clock::now();
    stack = SetUp();
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    setup_total_s += setup_s.back();
  }
  if (const KvArena* arena =
          stack.ta != nullptr ? stack.ta->kv_arena() : nullptr;
      arena != nullptr && arena->paged()) {
    kv_reserved_bytes_ = arena->ArenaBytes();
    kv_page_bytes_ = arena->pool()->page_bytes();
  }

  // Timed phase: whole units until --seconds have passed, and at least one
  // full cycle of unit types — on cold-start at least 20 units, so TTFT p50
  // has 10 samples beyond it. Traced runs alternate traced and untraced
  // units.
  const bool cold = args_.workload == "cold-start";
  const size_t min_units = cold ? 20 : std::max<size_t>(bursts_.size(), 2);
  tracer_.phase = kTimed;
  const auto timed0 = Clock::now();
  while (units_.size() < min_units ||
         SecondsBetween(timed0, Clock::now()) < args_.seconds) {
    const size_t u = units_.size();
    tracer_.on = args_.trace && u % 2 == 0;
    Unit unit = cold ? ColdStart(&stack, cold_[u % cold_.size()])
                     : Burst(&stack, bursts_[u % bursts_.size()]);
    unit.traced = tracer_.on;
    units_.push_back(std::move(unit));
  }
  const double timed_s = SecondsBetween(timed0, Clock::now());
  const double peak_rss = PeakRssBytes();

  tracer_.phase = kAfter;
  tracer_.on = args_.trace;
  if (cold && args_.trace) {
    // cold-start never ticks the scheduler; one solo request through the
    // serving runtime gives the serve.* layers something to report.
    stack.ta = Take(stack.runtime->CreateFunctionalTa(), "CreateFunctionalTa");
    Check(stack.ta->LoadModel(spec_->config().name), "LoadModel");
    Unit probe;
    std::vector<std::vector<TokenId>> outputs;
    Serve(&stack, {probe_}, &probe, &outputs);
    Verify(probe_, outputs[0]);
  }
  if (stack.ta != nullptr) {
    UnloadTa(&stack);
  }
  stack = Stack();
  if (!cold && args_.trace) {
    // Untraced, so its smaller pool leaves the spans and the residency
    // peak to the timed phase.
    tracer_.on = false;
    spill_probe_.push_back(SpillProbe());
  }
  const HostProbe probe = args_.trace ? ProbeHost(args_.seed) : HostProbe{};
  const double ref_ms_end = RefLoopMs(args_.seed + 1);
  Emit(setup_s, timed_s, peak_rss, ref_ms_start, ref_ms_end, probe);
  return mismatched_ == 0 ? 0 : 3;
}

void Bench::Emit(const std::vector<double>& setup_s, double timed_s,
                 double peak_rss, double ref_ms_start, double ref_ms_end,
                 const HostProbe& probe) {
  Json j;
  j.Open()
      .Str("workload", args_.workload)
      .Int("seed", args_.seed)
      .Int("trace", args_.trace ? 1 : 0);
  j.Open("meta")
      .Int("nproc", std::thread::hardware_concurrency())
      .Str("cpu", CpuModel())
      .Str("simd", SimdIsaName(ActiveKernels()->isa))
      .Int("n_threads", Config().engine.n_threads)
      .Str("model", spec_->config().name)
      .Int("param_bytes", spec_->total_param_bytes())
      .Int("decode_weight_bytes", DecodeWeightBytes(*spec_))
      .Int("cycle_units", cold_.empty() ? bursts_.size() : cold_.size())
      .Close();
  j.Nums("setup_s", setup_s);
  j.Num("timed_s", timed_s);
  j.Num("peak_rss_bytes", peak_rss);
  j.Int("params_peak_bytes", params_peak_);
  j.Int("scratch_peak_bytes", scratch_peak_);
  j.Int("kv_reserved_bytes", kv_reserved_bytes_);
  j.Int("kv_page_bytes", kv_page_bytes_);
  j.Int("kv_resident_max_bytes", kv_resident_max_);
  j.Open("check")
      .Int("requests", checked_)
      .Int("mismatched", mismatched_)
      .Close();
  j.Open("host")
      .Num("ref_ms_start", ref_ms_start)
      .Num("ref_ms_end", ref_ms_end)
      .Num("aes_ctr_mbps", probe.aes_ctr_mbps)
      .Num("sha256_mbps", probe.sha256_mbps)
      .Num("stream_gbps", probe.stream_gbps)
      .Close();
  for (const auto& [key, units] :
       {std::pair{"units", &units_}, std::pair{"spill_probe", &spill_probe_}}) {
    j.OpenArray(key);
    for (const Unit& u : *units) {
      j.Open()
          .Int("traced", u.traced ? 1 : 0)
          .Num("wall_s", u.wall_s)
          .Int("out_tokens", u.out_tokens)
          .Int("sent", u.sent)
          .Int("prompt_tokens", u.prompt_tokens)
          .Nums("ttft_ms", u.ttft_ms)
          .Nums("itl_ms", u.itl_ms);
      u.before.Write(&j, "before");
      u.after.Write(&j, "after");
      j.Close();
    }
    j.CloseArray();
  }
  j.OpenArray("loads");
  for (const Load& l : loads_) {
    j.Open().Int("phase", l.phase);
    l.before.Write(&j, "before");
    l.after.Write(&j, "after");
    j.Close();
  }
  j.CloseArray();
  tracer_.Write(&j);
  j.Close();
  fwrite(j.str().data(), 1, j.str().size(), stdout);
  fputc('\n', stdout);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return args->workload == "cold-start" || args->workload == "chat-serve";
}

}  // namespace
}  // namespace tzllm

int main(int argc, char** argv) {
  tzllm::Args args;
  if (argc % 2 == 0 || !tzllm::ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: tzbench --workload cold-start|chat-serve --seed N "
            "--seconds S --trace 0|1\n");
    return 2;
  }
  tzllm::SetLogLevel(tzllm::LogLevel::kWarn);
  return tzllm::Bench(args).Run();
}

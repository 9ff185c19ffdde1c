// Figure 13: pipelining + preemptive scheduling ablation. TZ-LLM (full) vs
// TZ-LLM(-preempt) (priority, no micro-operator preemption) vs
// TZ-LLM(-pipeline) (restoration strictly before computation).
//
// PR 6 revives the second half of the figure's story on the FUNCTIONAL
// path: a generation session checkpointed mid-decode (KV arena + sampler
// RNG + position sealed to flash under the model key), evicted, and
// restored — on the same TA and on a freshly booted one ("crash") — with
// greedy-token-identical resumption, plus a recovery-under-fault run
// through the NPU fault-injection harness. Emits BENCH_preemption.json so
// CI can gate on tokens_identical (scripts/check_bench_regression.py
// --preemption).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_common.h"
#include "src/core/runtime.h"
#include "src/llm/model_spec.h"

namespace tzllm {
namespace {

using WallClock = std::chrono::steady_clock;

double MsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count() * 1e3;
}

SimDuration Ttft(const LlmConfig& model, int prompt, SchedulePolicy policy,
                 bool pipelined) {
  BenchSystem sys = BenchSystem::Create(SystemKind::kTzLlm, model,
                                        PaperStressBytes(model), policy,
                                        pipelined);
  InferenceRequest req;
  req.prompt_tokens = prompt;
  const InferenceReport report = sys.runtime->RunInference(req);
  return report.status.ok() ? report.ttft : 0;
}

void RunPaperAblation() {
  PrintHeader("Figure 13",
              "Effect of preemptive pipeline scheduling on TTFT (s)");
  for (const LlmConfig& model : {Qwen2_5_3B(), Llama3_8B()}) {
    printf("\n--- %s ---\n", model.name.c_str());
    PrintRow({"prompt", "TZ-LLM", "-preempt", "-pipeline", "preempt gain",
              "pipeline gain"},
             15);
    for (int prompt : {32, 128, 512}) {
      const SimDuration full = Ttft(
          model, prompt, SchedulePolicy::kPriorityPreemptive, true);
      const SimDuration nopre =
          Ttft(model, prompt, SchedulePolicy::kPriority, true);
      const SimDuration nopipe =
          Ttft(model, prompt, SchedulePolicy::kPriority, false);
      PrintRow(
          {Fmt("%.0f", prompt), Seconds(full), Seconds(nopre),
           Seconds(nopipe),
           Fmt("%+.1f%%", (ToSeconds(full) / ToSeconds(nopre) - 1.0) * 100),
           Fmt("%+.1f%%",
               (ToSeconds(nopre) / ToSeconds(nopipe) - 1.0) * 100)},
          15);
    }
  }
  printf("\npaper: the pipeline cuts TTFT by up to 31.7%% vs no-pipeline; "
         "preemption cuts up to another 16.2%%.\n");
}

// --- Functional session preemption (real bytes, real sealed blobs). ---

constexpr char kPrompt[] = "preempt and resume this generation";
constexpr int kBudget = 10;
constexpr int kStepsBeforeCheckpoint = 3;

RuntimeConfig FunctionalConfig(bool use_npu) {
  RuntimeConfig config;
  config.model = TestSmallModel();
  config.system = SystemKind::kTzLlm;
  config.use_npu = use_npu;
  config.materialize_model = true;
  config.engine.prefill_batch = 8;
  config.engine.npu_prefill = use_npu;
  return config;
}

struct SessionBenchResult {
  double checkpoint_ms = 0.0;     // Seal + evict (wall).
  double restore_ms = 0.0;        // Same-TA restore (wall).
  double crash_restore_ms = 0.0;  // Fresh-TA restore after Unload (wall).
  bool tokens_identical = false;
  bool crash_tokens_identical = false;
  int output_tokens = 0;
};

GenerationResult UninterruptedReference() {
  SocPlatform plat;
  SystemRuntime runtime(&plat, FunctionalConfig(false));
  if (!runtime.Setup().ok()) {
    fprintf(stderr, "runtime setup failed\n");
    abort();
  }
  auto ta = runtime.CreateFunctionalTa();
  if (!ta.ok() || !(*ta)->LoadModel(runtime.spec().config().name).ok()) {
    fprintf(stderr, "functional TA setup failed\n");
    abort();
  }
  auto out = (*ta)->Generate(kPrompt, kBudget);
  if (!out.ok()) {
    fprintf(stderr, "reference generation failed: %s\n",
            out.status().ToString().c_str());
    abort();
  }
  return *out;
}

// Drives the session to completion and returns its result.
Result<GenerationResult> RunToCompletion(LlmTa* ta, SessionId sid) {
  while (!ta->session_done(sid)) {
    auto more = ta->StepSession(sid, kBudget);
    if (!more.ok()) {
      return more.status();
    }
    if (*more == 0) {
      break;
    }
  }
  return ta->FinishSession(sid);
}

SessionBenchResult MeasureSessionPreemption() {
  const GenerationResult reference = UninterruptedReference();
  SessionBenchResult out;
  out.output_tokens = static_cast<int>(reference.output_tokens.size());

  // Same-TA checkpoint -> evict -> restore -> resume.
  {
    SocPlatform plat;
    SystemRuntime runtime(&plat, FunctionalConfig(false));
    if (!runtime.Setup().ok()) {
      abort();
    }
    auto ta = runtime.CreateFunctionalTa();
    if (!ta.ok() || !(*ta)->LoadModel(runtime.spec().config().name).ok()) {
      fprintf(stderr, "session setup failed\n");
      abort();
    }
    auto sid = (*ta)->BeginSession(kPrompt, kBudget);
    if (!sid.ok() || !(*ta)->StepSession(*sid, kStepsBeforeCheckpoint).ok()) {
      fprintf(stderr, "session setup failed\n");
      abort();
    }
    auto t0 = WallClock::now();
    if (!(*ta)->CheckpointSession(*sid).ok()) {
      fprintf(stderr, "checkpoint failed\n");
      abort();
    }
    out.checkpoint_ms = MsSince(t0);
    t0 = WallClock::now();
    if (!(*ta)->RestoreSession(*sid).ok()) {
      fprintf(stderr, "restore failed\n");
      abort();
    }
    out.restore_ms = MsSince(t0);
    auto resumed = RunToCompletion(ta->get(), *sid);
    out.tokens_identical =
        resumed.ok() && resumed->output_tokens == reference.output_tokens;
  }

  // Crash consistency: checkpoint, Unload (drop the TA entirely), boot a
  // fresh TA over the same model, restore from flash alone.
  {
    SocPlatform plat;
    SystemRuntime runtime(&plat, FunctionalConfig(false));
    if (!runtime.Setup().ok()) {
      abort();
    }
    SessionId crashed_sid = 0;
    {
      auto ta = runtime.CreateFunctionalTa();
      if (!ta.ok() || !(*ta)->LoadModel(runtime.spec().config().name).ok()) {
        fprintf(stderr, "crash-run setup failed\n");
        abort();
      }
      auto sid = (*ta)->BeginSession(kPrompt, kBudget);
      if (!sid.ok() ||
          !(*ta)->StepSession(*sid, kStepsBeforeCheckpoint).ok() ||
          !(*ta)->CheckpointSession(*sid).ok() || !(*ta)->Unload().ok()) {
        fprintf(stderr, "crash-run setup failed\n");
        abort();
      }
      crashed_sid = *sid;
    }
    auto ta2 = runtime.CreateFunctionalTa();
    if (!ta2.ok() || !(*ta2)->LoadModel(runtime.spec().config().name).ok()) {
      fprintf(stderr, "fresh TA boot failed\n");
      abort();
    }
    const auto t0 = WallClock::now();
    // The handle survives the crash: the sealed blob carries its id, so the
    // fresh TA resumes the SAME session under the same handle.
    if (!(*ta2)->RestoreSession(crashed_sid).ok()) {
      fprintf(stderr, "crash restore failed\n");
      abort();
    }
    out.crash_restore_ms = MsSince(t0);
    auto resumed = RunToCompletion(ta2->get(), crashed_sid);
    out.crash_tokens_identical =
        resumed.ok() && resumed->output_tokens == reference.output_tokens;
  }
  return out;
}

struct FaultBenchResult {
  std::string plan;
  bool completed = false;
  bool tokens_identical = false;
  uint64_t faults_injected = 0;
  uint64_t jobs_recovered = 0;
  uint64_t fallback_jobs = 0;
  uint64_t fallback_matmuls = 0;
};

// Recovery under fault: generate through the NPU offload path with the
// injection harness armed (TZLLM_FAULT_PLAN if set, else a default
// transient payload fault) and check the degraded run still produces the
// uninterrupted CPU run's tokens — recovery is bit-identical by
// construction (retry re-runs the same job; fallback re-runs the same
// matmul group through the same kernel table).
FaultBenchResult MeasureRecoveryUnderFault(
    const GenerationResult& reference) {
  FaultBenchResult out;
  const char* env = std::getenv("TZLLM_FAULT_PLAN");
  out.plan = (env != nullptr && env[0] != '\0') ? env : "payload@3";

  RuntimeConfig config = FunctionalConfig(true);
  config.engine.fault_plan = out.plan;
  // Keep timeout-class sweeps on a deadline proportionate to test-small
  // jobs, not the 2 s default meant for paper-scale models.
  config.engine.npu_job_timeout = 25 * kMillisecond;
  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  if (!runtime.Setup().ok()) {
    abort();
  }
  auto ta = runtime.CreateFunctionalTa();
  if (!ta.ok() || !(*ta)->LoadModel(runtime.spec().config().name).ok()) {
    fprintf(stderr, "fault-run TA setup failed\n");
    abort();
  }
  auto out_gen = (*ta)->Generate(kPrompt, kBudget);
  out.completed = out_gen.ok();
  out.tokens_identical =
      out_gen.ok() && out_gen->output_tokens == reference.output_tokens;
  const TeeNpuDriver& driver = runtime.tee_npu();
  out.faults_injected = driver.faults_injected();
  out.jobs_recovered = driver.jobs_recovered();
  out.fallback_jobs = driver.fallback_jobs();
  out.fallback_matmuls = driver.fallback_matmuls();
  if (!out_gen.ok()) {
    fprintf(stderr, "fault-run generation failed: %s\n",
            out_gen.status().ToString().c_str());
  }
  return out;
}

void RunSessionPreemption() {
  printf("\n");
  PrintHeader("Figure 13b",
              "Functional session checkpoint/evict/restore + fault recovery");
  const SessionBenchResult sess = MeasureSessionPreemption();
  printf("model=test-small  prompt=\"%s\"  budget=%d  checkpoint after %d "
         "decode steps\n",
         kPrompt, kBudget, kStepsBeforeCheckpoint);
  PrintRow({"operation", "wall ms", "tokens identical"}, 20);
  PrintRow({"checkpoint+evict", Fmt("%.3f", sess.checkpoint_ms), "-"}, 20);
  PrintRow({"restore (same TA)", Fmt("%.3f", sess.restore_ms),
            sess.tokens_identical ? "yes" : "NO"},
           20);
  PrintRow({"restore (fresh TA)", Fmt("%.3f", sess.crash_restore_ms),
            sess.crash_tokens_identical ? "yes" : "NO"},
           20);

  const GenerationResult reference = UninterruptedReference();
  const FaultBenchResult fault = MeasureRecoveryUnderFault(reference);
  printf("\nrecovery under fault (%s): %s, tokens %s, %llu faults "
         "injected, %llu jobs recovered by retry, %llu jobs -> CPU fallback "
         "(%llu matmuls)\n",
         fault.plan.c_str(), fault.completed ? "completed" : "FAILED",
         fault.tokens_identical ? "identical" : "DIVERGED",
         static_cast<unsigned long long>(fault.faults_injected),
         static_cast<unsigned long long>(fault.jobs_recovered),
         static_cast<unsigned long long>(fault.fallback_jobs),
         static_cast<unsigned long long>(fault.fallback_matmuls));

  FILE* json = fopen("BENCH_preemption.json", "w");
  if (json != nullptr) {
    fprintf(json, "{\n");
    fprintf(json, "  \"model\": \"test-small\",\n");
    fprintf(json, "  \"budget\": %d,\n", kBudget);
    fprintf(json, "  \"steps_before_checkpoint\": %d,\n",
            kStepsBeforeCheckpoint);
    fprintf(json, "  \"output_tokens\": %d,\n", sess.output_tokens);
    fprintf(json, "  \"checkpoint_ms\": %.4f,\n", sess.checkpoint_ms);
    fprintf(json, "  \"restore_ms\": %.4f,\n", sess.restore_ms);
    fprintf(json, "  \"crash_restore_ms\": %.4f,\n", sess.crash_restore_ms);
    fprintf(json, "  \"tokens_identical\": %s,\n",
            sess.tokens_identical ? "true" : "false");
    fprintf(json, "  \"crash_tokens_identical\": %s,\n",
            sess.crash_tokens_identical ? "true" : "false");
    fprintf(json, "  \"fault\": {\n");
    fprintf(json, "    \"plan\": \"%s\",\n", fault.plan.c_str());
    fprintf(json, "    \"completed\": %s,\n",
            fault.completed ? "true" : "false");
    fprintf(json, "    \"tokens_identical\": %s,\n",
            fault.tokens_identical ? "true" : "false");
    fprintf(json, "    \"faults_injected\": %llu,\n",
            static_cast<unsigned long long>(fault.faults_injected));
    fprintf(json, "    \"jobs_recovered\": %llu,\n",
            static_cast<unsigned long long>(fault.jobs_recovered));
    fprintf(json, "    \"fallback_jobs\": %llu,\n",
            static_cast<unsigned long long>(fault.fallback_jobs));
    fprintf(json, "    \"fallback_matmuls\": %llu\n",
            static_cast<unsigned long long>(fault.fallback_matmuls));
    fprintf(json, "  }\n");
    fprintf(json, "}\n");
    fclose(json);
    printf("wrote BENCH_preemption.json\n");
  }
}

}  // namespace
}  // namespace tzllm

int main() {
  tzllm::RunPaperAblation();
  tzllm::RunSessionPreemption();
  return 0;
}

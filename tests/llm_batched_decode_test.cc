// Batched multi-session decode parity (ISSUE 8): DecodeSessions advances K
// concurrent sessions with one MatMatQ8 per layer across all of them, and
// the result must be BIT-IDENTICAL per session to running each prompt alone
// on an otherwise identical engine. That identity is what lets the serving
// runtime batch sessions freely: batching is a throughput decision, never a
// quality decision. Covered across the kernel matrix (threads 1/auto x SIMD
// auto/forced-scalar).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/runtime.h"

namespace tzllm {
namespace {

constexpr int kBudget = 12;

const std::vector<std::string>& Prompts() {
  static const std::vector<std::string> prompts = {
      "first concurrent session prompt",
      "a rather different second prompt for the batch",
      "third prompt",
  };
  return prompts;
}

RuntimeConfig Config(int max_sessions, int n_threads, bool force_scalar) {
  RuntimeConfig config;
  config.model = TestSmallModel();
  config.system = SystemKind::kTzLlm;
  config.materialize_model = true;
  config.engine.prefill_batch = 8;
  config.engine.max_sessions = max_sessions;
  config.engine.n_threads = n_threads;
  config.engine.force_scalar = force_scalar;
  return config;
}

// Each prompt generated alone — the bit-identity reference.
std::vector<GenerationResult> SoloRuns(int n_threads, bool force_scalar) {
  SocPlatform plat;
  SystemRuntime runtime(&plat, Config(1, n_threads, force_scalar));
  EXPECT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  EXPECT_TRUE(ta.ok());
  EXPECT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());
  std::vector<GenerationResult> out;
  for (const std::string& prompt : Prompts()) {
    auto result = (*ta)->Generate(prompt, kBudget);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.push_back(result.ok() ? *result : GenerationResult{});
  }
  return out;
}

// All prompts live on one TA, advanced in lockstep through DecodeSessions.
std::vector<GenerationResult> ConcurrentRun(int n_threads, bool force_scalar) {
  RuntimeConfig config =
      Config(static_cast<int>(Prompts().size()), n_threads, force_scalar);
  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  EXPECT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  EXPECT_TRUE(ta.ok());
  EXPECT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  std::vector<SessionId> sids;
  for (const std::string& prompt : Prompts()) {
    auto sid = (*ta)->BeginSession(prompt, kBudget);
    EXPECT_TRUE(sid.ok()) << sid.status().ToString();
    sids.push_back(sid.ok() ? *sid : 0);
  }

  // Sessions finish at different times (EOS); keep batching the live ones.
  for (;;) {
    std::vector<SessionId> running;
    for (SessionId sid : sids) {
      if (!(*ta)->session_done(sid)) {
        running.push_back(sid);
      }
    }
    if (running.empty()) {
      break;
    }
    Status step = (*ta)->DecodeSessions(running);
    EXPECT_TRUE(step.ok()) << step.ToString();
    if (!step.ok()) {
      break;
    }
  }

  std::vector<GenerationResult> out;
  for (SessionId sid : sids) {
    auto result = (*ta)->FinishSession(sid);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.push_back(result.ok() ? *result : GenerationResult{});
  }
  return out;
}

void ExpectIdentical(const std::vector<GenerationResult>& solo,
                     const std::vector<GenerationResult>& batched) {
  ASSERT_EQ(solo.size(), batched.size());
  for (size_t i = 0; i < solo.size(); ++i) {
    ASSERT_GT(solo[i].output_tokens.size(), 0u) << "prompt " << i;
    EXPECT_EQ(batched[i].output_tokens, solo[i].output_tokens)
        << "prompt " << i << " diverged under batched decode";
    EXPECT_EQ(batched[i].text, solo[i].text) << "prompt " << i;
  }
}

class BatchedDecodeParityTest
    : public ::testing::TestWithParam<std::pair<int, bool>> {};

TEST_P(BatchedDecodeParityTest, ConcurrentSessionsMatchSoloBitIdentically) {
  const auto [n_threads, force_scalar] = GetParam();
  const auto solo = SoloRuns(n_threads, force_scalar);
  const auto batched = ConcurrentRun(n_threads, force_scalar);
  ExpectIdentical(solo, batched);
}

INSTANTIATE_TEST_SUITE_P(
    KernelMatrix, BatchedDecodeParityTest,
    ::testing::Values(std::make_pair(1, false), std::make_pair(0, false),
                      std::make_pair(1, true), std::make_pair(0, true)),
    [](const ::testing::TestParamInfo<std::pair<int, bool>>& info) {
      return std::string("threads") +
             (info.param.first == 0 ? "auto"
                                    : std::to_string(info.param.first)) +
             (info.param.second ? "_scalar" : "_simd");
    });

TEST(BatchedDecodeTest, DecodeSessionsRejectsMisuse) {
  SocPlatform plat;
  SystemRuntime runtime(&plat, Config(2, 1, false));
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  auto sid = (*ta)->BeginSession(Prompts()[0], kBudget);
  ASSERT_TRUE(sid.ok());

  // A session may appear at most once per batch.
  EXPECT_EQ((*ta)->DecodeSessions({*sid, *sid}).code(),
            ErrorCode::kInvalidArgument);
  // Unknown handles fail closed.
  EXPECT_EQ((*ta)->DecodeSessions({*sid, SessionId{999}}).code(),
            ErrorCode::kFailedPrecondition);
  // An admitted-but-unprefilled session cannot decode yet.
  auto admitted = (*ta)->AdmitSession(Prompts()[1], kBudget);
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ((*ta)->DecodeSessions({*admitted}).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_TRUE((*ta)->AbandonSession(*admitted).ok());
  EXPECT_TRUE((*ta)->AbandonSession(*sid).ok());
}

TEST(BatchedDecodeTest, ArenaExhaustionIsResourceExhausted) {
  SocPlatform plat;
  SystemRuntime runtime(&plat, Config(2, 1, false));
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  auto a = (*ta)->BeginSession(Prompts()[0], kBudget);
  ASSERT_TRUE(a.ok());
  auto b = (*ta)->BeginSession(Prompts()[1], kBudget);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*ta)->free_session_slots(), 0);
  // With max_sessions > 1 a full arena is kResourceExhausted (the legacy
  // "already active" FailedPrecondition is reserved for max_sessions == 1).
  EXPECT_EQ((*ta)->BeginSession(Prompts()[2], kBudget).status().code(),
            ErrorCode::kResourceExhausted);
  // Finishing one session frees its slot for the next admission.
  ASSERT_TRUE((*ta)->FinishSession(*a).ok());
  EXPECT_EQ((*ta)->free_session_slots(), 1);
  auto c = (*ta)->BeginSession(Prompts()[2], kBudget);
  EXPECT_TRUE(c.ok()) << c.status().ToString();
}

}  // namespace
}  // namespace tzllm

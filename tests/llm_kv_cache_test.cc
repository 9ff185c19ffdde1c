#include "src/llm/kv_cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/llm/tensor.h"

namespace tzllm {
namespace {

class KvCacheTest : public ::testing::Test {
 protected:
  KvCacheTest() : spec_(ModelSpec::Create(TestTinyModel())), kv_(spec_) {}

  int kv_dim() const { return spec_.config().kv_dim(); }
  int n_layers() const { return spec_.config().n_layers; }
  int max_ctx() const { return spec_.config().max_ctx; }

  // Small integers: exactly representable at f16, so f16-mode round trips
  // can assert equality rather than tolerance.
  std::vector<float> Vec(float base) const {
    std::vector<float> v(kv_dim());
    for (int i = 0; i < kv_dim(); ++i) {
      v[i] = base + i;
    }
    return v;
  }

  ModelSpec spec_;
  KvCache kv_;
};

TEST_F(KvCacheTest, AppendRoundTripsThroughF16) {
  const auto k = Vec(1.0f), v = Vec(100.0f);
  ASSERT_TRUE(kv_.AppendBatch(0, 1, k.data(), v.data()).ok());
  for (int i = 0; i < kv_dim(); ++i) {
    EXPECT_EQ(F16ToF32(kv_.KeyHalfAt(0, 0)[i]), k[i]);
    EXPECT_EQ(F16ToF32(kv_.ValueHalfAt(0, 0)[i]), v[i]);
  }
}

TEST_F(KvCacheTest, F16RoundTripIsRoundToNearest) {
  // Non-representable values land on the nearest f16, not garbage: the
  // storage really is half-precision, within its ~2^-11 relative step.
  std::vector<float> k(kv_dim()), v(kv_dim());
  for (int i = 0; i < kv_dim(); ++i) {
    k[i] = 0.1f + 0.001f * i;
    v[i] = -1.0f / (i + 3);
  }
  ASSERT_TRUE(kv_.AppendBatch(0, 1, k.data(), v.data()).ok());
  for (int i = 0; i < kv_dim(); ++i) {
    EXPECT_NEAR(F16ToF32(kv_.KeyHalfAt(0, 0)[i]), k[i],
                std::abs(k[i]) * 1e-3f + 1e-6f);
    EXPECT_NEAR(F16ToF32(kv_.ValueHalfAt(0, 0)[i]), v[i],
                std::abs(v[i]) * 1e-3f + 1e-6f);
    EXPECT_EQ(kv_.KeyHalfAt(0, 0)[i], F32ToF16(k[i]));
  }
}

TEST_F(KvCacheTest, AppendBatchMatchesSequentialAppends) {
  const int m = 5;
  std::vector<float> ks, vs;
  for (int p = 0; p < m; ++p) {
    const auto k = Vec(p * 10.0f), v = Vec(p * 10.0f + 500.0f);
    ks.insert(ks.end(), k.begin(), k.end());
    vs.insert(vs.end(), v.begin(), v.end());
  }
  ASSERT_TRUE(kv_.AppendBatch(0, m, ks.data(), vs.data()).ok());

  KvCache seq(spec_);
  for (int p = 0; p < m; ++p) {
    ASSERT_TRUE(seq.AppendBatch(0, 1, ks.data() + p * kv_dim(),
                                vs.data() + p * kv_dim())
                    .ok());
  }
  for (int p = 0; p < m; ++p) {
    for (int i = 0; i < kv_dim(); ++i) {
      EXPECT_EQ(kv_.KeyHalfAt(0, p)[i], seq.KeyHalfAt(0, p)[i]);
      EXPECT_EQ(kv_.ValueHalfAt(0, p)[i], seq.ValueHalfAt(0, p)[i]);
    }
  }
}

TEST_F(KvCacheTest, StandaloneCacheIsContiguousPerLayer) {
  // The whole point of the one-page layout: consecutive positions of a
  // layer are adjacent in memory (attention walks sequential cache lines).
  std::vector<float> zeros(2 * kv_dim(), 0.0f);
  ASSERT_TRUE(kv_.AppendBatch(1, 2, zeros.data(), zeros.data()).ok());
  EXPECT_EQ(kv_.KeyHalfAt(1, 1), kv_.KeyHalfAt(1, 0) + kv_dim());
  EXPECT_EQ(kv_.ValueHalfAt(1, 1), kv_.ValueHalfAt(1, 0) + kv_dim());
}

TEST_F(KvCacheTest, RejectsBadLayerAndBadBatch) {
  const auto k = Vec(0.0f), v = Vec(0.0f);
  EXPECT_FALSE(kv_.AppendBatch(-1, 1, k.data(), v.data()).ok());
  EXPECT_FALSE(kv_.AppendBatch(n_layers(), 1, k.data(), v.data()).ok());
  EXPECT_FALSE(kv_.AppendBatch(0, 0, k.data(), v.data()).ok());
  EXPECT_FALSE(kv_.AppendBatch(0, -3, k.data(), v.data()).ok());
}

TEST_F(KvCacheTest, EnforcesContextLimit) {
  const auto k = Vec(0.0f), v = Vec(0.0f);
  for (int p = 0; p < max_ctx(); ++p) {
    ASSERT_TRUE(kv_.AppendBatch(0, 1, k.data(), v.data()).ok()) << p;
  }
  EXPECT_FALSE(kv_.AppendBatch(0, 1, k.data(), v.data()).ok());
  // A batch that would cross the limit is rejected atomically.
  KvCache kv2(spec_);
  std::vector<float> big((max_ctx() + 1) * kv_dim(), 0.0f);
  EXPECT_FALSE(kv2.AppendBatch(0, max_ctx() + 1, big.data(), big.data()).ok());
  EXPECT_EQ(kv2.CurrentBytes(), 0u);
}

TEST_F(KvCacheTest, CurrentBytesTracksPerLayerFills) {
  EXPECT_EQ(kv_.CurrentBytes(), 0u);
  const auto k = Vec(0.0f), v = Vec(0.0f);
  const uint64_t per_position =
      static_cast<uint64_t>(kv_dim()) * kKvVectorsPerPosition *
      kKvAccountedBytesPerElem;

  // Mid-forward-pass: only some layers have appended the current position.
  ASSERT_TRUE(kv_.AppendBatch(0, 1, k.data(), v.data()).ok());
  EXPECT_EQ(kv_.CurrentBytes(), per_position);
  ASSERT_TRUE(kv_.AppendBatch(1, 1, k.data(), v.data()).ok());
  EXPECT_EQ(kv_.CurrentBytes(), 2 * per_position);
  kv_.FinishPositions(1);
  EXPECT_EQ(kv_.seq_len(), 1);
  EXPECT_EQ(kv_.CurrentBytes(), 2 * per_position);
}

// The ISSUE 2 regression: accounted bytes must equal the bytes actually
// resident in the arena — the seed accounted f16 (2 B/elem) while storing
// f32, silently under-reporting by 2x. Filling the whole cache makes the
// comparison exact: every accounted entry is arena-resident and vice versa.
TEST_F(KvCacheTest, CurrentBytesEqualsResidentArenaBytes) {
  std::vector<float> row(static_cast<size_t>(max_ctx()) * kv_dim(), 0.25f);
  for (int l = 0; l < n_layers(); ++l) {
    ASSERT_TRUE(kv_.AppendBatch(l, max_ctx(), row.data(), row.data()).ok());
  }
  kv_.FinishPositions(max_ctx());
  EXPECT_EQ(kv_.CurrentBytes(), kv_.ArenaBytes());
  // And the accounting identity holds element-wise: positions * kv_dim * 2
  // vectors * sizeof(stored element).
  EXPECT_EQ(kv_.CurrentBytes(),
            static_cast<uint64_t>(n_layers()) * max_ctx() * kv_dim() *
                kKvVectorsPerPosition * sizeof(uint16_t));
}

TEST_F(KvCacheTest, ArenaBytesMatchSpecKvCacheBytes) {
  // ModelSpec's scratch-budget accounting (f16) matches the real arena.
  EXPECT_EQ(kv_.ArenaBytes(), spec_.KvCacheBytes(max_ctx()));
}

TEST_F(KvCacheTest, ResetClearsEverything) {
  const auto k = Vec(3.0f), v = Vec(4.0f);
  for (int l = 0; l < n_layers(); ++l) {
    ASSERT_TRUE(kv_.AppendBatch(l, 1, k.data(), v.data()).ok());
  }
  kv_.FinishPositions(1);
  EXPECT_EQ(kv_.seq_len(), 1);
  EXPECT_GT(kv_.CurrentBytes(), 0u);

  kv_.Reset();
  EXPECT_EQ(kv_.seq_len(), 0);
  EXPECT_EQ(kv_.CurrentBytes(), 0u);
  // Reusable after reset.
  ASSERT_TRUE(kv_.AppendBatch(0, 2, std::vector<float>(2 * kv_dim(), 1.f).data(),
                              std::vector<float>(2 * kv_dim(), 2.f).data())
                  .ok());
  kv_.FinishPositions(2);
  EXPECT_EQ(kv_.seq_len(), 2);
}

}  // namespace
}  // namespace tzllm

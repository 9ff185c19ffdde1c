#include "src/llm/tzguf.h"

#include <gtest/gtest.h>

#include "src/hw/platform.h"

namespace tzllm {
namespace {

class TzgufTest : public ::testing::Test {
 protected:
  TzgufTest() : keys_(4242), spec_(ModelSpec::Create(TestTinyModel())) {}

  SocPlatform plat_;
  KeyHierarchy keys_;
  ModelSpec spec_;
};

TEST_F(TzgufTest, ProvisionCreatesThreeFiles) {
  auto meta = Tzguf::Provision(&plat_.flash(), keys_, "m", spec_, 7, true);
  ASSERT_TRUE(meta.ok());
  EXPECT_TRUE(plat_.flash().Exists("m.key"));
  EXPECT_TRUE(plat_.flash().Exists("m.meta"));
  EXPECT_TRUE(plat_.flash().Exists("m.data"));
  EXPECT_EQ(*plat_.flash().FileSize("m.data"), spec_.total_param_bytes());
}

TEST_F(TzgufTest, PaperScaleModelsMustBeSynthetic) {
  const ModelSpec big = ModelSpec::Create(Llama3_8B());
  EXPECT_FALSE(
      Tzguf::Provision(&plat_.flash(), keys_, "big", big, 7, true).ok());
  auto synthetic =
      Tzguf::Provision(&plat_.flash(), keys_, "big", big, 7, false);
  ASSERT_TRUE(synthetic.ok());
  EXPECT_FALSE(synthetic->materialized);
  EXPECT_EQ(*plat_.flash().FileSize("big.data"), big.total_param_bytes());
}

TEST_F(TzgufTest, DataOnFlashIsCiphertext) {
  ASSERT_TRUE(
      Tzguf::Provision(&plat_.flash(), keys_, "m", spec_, 7, true).ok());
  const std::vector<Tensor> plain = Tzguf::ReferenceWeights(spec_, 7);
  const TensorSpec& t0 = spec_.tensor(0);
  std::vector<uint8_t> on_flash(t0.data_bytes);
  ASSERT_TRUE(plat_.flash()
                  .PeekBytes("m.data", t0.file_offset, t0.data_bytes,
                             on_flash.data())
                  .ok());
  EXPECT_NE(on_flash, plain[0].data);
}

TEST_F(TzgufTest, MetaRoundTripWithCorrectKey) {
  ASSERT_TRUE(
      Tzguf::Provision(&plat_.flash(), keys_, "m", spec_, 7, true).ok());
  const AesKey128 key = keys_.DeriveModelKey("m");
  auto meta = Tzguf::ReadMeta(&plat_.flash(), "m", key);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->model_id, "m");
  EXPECT_EQ(meta->config.n_layers, spec_.config().n_layers);
  EXPECT_EQ(meta->config.d_model, spec_.config().d_model);
  EXPECT_EQ(meta->tensor_tags.size(), spec_.tensors().size());
  EXPECT_TRUE(meta->materialized);
}

TEST_F(TzgufTest, MetaWithWrongKeyRejected) {
  ASSERT_TRUE(
      Tzguf::Provision(&plat_.flash(), keys_, "m", spec_, 7, true).ok());
  const AesKey128 wrong = keys_.DeriveModelKey("other");
  EXPECT_EQ(Tzguf::ReadMeta(&plat_.flash(), "m", wrong).status().code(),
            ErrorCode::kDataCorruption);
}

TEST_F(TzgufTest, TamperedMetaRejected) {
  ASSERT_TRUE(
      Tzguf::Provision(&plat_.flash(), keys_, "m", spec_, 7, true).ok());
  ASSERT_TRUE(plat_.flash().CorruptBytes("m.meta", 60, 2).ok());
  EXPECT_FALSE(
      Tzguf::ReadMeta(&plat_.flash(), "m", keys_.DeriveModelKey("m")).ok());
}

TEST_F(TzgufTest, DecryptExtentRecoversPlaintextAndVerifies) {
  ASSERT_TRUE(
      Tzguf::Provision(&plat_.flash(), keys_, "m", spec_, 7, true).ok());
  const AesKey128 key = keys_.DeriveModelKey("m");
  auto meta = Tzguf::ReadMeta(&plat_.flash(), "m", key);
  ASSERT_TRUE(meta.ok());

  const std::vector<Tensor> plain = Tzguf::ReferenceWeights(spec_, 7);
  // Verify, then decrypt, tensor 3's extent in isolation (arbitrary
  // offset): the tag covers the ciphertext.
  const TensorSpec& t = spec_.tensor(3);
  std::vector<uint8_t> buf(t.data_bytes);
  ASSERT_TRUE(plat_.flash()
                  .PeekBytes("m.data", t.file_offset, t.data_bytes,
                             buf.data())
                  .ok());
  EXPECT_TRUE(Tzguf::VerifyTensor(*meta, key, 3, buf.data(), buf.size()).ok());
  std::vector<uint8_t> decrypted = buf;
  Tzguf::DecryptExtent(key, "m", t.file_offset, decrypted.data(),
                       decrypted.size());
  EXPECT_EQ(decrypted, plain[3].data);
  // A flipped ciphertext bit fails verification.
  buf[0] ^= 1;
  EXPECT_EQ(Tzguf::VerifyTensor(*meta, key, 3, buf.data(), buf.size()).code(),
            ErrorCode::kDataCorruption);
}

// Each tag is bound to its tensor's index: two tensors of equal length
// whose ciphertexts trade places on flash both fail closed.
TEST_F(TzgufTest, SwappedCiphertextOfEqualLengthTensorsFailsClosed) {
  ASSERT_TRUE(
      Tzguf::Provision(&plat_.flash(), keys_, "m", spec_, 7, true).ok());
  const AesKey128 key = keys_.DeriveModelKey("m");
  auto meta = Tzguf::ReadMeta(&plat_.flash(), "m", key);
  ASSERT_TRUE(meta.ok());
  const TensorSpec* a = nullptr;
  const TensorSpec* b = nullptr;
  for (const TensorSpec& x : spec_.tensors()) {
    for (const TensorSpec& y : spec_.tensors()) {
      if (a == nullptr && x.index < y.index && x.data_bytes == y.data_bytes) {
        a = &x;
        b = &y;
      }
    }
  }
  ASSERT_NE(a, nullptr) << "the test model needs two equal-length tensors";
  auto ciphertext = [&](const TensorSpec& t) {
    std::vector<uint8_t> out(t.data_bytes);
    EXPECT_TRUE(plat_.flash()
                    .PeekBytes("m.data", t.file_offset, t.data_bytes,
                               out.data())
                    .ok());
    return out;
  };
  const std::vector<uint8_t> ct_a = ciphertext(*a);
  const std::vector<uint8_t> ct_b = ciphertext(*b);
  EXPECT_TRUE(
      Tzguf::VerifyTensor(*meta, key, a->index, ct_a.data(), ct_a.size())
          .ok());
  EXPECT_TRUE(
      Tzguf::VerifyTensor(*meta, key, b->index, ct_b.data(), ct_b.size())
          .ok());
  EXPECT_EQ(
      Tzguf::VerifyTensor(*meta, key, a->index, ct_b.data(), ct_b.size())
          .code(),
      ErrorCode::kDataCorruption);
  EXPECT_EQ(
      Tzguf::VerifyTensor(*meta, key, b->index, ct_a.data(), ct_a.size())
          .code(),
      ErrorCode::kDataCorruption);
}

TEST_F(TzgufTest, WrappedKeyRoundTripThroughFlash) {
  ASSERT_TRUE(
      Tzguf::Provision(&plat_.flash(), keys_, "m", spec_, 7, true).ok());
  auto wrapped = Tzguf::ReadWrappedKey(&plat_.flash(), "m");
  ASSERT_TRUE(wrapped.ok());
  auto key = keys_.UnwrapModelKey(*wrapped);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(*key, keys_.DeriveModelKey("m"));
}

TEST_F(TzgufTest, ReferenceWeightsDeterministic) {
  const auto a = Tzguf::ReferenceWeights(spec_, 7);
  const auto b = Tzguf::ReferenceWeights(spec_, 7);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].data, b[i].data);
  }
}

}  // namespace
}  // namespace tzllm

#include "src/crypto/key_hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/crypto/seal.h"

namespace tzllm {
namespace {

TEST(KeyHierarchyTest, DeterministicDerivation) {
  KeyHierarchy a(100), b(100);
  EXPECT_EQ(a.DeriveTeeKey(), b.DeriveTeeKey());
  EXPECT_EQ(a.DeriveModelKey("m"), b.DeriveModelKey("m"));
}

TEST(KeyHierarchyTest, DifferentRootsGiveDifferentKeys) {
  KeyHierarchy a(100), b(101);
  EXPECT_NE(a.DeriveTeeKey(), b.DeriveTeeKey());
  EXPECT_NE(a.DeriveModelKey("m"), b.DeriveModelKey("m"));
}

TEST(KeyHierarchyTest, ModelKeysAreIndependent) {
  KeyHierarchy keys(7);
  EXPECT_NE(keys.DeriveModelKey("llama"), keys.DeriveModelKey("qwen"));
  EXPECT_NE(keys.DeriveModelKey("llama"), keys.DeriveTeeKey());
}

TEST(KeyHierarchyTest, WrapUnwrapRoundTrip) {
  KeyHierarchy keys(42);
  const AesKey128 model_key = keys.DeriveModelKey("llama");
  const WrappedModelKey wrapped = keys.WrapModelKey("llama", model_key);
  // The key's bytes appear nowhere in the wrapped blob.
  EXPECT_EQ(std::search(wrapped.sealed.begin(), wrapped.sealed.end(),
                        model_key.begin(), model_key.end()),
            wrapped.sealed.end());
  auto unwrapped = keys.UnwrapModelKey(wrapped);
  ASSERT_TRUE(unwrapped.ok());
  EXPECT_EQ(*unwrapped, model_key);
}

TEST(KeyHierarchyTest, WrongDeviceCannotUnwrap) {
  KeyHierarchy device_a(42), device_b(43);
  const WrappedModelKey wrapped =
      device_a.WrapModelKey("llama", device_a.DeriveModelKey("llama"));
  auto unwrapped = device_b.UnwrapModelKey(wrapped);
  EXPECT_FALSE(unwrapped.ok());
  EXPECT_EQ(unwrapped.status().code(), ErrorCode::kDataCorruption);
}

TEST(KeyHierarchyTest, TamperedBlobRejected) {
  KeyHierarchy keys(42);
  WrappedModelKey wrapped =
      keys.WrapModelKey("llama", keys.DeriveModelKey("llama"));
  wrapped.sealed[kSealHeaderBytes + 3] ^= 0x80;  // A ciphertext byte.
  EXPECT_FALSE(keys.UnwrapModelKey(wrapped).ok());
}

TEST(KeyHierarchyTest, RenamedBlobRejected) {
  // Swapping the wrapped key of one model onto another id must fail the
  // integrity tag (the tag binds model_id).
  KeyHierarchy keys(42);
  WrappedModelKey wrapped =
      keys.WrapModelKey("llama", keys.DeriveModelKey("llama"));
  wrapped.model_id = "qwen";
  EXPECT_FALSE(keys.UnwrapModelKey(wrapped).ok());
}

TEST(KeyHierarchyTest, ModelIvDeterministicAndZeroCounter) {
  const AesBlock iv1 = KeyHierarchy::ModelIv("x");
  const AesBlock iv2 = KeyHierarchy::ModelIv("x");
  EXPECT_EQ(iv1, iv2);
  for (int i = 8; i < 16; ++i) {
    EXPECT_EQ(iv1[i], 0);
  }
  EXPECT_NE(KeyHierarchy::ModelIv("y"), iv1);
}

}  // namespace
}  // namespace tzllm

#include "src/common/bytes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace tzllm {
namespace {

TEST(BytesTest, RoundTripsEveryFieldLittleEndian) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.U8(0xAB);
  w.U32(0x01020304u);
  w.U64(0x1122334455667788ull);
  w.Str("tz");
  const uint8_t raw[3] = {7, 8, 9};
  w.Bytes(raw, sizeof(raw));
  ASSERT_EQ(buf.size(), 1u + 4 + 8 + 4 + 2 + 3);
  EXPECT_EQ(buf[1], 0x04);  // Least significant byte first.
  EXPECT_EQ(buf[5], 0x88);

  ByteReader r(buf);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string str;
  uint8_t out[3] = {};
  ASSERT_TRUE(r.U8(&u8) && r.U32(&u32) && r.U64(&u64) && r.Str(&str) &&
              r.Bytes(out, sizeof(out)));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(u64, 0x1122334455667788ull);
  EXPECT_EQ(str, "tz");
  EXPECT_EQ(out[2], 9);
  EXPECT_EQ(r.remaining(), 0u);
}

// The reader parses REE- and flash-supplied bytes, so running off the end
// of the buffer must fail cleanly: a fixed-width field past the end, and a
// length prefix claiming more bytes than remain.
TEST(BytesTest, ReadsPastTheEndFail) {
  const std::vector<uint8_t> three = {1, 2, 3};
  ByteReader fixed(three);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  EXPECT_FALSE(fixed.U32(&u32));
  EXPECT_FALSE(fixed.U64(&u64));
  uint8_t out[4] = {};
  EXPECT_FALSE(fixed.Bytes(out, sizeof(out)));
  EXPECT_EQ(fixed.pos(), 0u);  // A failed read consumes nothing.

  // Pointer + length form, as KvCache::RestoreState parses a raw buffer:
  // only the first two bytes are in bounds.
  ByteReader prefix_of(three.data(), 2);
  uint8_t u8 = 0;
  EXPECT_TRUE(prefix_of.U8(&u8));
  EXPECT_TRUE(prefix_of.U8(&u8));
  EXPECT_FALSE(prefix_of.U8(&u8));

  std::vector<uint8_t> lying;
  ByteWriter w(&lying);
  w.U32(1000);  // Claims 1000 bytes; 5 follow.
  const uint8_t tail[5] = {'a', 'b', 'c', 'd', 'e'};
  w.Bytes(tail, sizeof(tail));
  ByteReader r(lying);
  std::string s;
  EXPECT_FALSE(r.Str(&s));
  EXPECT_EQ(r.pos(), 0u);
  // A prefix of 0xffffffff must not wrap the bounds check either.
  const std::vector<uint8_t> huge = {0xff, 0xff, 0xff, 0xff, 'x'};
  ByteReader h(huge);
  EXPECT_FALSE(h.Str(&s));
}

}  // namespace
}  // namespace tzllm

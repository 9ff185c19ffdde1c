// Little-endian byte codec shared by every sealed or REE-visible blob format
// (TZGUF metadata and key files, TZSESS session checkpoints, the TZSRVMF
// serving manifest and KV snapshots): explicit widths, no padding, no host
// byte order.
//
// ByteReader is the one parser of untrusted bytes: every read is bounds
// checked against the buffer and fails (returns false, consuming nothing)
// instead of reading past the end, including length-prefixed strings whose
// prefix claims more bytes than remain.

#ifndef SRC_COMMON_BYTES_H_
#define SRC_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace tzllm {

// Appends fields to a caller-owned buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  // u32 length prefix, then the raw bytes.
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }
  void Bytes(const uint8_t* data, size_t len) {
    out_->insert(out_->end(), data, data + len);
  }

 private:
  std::vector<uint8_t>* out_;
};

// Reads fields from a borrowed buffer, which must outlive the reader.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<uint8_t>& data)
      : ByteReader(data.data(), data.size()) {}

  bool U8(uint8_t* v) {
    if (remaining() < 1) {
      return false;
    }
    *v = data_[pos_++];
    return true;
  }
  bool U32(uint32_t* v) {
    if (remaining() < 4) {
      return false;
    }
    *v = 0;
    for (int i = 3; i >= 0; --i) {
      *v = (*v << 8) | data_[pos_ + i];
    }
    pos_ += 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (remaining() < 8) {
      return false;
    }
    *v = 0;
    for (int i = 7; i >= 0; --i) {
      *v = (*v << 8) | data_[pos_ + i];
    }
    pos_ += 8;
    return true;
  }
  // u32 length prefix, then that many bytes. A prefix longer than the rest
  // of the buffer fails with the cursor left at the prefix.
  bool Str(std::string* s) {
    const size_t start = pos_;
    uint32_t len = 0;
    if (!U32(&len) || remaining() < len) {
      pos_ = start;
      return false;
    }
    s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }
  bool Bytes(uint8_t* out, size_t len) {
    if (remaining() < len) {
      return false;
    }
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    return true;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return len_ - pos_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace tzllm

#endif  // SRC_COMMON_BYTES_H_

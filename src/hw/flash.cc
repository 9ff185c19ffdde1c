#include "src/hw/flash.h"

#include <algorithm>
#include <utility>

#include "src/common/rng.h"

namespace tzllm {

FlashDevice::FlashDevice(Simulator* sim, PhysMemory* dram, Tzasc* tzasc)
    : sim_(sim),
      dram_(dram),
      tzasc_(tzasc),
      channel_(sim, "flash-channel", /*capacity=*/1) {}

Status FlashDevice::CreateFile(const std::string& name,
                               std::vector<uint8_t> bytes) {
  File file;
  file.size = bytes.size();
  file.synthetic = false;
  file.bytes = std::move(bytes);
  files_[name] = std::move(file);
  return OkStatus();
}

Status FlashDevice::CreateSyntheticFile(const std::string& name, uint64_t size,
                                        uint64_t seed) {
  File file;
  file.size = size;
  file.synthetic = true;
  file.seed = seed;
  files_[name] = std::move(file);
  return OkStatus();
}

Status FlashDevice::DeleteFile(const std::string& name) {
  return files_.erase(name) > 0 ? OkStatus() : NotFound("no such file");
}

bool FlashDevice::Exists(const std::string& name) const {
  return files_.count(name) > 0;
}

std::vector<std::string> FlashDevice::FileNames() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, file] : files_) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<uint64_t> FlashDevice::FileSize(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return NotFound("no such file: " + name);
  }
  return it->second.size;
}

Status FlashDevice::FillFromFile(const File& file, uint64_t offset,
                                 uint64_t len, uint8_t* out) const {
  if (offset + len > file.size) {
    return InvalidArgument("read past end of file");
  }
  if (file.synthetic) {
    for (uint64_t i = 0; i < len; ++i) {
      out[i] = SyntheticByteAt(file.seed, offset + i);
    }
  } else {
    std::copy(file.bytes.begin() + offset, file.bytes.begin() + offset + len,
              out);
  }
  return OkStatus();
}

Status FlashDevice::PeekBytes(const std::string& name, uint64_t offset,
                              uint64_t len, uint8_t* out) const {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return NotFound("no such file: " + name);
  }
  return FillFromFile(it->second, offset, len, out);
}

Result<std::vector<uint8_t>> FlashDevice::PeekFile(
    const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return NotFound("no such file: " + name);
  }
  std::vector<uint8_t> bytes(it->second.size);
  TZLLM_RETURN_IF_ERROR(
      FillFromFile(it->second, 0, bytes.size(), bytes.data()));
  return bytes;
}

Status FlashDevice::CorruptBytes(const std::string& name, uint64_t offset,
                                 uint64_t len) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return NotFound("no such file: " + name);
  }
  File& file = it->second;
  if (offset + len > file.size) {
    return InvalidArgument("corrupt range past end of file");
  }
  if (file.synthetic) {
    // Re-seed the stream; every byte changes.
    file.seed = SplitMix64(file.seed ^ 0xBADC0DEull);
    return OkStatus();
  }
  for (uint64_t i = 0; i < len; ++i) {
    file.bytes[offset + i] ^= 0xA5;
  }
  return OkStatus();
}

SimDuration FlashDevice::EstimateReadTime(uint64_t len) {
  return kFlashRequestLatency + TransferTime(len, kFlashSequentialReadBw);
}

void FlashDevice::ReadAsync(const std::string& name, uint64_t offset,
                            uint64_t len, PhysAddr dst, bool materialize,
                            std::function<void(Status)> done) {
  ++reads_issued_;
  const SimDuration service = EstimateReadTime(len);
  channel_.Submit(service, [this, name, offset, len, dst, materialize,
                            done = std::move(done)] {
    auto finish = [&](Status st) {
      if (done) {
        done(std::move(st));
      }
    };
    auto it = files_.find(name);
    if (it == files_.end()) {
      finish(NotFound("no such file: " + name));
      return;
    }
    // The flash controller is a non-secure bus master: its DMA into DRAM is
    // checked at transfer time. Loading into TZASC-protected memory faults —
    // which is exactly why the paper defers extend_protected until after the
    // load completes.
    Status st =
        tzasc_->CheckDmaAccess(DeviceId::kFlashController, dst, len);
    if (!st.ok()) {
      ++dma_rejections_;
      finish(std::move(st));
      return;
    }
    bytes_read_ += len;
    if (materialize) {
      std::vector<uint8_t> buf(len);
      st = FillFromFile(it->second, offset, len, buf.data());
      if (st.ok()) {
        st = dram_->Write(dst, buf.data(), len);
      }
    } else {
      if (offset + len > it->second.size) {
        st = InvalidArgument("read past end of file");
      }
    }
    finish(std::move(st));
  });
}

}  // namespace tzllm

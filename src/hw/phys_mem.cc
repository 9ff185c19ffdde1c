#include "src/hw/phys_mem.h"

#include <algorithm>
#include <cstring>

namespace tzllm {

PhysMemory::PhysMemory(uint64_t size_bytes) : size_(size_bytes) {}

Status PhysMemory::CheckRange(PhysAddr addr, uint64_t len) const {
  if (len > size_ || addr > size_ - len) {
    return InvalidArgument("physical access out of DRAM range");
  }
  return OkStatus();
}

const uint8_t* PhysMemory::FrameFor(PhysAddr addr) const {
  auto it = frames_.find(addr / kFrameSize);
  return it == frames_.end() ? nullptr : it->second.get();
}

uint8_t* PhysMemory::MutableFrameFor(PhysAddr addr) {
  auto& slot = frames_[addr / kFrameSize];
  if (!slot) {
    slot = std::make_unique<uint8_t[]>(kFrameSize);
    std::memset(slot.get(), 0, kFrameSize);
  }
  return slot.get();
}

Status PhysMemory::Read(PhysAddr addr, uint8_t* out, uint64_t len) const {
  TZLLM_RETURN_IF_ERROR(CheckRange(addr, len));
  uint64_t done = 0;
  while (done < len) {
    const PhysAddr cur = addr + done;
    const uint64_t in_frame = cur % kFrameSize;
    const uint64_t n = std::min(len - done, kFrameSize - in_frame);
    const uint8_t* frame = FrameFor(cur);
    if (frame == nullptr) {
      std::memset(out + done, 0, n);  // Untouched DRAM reads as zero.
    } else {
      std::memcpy(out + done, frame + in_frame, n);
    }
    done += n;
  }
  return OkStatus();
}

Status PhysMemory::Write(PhysAddr addr, const uint8_t* data, uint64_t len) {
  return ForEachWindow(addr, len,
                       [data](uint8_t* window, uint64_t done, uint64_t n) {
                         std::memcpy(window, data + done, n);
                         return OkStatus();
                       });
}

Status PhysMemory::Fill(PhysAddr addr, uint8_t value, uint64_t len) {
  TZLLM_RETURN_IF_ERROR(CheckRange(addr, len));
  uint64_t done = 0;
  while (done < len) {
    const PhysAddr cur = addr + done;
    const uint64_t in_frame = cur % kFrameSize;
    const uint64_t n = std::min(len - done, kFrameSize - in_frame);
    // Skip materializing frames when filling untouched memory with zero.
    if (value != 0 || FrameFor(cur) != nullptr) {
      std::memset(MutableFrameFor(cur) + in_frame, value, n);
    }
    done += n;
  }
  return OkStatus();
}

Status PhysMemory::Copy(PhysAddr dst, PhysAddr src, uint64_t len) {
  TZLLM_RETURN_IF_ERROR(CheckRange(dst, len));
  TZLLM_RETURN_IF_ERROR(CheckRange(src, len));
  std::vector<uint8_t> tmp(len);
  TZLLM_RETURN_IF_ERROR(Read(src, tmp.data(), len));
  return Write(dst, tmp.data(), len);
}

bool PhysMemory::IsTouched(PhysAddr addr, uint64_t len) const {
  const uint64_t first = addr / kFrameSize;
  const uint64_t last = (addr + len - 1) / kFrameSize;
  for (uint64_t f = first; f <= last; ++f) {
    if (frames_.count(f) > 0) {
      return true;
    }
  }
  return false;
}

uint8_t* PhysMemory::RawWindow(PhysAddr addr, uint64_t len) {
  if (!CheckRange(addr, len).ok()) {
    return nullptr;
  }
  const uint64_t in_frame = addr % kFrameSize;
  if (in_frame + len > kFrameSize) {
    return nullptr;  // Crosses a frame boundary.
  }
  return MutableFrameFor(addr) + in_frame;
}

}  // namespace tzllm

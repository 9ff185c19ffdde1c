// Sparse physical memory model.
//
// Backs the functional mode: model bytes really live here, CMA migration
// really copies them, the TEE really decrypts them in place, and `shrink`
// really scrubs them. Frames are allocated lazily so a 16 GiB address space
// costs only what is touched.
//
// PhysMemory itself performs no security checks: it models DRAM. All checked
// paths go through SecureBus (bus.h), which consults the TZASC.

#ifndef SRC_HW_PHYS_MEM_H_
#define SRC_HW_PHYS_MEM_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/hw/types.h"

namespace tzllm {

class PhysMemory {
 public:
  explicit PhysMemory(uint64_t size_bytes);

  uint64_t size() const { return size_; }

  // Raw DRAM access (no security checks — see SecureBus).
  Status Read(PhysAddr addr, uint8_t* out, uint64_t len) const;
  Status Write(PhysAddr addr, const uint8_t* data, uint64_t len);

  // Fills [addr, addr+len) with `value` (used for secure-memory scrubbing).
  Status Fill(PhysAddr addr, uint8_t value, uint64_t len);

  // Copies len bytes within DRAM (used by CMA page migration).
  Status Copy(PhysAddr dst, PhysAddr src, uint64_t len);

  // True if any frame overlapping the range has ever been written.
  bool IsTouched(PhysAddr addr, uint64_t len) const;

  // Returns a direct pointer to a frame-contained range for in-place compute
  // (e.g. TEE decryption); nullptr if the range crosses a frame boundary that
  // has not been materialized. Materializes frames on demand.
  uint8_t* RawWindow(PhysAddr addr, uint64_t len);

  // Calls fn(RawWindow(addr + done, n), done, n) for each frame-contained
  // piece of [addr, addr + len), in address order: in-place compute over a
  // range that crosses frames. Stops at the first non-OK Status fn returns.
  template <typename Fn>
  Status ForEachWindow(PhysAddr addr, uint64_t len, Fn&& fn) {
    TZLLM_RETURN_IF_ERROR(CheckRange(addr, len));
    for (uint64_t done = 0; done < len;) {
      const PhysAddr cur = addr + done;
      const uint64_t n = std::min(len - done, kFrameSize - cur % kFrameSize);
      TZLLM_RETURN_IF_ERROR(fn(RawWindow(cur, n), done, n));
      done += n;
    }
    return OkStatus();
  }

  size_t materialized_frames() const { return frames_.size(); }
  uint64_t materialized_bytes() const { return frames_.size() * kFrameSize; }

  // Frames are larger than a page to keep the map small.
  static constexpr uint64_t kFrameSize = 256 * kKiB;

 private:
  const uint8_t* FrameFor(PhysAddr addr) const;  // nullptr if untouched.
  uint8_t* MutableFrameFor(PhysAddr addr);       // materializes.

  Status CheckRange(PhysAddr addr, uint64_t len) const;

  uint64_t size_;
  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> frames_;
};

}  // namespace tzllm

#endif  // SRC_HW_PHYS_MEM_H_

// NVMe flash device model (PCIe 3.0 x4: ~2 GB/s sequential reads).
//
// Files are either materialized (real bytes — functional mode) or synthetic
// (size + seed; any extent is regenerated deterministically — paper-scale
// mode, so an "8 GB model file" costs nothing to store). Reads are DMA
// transactions by the flash controller into physical memory and are subject
// to TZASC checks: this is what makes the paper's bounce-buffer-free design
// (§4.2, load into *unprotected* CMA memory, then extend_protected, then
// decrypt) an enforced ordering rather than a convention.

#ifndef SRC_HW_FLASH_H_
#define SRC_HW_FLASH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/calibration.h"
#include "src/common/status.h"
#include "src/hw/phys_mem.h"
#include "src/hw/tzasc.h"
#include "src/sim/server.h"
#include "src/sim/simulator.h"

namespace tzllm {

class FlashDevice {
 public:
  FlashDevice(Simulator* sim, PhysMemory* dram, Tzasc* tzasc);

  // --- File management (host-side provisioning; not timed). ---
  Status CreateFile(const std::string& name, std::vector<uint8_t> bytes);
  Status CreateSyntheticFile(const std::string& name, uint64_t size,
                             uint64_t seed);
  Status DeleteFile(const std::string& name);
  bool Exists(const std::string& name) const;
  Result<uint64_t> FileSize(const std::string& name) const;
  // Every stored file's name, sorted.
  std::vector<std::string> FileNames() const;

  // Reads file content into a host buffer without timing or DMA checks.
  // Used by provisioning tools and by tests to inspect flash content (the
  // "attacker reads flash" probe).
  Status PeekBytes(const std::string& name, uint64_t offset, uint64_t len,
                   uint8_t* out) const;
  // The whole file, read the same way (how the TEE fetches a sealed blob).
  Result<std::vector<uint8_t>> PeekFile(const std::string& name) const;

  // Overwrites a byte range in place (tamper primitive for security tests).
  Status CorruptBytes(const std::string& name, uint64_t offset, uint64_t len);

  // --- Timed DMA read path. ---
  // Queues a read of file[offset, offset+len) into DRAM at dst. The flash
  // controller's DMA is checked against the TZASC when the transfer starts.
  // If `materialize` is false only timing and checks are modeled (paper-
  // scale mode). `done` fires at completion time with the transfer status.
  void ReadAsync(const std::string& name, uint64_t offset, uint64_t len,
                 PhysAddr dst, bool materialize,
                 std::function<void(Status)> done);

  // Service time of one read (base latency + len / sequential bandwidth).
  static SimDuration EstimateReadTime(uint64_t len);

  uint64_t reads_issued() const { return reads_issued_; }
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t dma_rejections() const { return dma_rejections_; }
  const ServerPool& channel() const { return channel_; }

 private:
  struct File {
    uint64_t size = 0;
    bool synthetic = false;
    uint64_t seed = 0;
    std::vector<uint8_t> bytes;  // Materialized content (if !synthetic).
  };

  Status FillFromFile(const File& file, uint64_t offset, uint64_t len,
                      uint8_t* out) const;

  Simulator* sim_;
  PhysMemory* dram_;
  Tzasc* tzasc_;
  ServerPool channel_;
  std::unordered_map<std::string, File> files_;
  uint64_t reads_issued_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t dma_rejections_ = 0;
};

}  // namespace tzllm

#endif  // SRC_HW_FLASH_H_

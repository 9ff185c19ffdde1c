// Framework-state checkpointing (paper §3.2 "Other techniques"): the 2.3 s
// of llama.cpp metadata / tokenizer initialization is paid once, serialized,
// sealed under the model key, and stored in flash; every later inference
// restores the state instead of re-initializing. The LLM TA stores session
// checkpoints and the serving manifest the same way.
//
// Each blob is a src/crypto/seal.h seal whose context binds the checkpoint
// id: a tampered blob, or one copied from another id, fails restore with
// kDataCorruption. An older blob of the same id still opens (no freshness).

#ifndef SRC_TEE_CHECKPOINT_H_
#define SRC_TEE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/calibration.h"
#include "src/common/status.h"
#include "src/crypto/aes.h"
#include "src/hw/flash.h"

namespace tzllm {

class CheckpointService {
 public:
  explicit CheckpointService(FlashDevice* flash);

  // Seals `state` under `key` and stores it as "<ckpt_id>.ckpt". Returns
  // the stored size.
  Result<uint64_t> Save(const std::string& ckpt_id, const AesKey128& key,
                        const std::vector<uint8_t>& state);

  // Loads and opens the checkpoint. kDataCorruption on tamper.
  Result<std::vector<uint8_t>> Restore(const std::string& ckpt_id,
                                       const AesKey128& key);

  bool Exists(const std::string& ckpt_id) const;

  // Removes a stored checkpoint; kNotFound when none exists. Used when a
  // superseded blob must not be restorable (a completed serving manifest)
  // and by the ckpt_drop fault injection, which models the REE discarding
  // a blob it promised to keep.
  Status Delete(const std::string& ckpt_id);

  // Modeled wall time of a restore at inference start (I/O + decrypt of the
  // serialized state + fixups); used by the runtime cost accounting.
  static constexpr SimDuration RestoreTime() { return kCheckpointRestoreTime; }
  // Full (non-checkpointed) framework initialization time.
  static constexpr SimDuration FullInitTime() {
    return kLlamaMetaInitTime + kLlamaBootTime + kTokenizerInitTime;
  }

 private:
  static std::string FileName(const std::string& ckpt_id) {
    return ckpt_id + ".ckpt";
  }

  FlashDevice* flash_;
};

}  // namespace tzllm

#endif  // SRC_TEE_CHECKPOINT_H_

#include "src/tee/checkpoint.h"

#include "src/crypto/seal.h"

namespace tzllm {

CheckpointService::CheckpointService(FlashDevice* flash) : flash_(flash) {}

Result<uint64_t> CheckpointService::Save(const std::string& ckpt_id,
                                         const AesKey128& key,
                                         const std::vector<uint8_t>& state) {
  std::vector<uint8_t> blob = Seal(key, {SealKind::kCheckpoint, ckpt_id},
                                   state.data(), state.size());
  const uint64_t total = blob.size();
  TZLLM_RETURN_IF_ERROR(flash_->CreateFile(FileName(ckpt_id), std::move(blob)));
  return total;
}

Result<std::vector<uint8_t>> CheckpointService::Restore(
    const std::string& ckpt_id, const AesKey128& key) {
  TZLLM_ASSIGN_OR_RETURN(blob, flash_->PeekFile(FileName(ckpt_id)));
  return Open(key, {SealKind::kCheckpoint, ckpt_id}, blob);
}

bool CheckpointService::Exists(const std::string& ckpt_id) const {
  return flash_->Exists(FileName(ckpt_id));
}

Status CheckpointService::Delete(const std::string& ckpt_id) {
  return flash_->DeleteFile(FileName(ckpt_id));
}

}  // namespace tzllm

// The TZLLM_SIMD override shared by every runtime-dispatched table: the
// SIMD kernels (src/llm/simd/dispatch.cc) and the crypto rows
// (src/crypto/crypto_dispatch.cc) read the same variable, so one setting
// pins the whole process to portable code.

#ifndef SRC_COMMON_SIMD_ENV_H_
#define SRC_COMMON_SIMD_ENV_H_

#include <cctype>
#include <string>

namespace tzllm {

// Lower-cased TZLLM_SIMD value; "" when unset.
inline std::string SimdEnvValue(const char* env_value) {
  std::string v(env_value != nullptr ? env_value : "");
  for (char& c : v) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return v;
}

// True for the values that pin every table to its portable row.
inline bool SimdEnvPinsPortable(const std::string& value) {
  return value == "off" || value == "scalar" || value == "0" ||
         value == "none";
}

}  // namespace tzllm

#endif  // SRC_COMMON_SIMD_ENV_H_

// Kernel table resolution: CPUID gating + TZLLM_SIMD env override, computed
// once per process. An unsupported table can never be selected — explicit
// requests for an absent/unsupported backend degrade to scalar rather than
// fault on the first illegal instruction.

#include <cstdlib>
#include <string>

#include "src/common/simd_env.h"
#include "src/llm/engine_options.h"
#include "src/llm/simd/kernels.h"

namespace tzllm {

const char* SimdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kAvx2F16c:
      return "avx2_f16c";
    case SimdIsa::kNeon:
      return "neon";
  }
  return "?";
}

bool CpuSupportsAvx2F16c() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c") &&
         __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

namespace {

// Best table auto mode may hand out. The AVX2 TU needs the CPUID gate
// because x86 binaries routinely run on pre-AVX2 silicon. The NEON table is
// baseline on aarch64 (no runtime feature gate needed) and auto mode now
// selects it: the aarch64 qemu-user CI leg cross-compiles the suite and runs
// the kernel + parity tests over the NEON table on every push, which was the
// graduation condition for dropping the TZLLM_SIMD=neon opt-in (ROADMAP).
const KernelDispatch* BestSupported() {
  if (Avx2Kernels() != nullptr && CpuSupportsAvx2F16c()) {
    return Avx2Kernels();
  }
  if (NeonKernels() != nullptr) {
    return NeonKernels();
  }
  return ScalarKernels();
}

}  // namespace

const KernelDispatch* ResolveKernels(const char* env_value) {
  const std::string v = SimdEnvValue(env_value);
  if (!v.empty()) {
    if (SimdEnvPinsPortable(v)) {
      return ScalarKernels();
    }
    if (v == "avx2") {
      return Avx2Kernels() != nullptr && CpuSupportsAvx2F16c()
                 ? Avx2Kernels()
                 : ScalarKernels();
    }
    if (v == "neon") {
      return NeonKernels() != nullptr ? NeonKernels() : ScalarKernels();
    }
    // Unknown value: fall through to auto rather than silently going scalar.
  }
  return BestSupported();
}

const KernelDispatch* ActiveKernels() {
  static const KernelDispatch* table =
      ResolveKernels(std::getenv("TZLLM_SIMD"));
  return table;
}

const KernelDispatch* KernelsFor(const EngineOptions& options) {
  return options.use_reference_kernels || options.force_scalar
             ? ScalarKernels()
             : ActiveKernels();
}

}  // namespace tzllm

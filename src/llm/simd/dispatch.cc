// Kernel table resolution: CPUID gating + TZLLM_SIMD env override, computed
// once per process. An unsupported table can never be selected — explicit
// requests for an absent/unsupported backend degrade to scalar rather than
// fault on the first illegal instruction.

#include <cstdint>
#include <cstdlib>
#include <string>

#include "src/common/simd_env.h"
#include "src/llm/engine_options.h"
#include "src/llm/simd/kernels.h"

#if defined(__x86_64__) && defined(__linux__) && \
    (defined(__GNUC__) || defined(__clang__))
#define TZLLM_AMX_GATE 1
#include <cpuid.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace tzllm {

const char* SimdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kAvx2F16c:
      return "avx2_f16c";
    case SimdIsa::kNeon:
      return "neon";
    case SimdIsa::kAmxInt8:
      return "amx_int8";
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

#ifdef TZLLM_AMX_GATE
// arch_prctl request (asm/prctl.h) and the XSAVE feature number of the
// tile data state (XTILEDATA), which Linux enables per process on request.
constexpr long kArchReqXcompPerm = 0x1023;
constexpr long kXfeatureXtileData = 18;

bool ProbeAmxInt8() {
  if (!CpuSupportsAvx2F16c()) {
    return false;
  }
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
      (ecx & (1u << 27)) == 0) {  // OSXSAVE: xgetbv is usable.
    return false;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  const bool avx512 = (ebx & (1u << 16)) != 0 && (ebx & (1u << 30)) != 0;
  const bool amx = (edx & (1u << 24)) != 0 && (edx & (1u << 25)) != 0;
  if (!avx512 || !amx) {
    return false;
  }
  uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  const uint64_t xcr0 = (static_cast<uint64_t>(hi) << 32) | lo;
  // SSE + AVX (1-2), opmask + ZMM (5-7), XTILECFG + XTILEDATA (17-18).
  const uint64_t need = (1ull << 1) | (1ull << 2) | (1ull << 5) |
                        (1ull << 6) | (1ull << 7) | (1ull << 17) |
                        (1ull << 18);
  if ((xcr0 & need) != need) {
    return false;
  }
  // Fails (EINVAL on kernels without dynamic xstate, ENOSPC when a
  // thread's sigaltstack cannot hold the larger signal frame); either way
  // no tile instruction may run.
  return syscall(SYS_arch_prctl, kArchReqXcompPerm, kXfeatureXtileData) == 0;
}
#endif

// Best table auto mode may hand out. The AMX table is preferred where the
// CPU has it and Linux grants this process the tile state; it is the AVX2
// table plus the tile slot, so below MatMatQ8's tile threshold it runs
// exactly the AVX2 code. The AVX2 TU needs the CPUID gate
// because x86 binaries routinely run on pre-AVX2 silicon. The NEON table is
// baseline on aarch64 (no runtime feature gate needed) and auto mode now
// selects it: the aarch64 qemu-user CI leg cross-compiles the suite and runs
// the kernel + parity tests over the NEON table on every push, which was the
// graduation condition for dropping the TZLLM_SIMD=neon opt-in (ROADMAP).
const KernelDispatch* BestSupported() {
  if (AmxInt8Kernels() != nullptr && CpuSupportsAmxInt8()) {
    return AmxInt8Kernels();
  }
  if (Avx2Kernels() != nullptr && CpuSupportsAvx2F16c()) {
    return Avx2Kernels();
  }
  if (NeonKernels() != nullptr) {
    return NeonKernels();
  }
  return ScalarKernels();
}

}  // namespace

bool CpuSupportsAmxInt8() {
#ifdef TZLLM_AMX_GATE
  static const bool supported = ProbeAmxInt8();
  return supported;
#else
  return false;
#endif
}

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
  return options.force_scalar ? ScalarKernels() : ActiveKernels();
}

}  // namespace tzllm

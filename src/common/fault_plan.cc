#include "src/common/fault_plan.h"

#include <cstdlib>

#include "src/common/log.h"

namespace tzllm {

namespace {

// Canonical name first: ToString prints the first name of a class.
constexpr struct {
  const char* name;
  FaultClass fault;
} kClassNames[] = {
    {"payload", FaultClass::kPayload},
    {"timeout", FaultClass::kTimeout},
    {"stall", FaultClass::kTimeout},
    {"ctx", FaultClass::kContext},
    {"context", FaultClass::kContext},
    {"submit", FaultClass::kSubmit},
    {"spill_tamper", FaultClass::kSpillTamper},
    {"spill_drop", FaultClass::kSpillDrop},
    {"ckpt_drop", FaultClass::kCkptDrop},
    {"ta_crash", FaultClass::kTaCrash},
};

// A positive decimal ordinal or count; false on anything else. Digits
// only: strtoull alone would accept a sign or leading blanks, and "-1"
// would become a plan that never fires. 19 digits cannot overflow.
bool ParsePositive(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return *out > 0;
}

}  // namespace

std::string FaultPlan::ToString() const {
  if (!active()) {
    return "none";
  }
  for (const auto& entry : kClassNames) {
    if (entry.fault == fault) {
      return std::string(entry.name) + "@" + std::to_string(first) + "x" +
             std::to_string(count);
    }
  }
  return "none";
}

Result<FaultPlan> FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;
  if (text.empty() || text == "none") {
    return plan;
  }
  const size_t at = text.find('@');
  if (at == std::string::npos || at == 0 || at + 1 >= text.size()) {
    return InvalidArgument(
        "fault plan must be <class>@<first>[x<count>], got: " + text);
  }
  const std::string cls = text.substr(0, at);
  for (const auto& entry : kClassNames) {
    if (cls == entry.name) {
      plan.fault = entry.fault;
    }
  }
  if (plan.fault == FaultClass::kNone) {
    return InvalidArgument("unknown fault class: " + cls);
  }
  const std::string ords = text.substr(at + 1);
  const size_t x = ords.find('x');
  if (!ParsePositive(ords.substr(0, x), &plan.first)) {
    return InvalidArgument("bad fault ordinal in plan: " + text);
  }
  if (x != std::string::npos &&
      !ParsePositive(ords.substr(x + 1), &plan.count)) {
    return InvalidArgument("bad fault count in plan: " + text);
  }
  return plan;
}

FaultPlan FaultPlan::FromEnv() {
  const char* env = std::getenv("TZLLM_FAULT_PLAN");
  if (env == nullptr || *env == '\0') {
    return FaultPlan{};
  }
  auto plan = Parse(env);
  if (!plan.ok()) {
    TZLLM_LOG_WARN("fault", "ignoring malformed TZLLM_FAULT_PLAN: %s",
                   plan.status().ToString().c_str());
    return FaultPlan{};
  }
  return *plan;
}

}  // namespace tzllm

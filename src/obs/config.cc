#include "obs/config.h"

#include <atomic>
#include <cstdlib>

namespace dplearn {
namespace obs {
namespace {

bool EnvFlag(const char* name, bool default_value) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return default_value;
  const char c = value[0];
  return !(c == '0' || c == 'f' || c == 'F' || c == 'n' || c == 'N');
}

std::atomic<bool>& MetricsFlag() {
  static std::atomic<bool> flag(EnvFlag("DPLEARN_METRICS", true));
  return flag;
}

std::atomic<bool>& TracingFlag() {
  static std::atomic<bool> flag(EnvFlag("DPLEARN_TRACE", false));
  return flag;
}

}  // namespace

bool MetricsEnabled() { return MetricsFlag().load(std::memory_order_relaxed); }
void SetMetricsEnabled(bool enabled) {
  MetricsFlag().store(enabled, std::memory_order_relaxed);
}

bool TracingEnabled() { return TracingFlag().load(std::memory_order_relaxed); }
void SetTracingEnabled(bool enabled) {
  TracingFlag().store(enabled, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace dplearn

#include "robustness/failpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string_view>

namespace dplearn {
namespace robustness {
namespace {

/// splitmix64 finalizer — the same mixing primitive Rng seeding uses, so
/// prob: decisions are deterministic, well-distributed, and independent of
/// any consumer's random stream.
std::uint64_t Mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct PointState {
  FailPointSpec spec;
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
};

bool Fires(const std::string& name, const FailPointSpec& spec, std::uint64_t hit_index) {
  switch (spec.trigger) {
    case FailPointSpec::Trigger::kAlways:
      return true;
    case FailPointSpec::Trigger::kOff:
      return false;
    case FailPointSpec::Trigger::kProbability: {
      if (spec.probability <= 0.0) return false;
      if (spec.probability >= 1.0) return true;
      const std::uint64_t h = Mix64(Fnv1a(name) ^ Mix64(hit_index));
      return static_cast<double>(h >> 11) * 0x1.0p-53 < spec.probability;
    }
    case FailPointSpec::Trigger::kEveryN:
      return (hit_index + 1) % spec.n == 0;
    case FailPointSpec::Trigger::kAfterN:
      return hit_index >= spec.n;
    case FailPointSpec::Trigger::kFirstN:
      return hit_index < spec.n;
  }
  return false;
}

constexpr char kInjectedPrefix[] = "injected fault at '";

}  // namespace

StatusOr<FailPointSpec> FailPointSpec::Parse(const std::string& text) {
  FailPointSpec spec;
  if (text.empty() || text == "always") {
    spec.trigger = Trigger::kAlways;
    return spec;
  }
  if (text == "off") {
    spec.trigger = Trigger::kOff;
    return spec;
  }
  const auto colon = text.find(':');
  const std::string head = text.substr(0, colon);
  const std::string arg = colon == std::string::npos ? "" : text.substr(colon + 1);
  if (arg.empty()) {
    return InvalidArgumentError("FailPointSpec: '" + text + "' needs an argument");
  }
  if (head == "prob") {
    char* end = nullptr;
    spec.probability = std::strtod(arg.c_str(), &end);
    if (end == arg.c_str() || *end != '\0' || !(spec.probability >= 0.0) ||
        spec.probability > 1.0) {
      return InvalidArgumentError("FailPointSpec: probability must be in [0,1], got '" +
                                  arg + "'");
    }
    spec.trigger = Trigger::kProbability;
    return spec;
  }
  char* end = nullptr;
  const unsigned long long n = std::strtoull(arg.c_str(), &end, 10);
  if (end == arg.c_str() || *end != '\0' || n == 0) {
    return InvalidArgumentError("FailPointSpec: '" + head + "' needs a positive count, got '" +
                                arg + "'");
  }
  spec.n = static_cast<std::uint64_t>(n);
  if (head == "every") {
    spec.trigger = Trigger::kEveryN;
  } else if (head == "after") {
    spec.trigger = Trigger::kAfterN;
  } else if (head == "first") {
    spec.trigger = Trigger::kFirstN;
  } else {
    return InvalidArgumentError("FailPointSpec: unknown trigger '" + head + "'");
  }
  return spec;
}

struct FailPointRegistry::Impl {
  mutable std::mutex mu;
  std::map<std::string, PointState> points;
};

FailPointRegistry::Impl& FailPointRegistry::impl() const {
  static Impl* impl = new Impl();  // never destroyed: hooks may run at exit
  return *impl;
}

FailPointRegistry& FailPointRegistry::Global() {
  static FailPointRegistry* registry = [] {
    auto* r = new FailPointRegistry();
    const char* env = std::getenv("DPLEARN_FAILPOINTS");
    if (env != nullptr && *env != '\0') {
      const Status status = r->Configure(env);
      if (!status.ok()) {
        std::fprintf(stderr, "warning: DPLEARN_FAILPOINTS: %s\n",
                     status.ToString().c_str());
      }
    }
    // Set() has published the count of anything armed above; otherwise the
    // -1 that sent every FailPointsEnabled() here becomes 0.
    int unread = -1;
    internal::armed_count.compare_exchange_strong(unread, 0, std::memory_order_relaxed);
    return r;
  }();
  return *registry;
}

Status FailPointRegistry::Configure(const std::string& config) {
  std::size_t start = 0;
  while (start <= config.size()) {
    std::size_t end = config.find_first_of(";,", start);
    if (end == std::string::npos) end = config.size();
    const std::string entry = config.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    const std::string name = entry.substr(0, eq);
    const std::string spec_text = eq == std::string::npos ? "always" : entry.substr(eq + 1);
    if (name.empty()) {
      return InvalidArgumentError("FailPointRegistry: entry '" + entry + "' has no name");
    }
    auto spec = FailPointSpec::Parse(spec_text);
    if (!spec.ok()) return spec.status();
    Set(name, spec.value());
  }
  return Status::Ok();
}

void FailPointRegistry::Set(const std::string& name, const FailPointSpec& spec) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  state.points[name] = PointState{spec, 0, 0};
  internal::armed_count.store(static_cast<int>(state.points.size()),
                              std::memory_order_relaxed);
}

void FailPointRegistry::Clear(const std::string& name) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  state.points.erase(name);
  internal::armed_count.store(static_cast<int>(state.points.size()),
                              std::memory_order_relaxed);
}

void FailPointRegistry::ClearAll() {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  state.points.clear();
  internal::armed_count.store(0, std::memory_order_relaxed);
}

bool FailPointRegistry::ShouldFail(const char* name) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  const auto it = state.points.find(name);
  if (it == state.points.end()) return false;
  PointState& point = it->second;
  const std::uint64_t hit_index = point.hits++;
  const bool fires = Fires(it->first, point.spec, hit_index);
  if (fires) ++point.fires;
  return fires;
}

std::vector<FailPointStats> FailPointRegistry::Stats() const {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  std::vector<FailPointStats> out;
  out.reserve(state.points.size());
  for (const auto& [name, point] : state.points) {
    out.push_back(FailPointStats{name, point.hits, point.fires});
  }
  return out;
}

std::string FailPointRegistry::ConfigString() const {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  std::string out;
  for (const auto& [name, point] : state.points) {
    if (!out.empty()) out += ';';
    out += name;
    out += '=';
    const FailPointSpec& spec = point.spec;
    switch (spec.trigger) {
      case FailPointSpec::Trigger::kAlways:
        out += "always";
        break;
      case FailPointSpec::Trigger::kOff:
        out += "off";
        break;
      case FailPointSpec::Trigger::kProbability:
        out += "prob:" + std::to_string(spec.probability);
        break;
      case FailPointSpec::Trigger::kEveryN:
        out += "every:" + std::to_string(spec.n);
        break;
      case FailPointSpec::Trigger::kAfterN:
        out += "after:" + std::to_string(spec.n);
        break;
      case FailPointSpec::Trigger::kFirstN:
        out += "first:" + std::to_string(spec.n);
        break;
    }
  }
  return out;
}

namespace internal {

bool ArmFromEnvironment() {
  // Global() parses DPLEARN_FAILPOINTS and publishes the armed count before
  // it returns, so the load below never reads the -1 again.
  FailPointRegistry::Global();
  return armed_count.load(std::memory_order_relaxed) > 0;
}

}  // namespace internal

Status Inject(const char* name) {
  if (ShouldFail(name)) {
    return UnavailableError(std::string(kInjectedPrefix) + name + "'");
  }
  return Status::Ok();
}

bool IsInjectedFault(const Status& status) {
  return status.code() == StatusCode::kUnavailable &&
         status.message().rfind(kInjectedPrefix, 0) == 0;
}

bool IsInjectedFaultMessage(const char* message) {
  return message != nullptr &&
         std::string_view(message).substr(0, sizeof(kInjectedPrefix) - 1) ==
             kInjectedPrefix;
}

ScopedFailPoint::ScopedFailPoint(const std::string& name, const FailPointSpec& spec)
    : name_(name) {
  FailPointRegistry& registry = FailPointRegistry::Global();
  for (const FailPointStats& stats : registry.Stats()) {
    if (stats.name != name_) continue;
    had_previous_ = true;
    break;
  }
  if (had_previous_) {
    // Re-parse the rendered config to recover the previous spec. Cheap, and
    // it keeps the registry interface minimal.
    const std::string config = registry.ConfigString();
    std::size_t start = 0;
    while (start <= config.size()) {
      std::size_t end = config.find(';', start);
      if (end == std::string::npos) end = config.size();
      const std::string entry = config.substr(start, end - start);
      start = end + 1;
      const auto eq = entry.find('=');
      if (eq != std::string::npos && entry.substr(0, eq) == name_) {
        auto parsed = FailPointSpec::Parse(entry.substr(eq + 1));
        if (parsed.ok()) previous_ = parsed.value();
      }
    }
  }
  registry.Set(name_, spec);
}

ScopedFailPoint::ScopedFailPoint(const std::string& name, const std::string& spec)
    : ScopedFailPoint(name, [&spec, &name] {
        auto parsed = FailPointSpec::Parse(spec);
        if (!parsed.ok()) {
          std::fprintf(stderr, "FATAL: ScopedFailPoint('%s'): %s\n", name.c_str(),
                       parsed.status().ToString().c_str());
          std::abort();
        }
        return parsed.value();
      }()) {}

ScopedFailPoint::~ScopedFailPoint() {
  FailPointRegistry& registry = FailPointRegistry::Global();
  if (had_previous_) {
    registry.Set(name_, previous_);
  } else {
    registry.Clear(name_);
  }
}

}  // namespace robustness
}  // namespace dplearn

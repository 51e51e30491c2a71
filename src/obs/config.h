#ifndef DPLEARN_OBS_CONFIG_H_
#define DPLEARN_OBS_CONFIG_H_

namespace dplearn {
namespace obs {

/// Process-wide observability switches. Both are single relaxed atomic
/// loads on the read path, so instrumented hot paths pay one predictable
/// branch when a feature is off.
///
/// Defaults (overridable by environment before first use, then by setters):
///   metrics  — ON  (DPLEARN_METRICS=0 disables). Counter/gauge updates are
///              lock-free relaxed atomics; cost is ~1ns per event.
///   tracing  — OFF (DPLEARN_TRACE=1 enables). TraceSpan reads two
///              steady_clock timestamps per span, so it is opt-in.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

bool TracingEnabled();
void SetTracingEnabled(bool enabled);

}  // namespace obs
}  // namespace dplearn

#endif  // DPLEARN_OBS_CONFIG_H_

// Prometheus text exposition (format 0.0.4) for MetricsRegistry — the dump
// TelemetryReporter writes to DPLEARN_METRICS_FILE and a scraper ingests
// via the node-exporter textfile collector. scripts/check_exposition.py
// validates the shape this file emits; keep the two in sync.
//
// Name mapping (documented in DESIGN.md §12):
//   dotted.metric.name      -> dplearn_dotted_metric_name
//   counters                -> ..._total  (# TYPE counter)
//   gauges                  -> ...        (# TYPE gauge)
//   tenant.<id>.<field>     -> dplearn_tenant_<field>{tenant="<id>"}
//   histograms              -> summaries: {quantile="0.5|0.9|0.99|0.999"}
//                              samples + _sum + _count  (# TYPE summary)

#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace dplearn {
namespace obs {
namespace {

std::string SanitizeMetricName(std::string_view name) {
  std::string out = "dplearn_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string FormatValue(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// "tenant.<id>.<field>" -> family "dplearn_tenant_<field>", label
/// tenant="<id>". The service ledger (service::ShardedPrivacyAccountant)
/// admits only tenant ids without dots, so the split on the first and last
/// '.' is unambiguous.
bool SplitTenantGauge(const std::string& name, std::string* tenant, std::string* field) {
  constexpr std::string_view kPrefix = "tenant.";
  if (name.rfind(kPrefix, 0) != 0) return false;
  const std::size_t field_dot = name.find('.', kPrefix.size());
  if (field_dot == std::string::npos || field_dot + 1 >= name.size()) return false;
  *tenant = name.substr(kPrefix.size(), field_dot - kPrefix.size());
  *field = name.substr(field_dot + 1);
  return !tenant->empty();
}

void AppendTypeLine(std::string* out, const std::string& family, const char* type,
                    std::map<std::string, bool>* declared) {
  if ((*declared)[family]) return;
  (*declared)[family] = true;
  *out += "# TYPE " + family + " " + type + "\n";
}

}  // namespace

std::string MetricsRegistry::WriteExposition() const {
  const Snapshot snap = GetSnapshot();
  std::string out;
  std::map<std::string, bool> declared;

  for (const auto& [name, value] : snap.counters) {
    const std::string family = SanitizeMetricName(name) + "_total";
    AppendTypeLine(&out, family, "counter", &declared);
    out += family + " " + std::to_string(value) + "\n";
  }

  for (const auto& [name, value] : snap.gauges) {
    std::string tenant;
    std::string field;
    if (SplitTenantGauge(name, &tenant, &field)) {
      const std::string family = SanitizeMetricName("tenant." + field);
      AppendTypeLine(&out, family, "gauge", &declared);
      out += family + "{tenant=\"" + tenant + "\"} " + FormatValue(value) + "\n";
    } else {
      const std::string family = SanitizeMetricName(name);
      AppendTypeLine(&out, family, "gauge", &declared);
      out += family + " " + FormatValue(value) + "\n";
    }
  }

  constexpr double kQuantiles[] = {0.5, 0.9, 0.99, 0.999};
  constexpr const char* kQuantileLabels[] = {"0.5", "0.9", "0.99", "0.999"};
  for (const auto& [name, hist] : snap.histograms) {
    const std::string family = SanitizeMetricName(name);
    AppendTypeLine(&out, family, "summary", &declared);
    for (std::size_t i = 0; i < 4; ++i) {
      out += family + "{quantile=\"" + kQuantileLabels[i] + "\"} " +
             FormatValue(hist.Quantile(kQuantiles[i])) + "\n";
    }
    out += family + "_sum " + FormatValue(hist.sum) + "\n";
    out += family + "_count " + std::to_string(hist.count) + "\n";
  }
  return out;
}

namespace internal {

Status WriteFileAtomically(const std::string& path, std::string_view text,
                           std::string_view writer) {
  const std::string tmp = path + ".tmp";
  const std::string who(writer);
  std::FILE* file = std::fopen(tmp.c_str(), "w");
  if (file == nullptr) {
    return UnavailableError(who + ": cannot open '" + tmp + "'");
  }
  const bool wrote = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  const bool closed = std::fclose(file) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return UnavailableError(who + ": write failed for '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return UnavailableError(who + ": rename to '" + path + "' failed");
  }
  return Status::Ok();
}

}  // namespace internal

Status WriteExpositionFile(const MetricsRegistry& registry, const std::string& path) {
  return internal::WriteFileAtomically(path, registry.WriteExposition(),
                                       "WriteExpositionFile");
}

}  // namespace obs
}  // namespace dplearn

#include "obs/export.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "base/text_table.h"

namespace gem::obs {
namespace {

/// %g keeps counters integral ("42") and latencies compact ("3.2e-05").
std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

/// Prometheus exposition-format label-value escaping (promtool
/// rules): backslash, double quote, and newline must be escaped
/// inside the quoted value.
std::string PromEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string PromLabels(const Labels& labels, const char* extra_key = nullptr,
                       const std::string& extra_value = "") {
  if (labels.empty() && extra_key == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += PromEscape(v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += PromEscape(extra_value);
    out += '"';
  }
  out += '}';
  return out;
}

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Quantile over a snapshot's bucket counts (same interpolation as
/// Histogram::Quantile, but computed from the frozen copy).
double SnapshotQuantile(const MetricSnapshot& snap, double q) {
  uint64_t total = 0;
  for (uint64_t c : snap.buckets) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < snap.buckets.size(); ++i) {
    if (snap.buckets[i] == 0) continue;
    const uint64_t next = cumulative + snap.buckets[i];
    if (static_cast<double>(next) >= rank) {
      if (i == snap.bounds.size()) return snap.bounds.back();
      const double lo = i == 0 ? 0.0 : snap.bounds[i - 1];
      const double hi = snap.bounds[i];
      const double within = (rank - static_cast<double>(cumulative)) /
                            static_cast<double>(snap.buckets[i]);
      return lo + within * (hi - lo);
    }
    cumulative = next;
  }
  return snap.bounds.back();
}

}  // namespace

std::optional<ExportFormat> ParseExportFormat(std::string_view text) {
  if (text == "prom" || text == "prometheus") {
    return ExportFormat::kPrometheus;
  }
  if (text == "json") return ExportFormat::kJsonLines;
  if (text == "table") return ExportFormat::kTable;
  return std::nullopt;
}

std::string ExportPrometheus(const std::vector<MetricSnapshot>& snapshot) {
  std::string out;
  const std::string* last_name = nullptr;
  for (const MetricSnapshot& snap : snapshot) {
    if (last_name == nullptr || *last_name != snap.name) {
      out += "# TYPE " + snap.name + " " + TypeName(snap.type) + "\n";
      last_name = &snap.name;
    }
    if (snap.type == MetricType::kHistogram) {
      uint64_t cumulative = 0;
      for (size_t i = 0; i < snap.buckets.size(); ++i) {
        cumulative += snap.buckets[i];
        const std::string le =
            i < snap.bounds.size() ? FormatNumber(snap.bounds[i]) : "+Inf";
        out += snap.name + "_bucket" + PromLabels(snap.labels, "le", le) +
               " " + std::to_string(cumulative) + "\n";
      }
      out += snap.name + "_sum" + PromLabels(snap.labels) + " " +
             FormatNumber(snap.sum) + "\n";
      out += snap.name + "_count" + PromLabels(snap.labels) + " " +
             std::to_string(snap.count) + "\n";
    } else {
      out += snap.name + PromLabels(snap.labels) + " " +
             FormatNumber(snap.value) + "\n";
    }
  }
  return out;
}

std::string ExportJsonLines(const std::vector<MetricSnapshot>& snapshot) {
  std::string out;
  for (const MetricSnapshot& snap : snapshot) {
    std::string line = "{\"name\":\"" + JsonEscape(snap.name) +
                       "\",\"type\":\"" + TypeName(snap.type) + "\"";
    line += ",\"labels\":{";
    bool first = true;
    for (const auto& [k, v] : snap.labels) {
      if (!first) line += ',';
      first = false;
      line += '"';
      line += JsonEscape(k);
      line += "\":\"";
      line += JsonEscape(v);
      line += '"';
    }
    line += "}";
    if (snap.type == MetricType::kHistogram) {
      line += ",\"count\":" + std::to_string(snap.count);
      line += ",\"sum\":" + FormatNumber(snap.sum);
      line += ",\"bounds\":[";
      for (size_t i = 0; i < snap.bounds.size(); ++i) {
        if (i > 0) line += ',';
        line += FormatNumber(snap.bounds[i]);
      }
      line += "],\"buckets\":[";
      for (size_t i = 0; i < snap.buckets.size(); ++i) {
        if (i > 0) line += ',';
        line += std::to_string(snap.buckets[i]);
      }
      line += "]";
    } else {
      line += ",\"value\":" + FormatNumber(snap.value);
    }
    line += "}\n";
    out += line;
  }
  return out;
}

std::string ExportTable(const std::vector<MetricSnapshot>& snapshot) {
  TextTable table(
      {"metric", "labels", "type", "value/count", "mean", "p50", "p90",
       "p99"});
  for (const MetricSnapshot& snap : snapshot) {
    std::string labels;
    for (const auto& [k, v] : snap.labels) {
      if (!labels.empty()) labels += ',';
      labels += k + "=" + v;
    }
    std::vector<std::string> cells = {snap.name, labels,
                                      TypeName(snap.type)};
    if (snap.type == MetricType::kHistogram) {
      const double mean =
          snap.count == 0 ? 0.0
                          : snap.sum / static_cast<double>(snap.count);
      cells.push_back(std::to_string(snap.count));
      cells.push_back(FormatNumber(mean));
      cells.push_back(FormatNumber(SnapshotQuantile(snap, 0.50)));
      cells.push_back(FormatNumber(SnapshotQuantile(snap, 0.90)));
      cells.push_back(FormatNumber(SnapshotQuantile(snap, 0.99)));
    } else {
      cells.push_back(FormatNumber(snap.value));
    }
    table.AddRow(std::move(cells));
  }
  return table.ToString();
}

std::string Export(const MetricsRegistry& registry, ExportFormat format) {
  const std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  switch (format) {
    case ExportFormat::kPrometheus:
      return ExportPrometheus(snapshot);
    case ExportFormat::kJsonLines:
      return ExportJsonLines(snapshot);
    case ExportFormat::kTable:
      return ExportTable(snapshot);
  }
  return "";
}

Status WriteMetrics(const std::string& path, ExportFormat format) {
  const std::string text = Export(MetricsRegistry::Get(), format);
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return Status::Ok();
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open metrics file: " + path);
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    return Status::Internal("short write to metrics file: " + path);
  }
  return Status::Ok();
}

}  // namespace gem::obs

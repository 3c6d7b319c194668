#include "obs/export.h"

#include <fstream>
#include <ostream>
#include <sstream>

namespace maps {
namespace obs {

namespace {

/// JSON string escaping for metric names, trace details (paths, state
/// names). Control characters become \u00XX.
std::string Quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out.push_back(hex[(c >> 4) & 0xf]);
          out.push_back(hex[c & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

/// Sparse bucket array: [[index, count], ...] over non-empty buckets, in
/// index order — stable and compact for 64-bucket histograms that touch a
/// handful of buckets.
void AppendBuckets(const Histogram& h, std::string* out) {
  *out += "\"buckets\":[";
  bool first = true;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    const int64_t n = h.bucket(i);
    if (n == 0) continue;
    if (!first) out->push_back(',');
    first = false;
    out->push_back('[');
    *out += std::to_string(i);
    out->push_back(',');
    *out += std::to_string(n);
    out->push_back(']');
  }
  out->push_back(']');
}

void AppendCounterObject(const MetricsRegistry& registry, Determinism want,
                         std::string* out) {
  *out += "\"counters\":{";
  bool first = true;
  for (const auto& c : registry.counters()) {
    if (c.det != want) continue;
    if (!first) out->push_back(',');
    first = false;
    *out += Quote(c.name) + ":" + std::to_string(c.metric->value());
  }
  out->push_back('}');
}

void AppendGaugeObject(const MetricsRegistry& registry, Determinism want,
                       std::string* out) {
  *out += "\"gauges\":{";
  bool first = true;
  for (const auto& g : registry.gauges()) {
    if (g.det != want) continue;
    if (!first) out->push_back(',');
    first = false;
    *out += Quote(g.name) + ":{\"value\":" + std::to_string(g.metric->value()) +
            ",\"max\":" + std::to_string(g.metric->max()) + "}";
  }
  out->push_back('}');
}

void AppendHistogramObject(const MetricsRegistry& registry, Determinism want,
                           bool percentiles, std::string* out) {
  *out += "\"histograms\":{";
  bool first = true;
  for (const auto& h : registry.histograms()) {
    if (h.det != want) continue;
    if (!first) out->push_back(',');
    first = false;
    *out += Quote(h.name) + ":{\"count\":" + std::to_string(h.metric->count()) +
            ",\"sum\":" + std::to_string(h.metric->sum()) + ",";
    if (percentiles) {
      *out += "\"p50\":" + std::to_string(h.metric->Percentile(0.50)) +
              ",\"p90\":" + std::to_string(h.metric->Percentile(0.90)) +
              ",\"p99\":" + std::to_string(h.metric->Percentile(0.99)) + ",";
    }
    AppendBuckets(*h.metric, out);
    out->push_back('}');
  }
  out->push_back('}');
}

}  // namespace

std::string RenderDeterministicSlice(const MetricsRegistry& registry,
                                     const TraceLog* trace) {
  std::string out = "{";
  AppendCounterObject(registry, Determinism::kDeterministic, &out);
  out.push_back(',');
  AppendGaugeObject(registry, Determinism::kDeterministic, &out);
  out.push_back(',');
  // Deterministic histograms (byte sizes, event-derived values) export
  // their bucket counts but no percentiles — the bounds already say it.
  AppendHistogramObject(registry, Determinism::kDeterministic,
                        /*percentiles=*/false, &out);
  out += ",\"trace\":";
  if (trace == nullptr) {
    out += "null";
  } else {
    out += "{\"appended\":" + std::to_string(trace->appended()) +
           ",\"dropped\":" + std::to_string(trace->dropped()) + "}";
  }
  out.push_back('}');
  return out;
}

std::string RenderMetricsJson(const MetricsRegistry& registry,
                              const TraceLog* trace) {
  std::string out = "{\n\"schema\":";
  out += Quote(kMetricsSchema);
  out += ",\n\"deterministic\":";
  out += RenderDeterministicSlice(registry, trace);
  out += ",\n\"wall_clock\":{";
  AppendCounterObject(registry, Determinism::kWallClock, &out);
  out.push_back(',');
  AppendGaugeObject(registry, Determinism::kWallClock, &out);
  out.push_back(',');
  AppendHistogramObject(registry, Determinism::kWallClock,
                        /*percentiles=*/true, &out);
  out += "}\n}\n";
  return out;
}

std::string RenderMetricsText(const MetricsRegistry& registry) {
  std::ostringstream out;
  for (const auto& c : registry.counters()) {
    out << c.name << " " << c.metric->value() << "\n";
  }
  for (const auto& g : registry.gauges()) {
    out << g.name << " value=" << g.metric->value()
        << " max=" << g.metric->max() << "\n";
  }
  for (const auto& h : registry.histograms()) {
    const int64_t n = h.metric->count();
    out << h.name << " count=" << n;
    if (n > 0) {
      out << " mean=" << h.metric->sum() / n
          << " p50=" << h.metric->Percentile(0.50)
          << " p90=" << h.metric->Percentile(0.90)
          << " p99=" << h.metric->Percentile(0.99);
    }
    out << "\n";
  }
  return out.str();
}

void WriteTraceJsonl(const TraceLog& trace, std::ostream& out) {
  for (const TraceEvent& ev : trace.Events()) {
    out << "{\"seq\":" << ev.seq << ",\"kind\":\"" << TraceKindName(ev.kind)
        << "\",\"period\":" << ev.period << ",\"region\":" << ev.region
        << ",\"value\":" << ev.value << ",\"detail\":" << Quote(ev.detail)
        << "}\n";
  }
}

Status WriteMetricsJsonFile(const std::string& path,
                            const MetricsRegistry& registry,
                            const TraceLog* trace) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out << RenderMetricsJson(registry, trace);
  out.flush();
  if (!out) return Status::Internal("write error on " + path);
  return Status::OK();
}

Status WriteTraceJsonlFile(const std::string& path, const TraceLog& trace) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  WriteTraceJsonl(trace, out);
  out.flush();
  if (!out) return Status::Internal("write error on " + path);
  return Status::OK();
}

}  // namespace obs
}  // namespace maps

#include "obs/metrics.hpp"

#include <cstdio>
#include <vector>

#include "common/ensure.hpp"

namespace decloud::obs {

namespace {

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_size(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

stats::Histogram& MetricsRegistry::histogram(std::string_view name, double lo, double hi,
                                             std::size_t bins) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    stats::Histogram& h = it->second;
    DECLOUD_EXPECTS_MSG(h.lo() == lo && h.hi() == hi && h.bin_count() == bins,
                        "histogram re-registered with a different bucket layout");
    return h;
  }
  return histograms_.emplace(std::string(name), stats::Histogram(lo, hi, bins)).first->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counter(name).add(c.value());
  for (const auto& [name, g] : other.gauges_) gauge(name).add(g.value());
  for (const auto& [name, h] : other.histograms_) {
    histogram(name, h.lo(), h.hi(), h.bin_count()).merge(h);
  }
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\"" : ",\"";
    first = false;
    out += name;
    out += "\":";
    append_size(out, c.value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\"" : ",\"";
    first = false;
    out += name;
    out += "\":";
    append_double(out, g.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\"" : ",\"";
    first = false;
    out += name;
    out += "\":{\"lo\":";
    append_double(out, h.lo());
    out += ",\"hi\":";
    append_double(out, h.hi());
    out += ",\"total\":";
    append_double(out, h.total());
    out += ",\"sum\":";
    append_double(out, h.sum());
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < h.bin_count(); ++b) {
      if (b > 0) out += ",";
      append_double(out, h.count(b));
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::to_prometheus() const {
  std::string out;
  for (const auto& [name, c] : counters_) {
    const std::string pn = prometheus_name(name);
    out += "# TYPE " + pn + " counter\n" + pn + " ";
    append_size(out, c.value());
    out += "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string pn = prometheus_name(name);
    out += "# TYPE " + pn + " gauge\n" + pn + " ";
    append_double(out, g.value());
    out += "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string pn = prometheus_name(name);
    out += "# TYPE " + pn + " histogram\n";
    // Cumulative buckets; the boundary bins clamp (histogram.hpp), so the
    // first `le` is the edge of bin 0 and +Inf repeats the grand total.
    double cumulative = 0.0;
    const double width = (h.hi() - h.lo()) / static_cast<double>(h.bin_count());
    for (std::size_t b = 0; b < h.bin_count(); ++b) {
      cumulative += h.count(b);
      out += pn + "_bucket{le=\"";
      append_double(out, h.lo() + width * static_cast<double>(b + 1));
      out += "\"} ";
      append_double(out, cumulative);
      out += "\n";
    }
    out += pn + "_bucket{le=\"+Inf\"} ";
    append_double(out, h.total());
    out += "\n" + pn + "_sum ";
    append_double(out, h.sum());
    out += "\n" + pn + "_count ";
    append_double(out, h.total());
    out += "\n";
  }
  return out;
}

}  // namespace decloud::obs

#include "report.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[40];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::EndToEnd(const std::string& name, const std::string& unit,
                      double value, const std::string& note) {
  end_to_end_.push_back(Metric{name, unit, value, note});
}

void Report::Layer(const std::string& name, const std::string& unit,
                   double value, const std::string& note) {
  layers_.push_back(Metric{name, unit, value, note});
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 20) {
      fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
  }
}

void Report::Tally(uint64_t attempted, uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    fprintf(stderr, "perfbench: FAILED %llu of %llu %s\n",
            static_cast<unsigned long long>(failed),
            static_cast<unsigned long long>(attempted), what.c_str());
  }
}

void Report::PrintSummary(FILE* out, bool traced) const {
  const std::vector<Metric>& metrics = traced ? layers_ : end_to_end_;
  for (const Metric& m : metrics) {
    fprintf(out, "  %-34s %16.6g %-8s %s\n", m.name.c_str(), m.value,
            m.unit.c_str(), m.note.c_str());
  }
  const double error_rate =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  fprintf(out, "  %-34s %16.6g %-8s (%llu failed of %llu operations)\n",
          "error_rate", error_rate, "ratio",
          static_cast<unsigned long long>(failed_),
          static_cast<unsigned long long>(attempted_));
}

std::string Report::ResultLine(bool traced) const {
  const std::vector<Metric>& metrics = traced ? layers_ : end_to_end_;
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + JsonEscape(metrics[i].name) + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" +
           JsonEscape(metrics[i].unit) + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

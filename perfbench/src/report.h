// The benchmark's result: named metrics with units, the tally of checked
// operations, and the one-line JSON object the benchmark prints last.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values`; 0 when empty.
double Median(std::vector<double> values);

/// Nearest-rank quantile `q` in [0, 1] of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// `s` escaped for a JSON string literal (without the quotes).
std::string JsonEscape(const std::string& s);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  /// Printed next to the value in the summary (e.g. a sample count).
  std::string note;
};

class Report {
 public:
  /// A metric a user of the system sees (printed by untraced runs).
  void EndToEnd(const std::string& name, const std::string& unit,
                double value, const std::string& note = "");
  /// A metric of one layer (printed by traced runs).
  void Layer(const std::string& name, const std::string& unit, double value,
             const std::string& note = "");

  /// Counts one checked operation; a failed one is also logged to stderr
  /// with `what` (the first few only).
  void Check(bool ok, const std::string& what);

  /// Counts `attempted` operations of which `failed` failed, checked
  /// elsewhere (e.g. by client threads).
  void Tally(uint64_t attempted, uint64_t failed, const std::string& what);

  /// Human-readable table of the metrics the run prints.
  void PrintSummary(FILE* out, bool traced) const;

  /// {"correct": .., "attempted": .., "failed": .., "metrics": {..}} with
  /// the end-to-end metrics (untraced) or the per-layer ones (traced).
  std::string ResultLine(bool traced) const;

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

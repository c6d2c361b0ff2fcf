// Output of one benchmark invocation: human-readable lines first (every
// metric by name with its unit, percentiles with their sample counts,
// every failed correctness check), then exactly one JSON object as the
// last line of stdout:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "latency.h"

namespace perfbench {

class Report {
 public:
  /// Adds a metric to the JSON line and prints it.
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& detail = "");
  /// A percentile, printed with the sample count it rests on; added to
  /// the JSON line only when `in_result`.
  void percentile(const std::string& name, double value,
                  const Percentiles& from, bool in_result = true);
  /// Prints an informational line that is not a metric.
  void note(const std::string& line);
  /// Records a failed correctness check; the run then exits non-zero.
  void fail(const std::string& what);
  /// Expected (message, correct receiver) pairs and how many were never
  /// accepted — the benchmark's attempted and failed operations.
  void set_operations(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  /// Prints the JSON line; returns the process exit code.
  int finish() const;

 private:
  /// Prints a figure in metric format without adding it to the JSON line.
  void print(const std::string& name, double value, const std::string& unit,
             const std::string& detail) const;

  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Formats a double with every significant digit; infinity becomes 1e999,
/// a valid JSON number that JSON readers decode as infinity.
std::string json_number(double value);

}  // namespace perfbench

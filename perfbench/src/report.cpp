#include "report.h"

#include <cmath>
#include <cstdio>
#include <iostream>

namespace perfbench {

std::string json_number(double value) {
  if (std::isinf(value)) return value > 0 ? "1e999" : "-1e999";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& detail) {
  entries_.push_back(Entry{name, value, unit});
  print(name, value, unit, detail);
}

void Report::print(const std::string& name, double value,
                   const std::string& unit, const std::string& detail) const {
  std::printf("  %-32s %16.6g %-9s%s%s\n", name.c_str(), value, unit.c_str(),
              detail.empty() ? "" : "  ", detail.c_str());
}

void Report::percentile(const std::string& name, double value,
                        const Percentiles& from, bool in_result) {
  std::string detail = "samples=" + std::to_string(from.samples) +
                       " missing=" + std::to_string(from.missing) +
                       " beyond_p99=" + std::to_string(from.beyond_p99);
  if (!from.p99_resolved()) detail += " (p99 has <10 samples beyond it)";
  if (in_result) {
    metric(name, value, "ms", detail);
  } else {
    print(name, value, "ms", detail + " [printed only]");
  }
}

void Report::note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
}

void Report::fail(const std::string& what) {
  failures_.push_back(what);
  std::printf("CORRECTNESS FAILURE: %s\n", what.c_str());
}

int Report::finish() const {
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) json += ", ";
    json += "\"" + e.name + "\": {\"value\": " + json_number(e.value) +
            ", \"unit\": \"" + e.unit + "\"}";
  }
  json += "}}";
  std::cout.flush();
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace perfbench

// The benchmark's metric and workload names, and the one-line JSON result.
//
// These tables must match BENCHMARK.json: an untraced run reports exactly
// the end-to-end metrics, a traced run exactly the per-layer metrics, in
// every workload.  The unit test checks the two files agree.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<std::string>& workload_names();
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

// Names are made of [A-Za-z0-9_.-], start with a letter or digit, and are
// at most 64 characters.
bool valid_name(std::string_view name);

// Collects metric values for one run and renders the result line.
class Report {
 public:
  void set(const std::string& name, double value);
  double get(const std::string& name) const;

  // {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,
  // "unit":..},..}} over exactly `defs`; throws when one is missing.
  std::string result_line(const std::vector<MetricDef>& defs, bool correct,
                          std::uint64_t attempted,
                          std::uint64_t failed) const;

 private:
  std::map<std::string, double> values_;
};

}  // namespace perfbench

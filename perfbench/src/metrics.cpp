#include "metrics.h"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"read_tcp", "read_degraded",
                                                 "ingest_tcp"};
  return names;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"ok_frac", "frac"},
      {"read_p50_ms", "ms"},
      {"read_p75_ms", "ms"},
      {"read_capacity_qps", "1/s"},
      {"read_amp", "B/B"},
      {"put_mibps", "MiB/s"},
      {"scrub_mibps", "MiB/s"},
      {"repair_mibps", "MiB/s"},
      {"get_mibps", "MiB/s"},
      {"stored_bytes_per_user_byte", "B/B"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"loadgen.lag_p99_us", "us"},
      {"loadgen.queue_wait_us", "us"},
      {"net.calls_per_op", "count"},
      {"net.call_us", "us"},
      {"net.handler_us", "us"},
      {"net.wire_us", "us"},
      {"net.wire_bytes_per_user_byte", "B/B"},
      {"net.retries_per_op", "count"},
      {"net.timeouts_per_op", "count"},
      {"io.pread_calls_per_op", "count"},
      {"io.pread_bytes_per_user_byte", "B/B"},
      {"io.pread_us", "us"},
      {"io.meta_calls_per_op", "count"},
      {"io.pwrite_bytes_per_user_byte", "B/B"},
      {"io.sync_calls_per_op", "count"},
      {"io.sync_us", "us"},
      {"store.read_service_us", "us"},
      {"store.pipeline.read_us", "us"},
      {"store.pipeline.process_us", "us"},
      {"store.pipeline.write_us", "us"},
      {"store.pipeline.stall_read_per_op", "count"},
      {"store.pipeline.stall_write_per_op", "count"},
      {"codec.encode_mibps", "MiB/s"},
      {"codec.degraded_read_mibps", "MiB/s"},
      {"codec.repair_mibps", "MiB/s"},
      {"kernels.bytes_per_op", "B"},
      {"core.degraded_read_us", "us"},
      {"crc32.mibps", "MiB/s"},
      {"layers.unattributed_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return defs;
}

bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

void Report::set(const std::string& name, double value) {
  values_[name] = value;
}

double Report::get(const std::string& name) const { return values_.at(name); }

namespace {

// Shortest decimal that round-trips: every digit the measurement has.
std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string Report::result_line(const std::vector<MetricDef>& defs,
                                bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values_.find(d.name);
    if (it == values_.end()) {
      throw std::logic_error(std::string("metric not measured: ") + d.name);
    }
    if (!first) out += ", ";
    first = false;
    out.append("\"").append(d.name).append("\": {\"value\": ");
    out.append(num(it->second)).append(", \"unit\": \"");
    out.append(d.unit).append("\"}");
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

// The three benchmark workloads and the micro-measurements of the codec
// and CRC layers that the traced run adds.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "metrics.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::filesystem::path workdir;    // private to this run, removed after
  std::filesystem::path trace_out;  // Chrome trace of a traced run
};

struct RunResult {
  Report report;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Runs one workload; human-readable tables go to stdout.
RunResult run_workload(const RunArgs& args);

// codec.encode_mibps, codec.degraded_read_mibps, codec.repair_mibps and
// crc32.mibps from direct calls on one stripe of the volume's geometry,
// each timed for about `seconds`.  Returns false when a direct repair or
// degraded read produced wrong bytes.
bool measure_codec_layers(Report& report, double seconds, int lost_node);

}  // namespace perfbench

// perfbench: the repository benchmark program.
//
//   perfbench --workload read_tcp|read_degraded|ingest_tcp --seed N
//             --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]
//
// Prints human-readable tables, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced run.  Exits 1
// when any output was wrong (a read's bytes, a scrub, a repair, a get),
// 2 on bad arguments or an error that stopped the run.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "metrics.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  const bool paired = argc % 2 == 1;  // every flag takes one value
  for (int i = 1; paired && i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = val;
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
      } else if (key == "--seconds") {
        args.seconds = std::stod(val);
      } else if (key == "--trace") {
        args.trace = std::stoi(val) != 0;
      } else if (key == "--workdir") {
        args.workdir = val;
      } else if (key == "--trace-out") {
        args.trace_out = val;
      } else {
        std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
        return 2;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "perfbench: bad value for %s\n", key.c_str());
      return 2;
    }
  }
  if (!paired || args.workload.empty() || args.workdir.empty() ||
      args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--trace-out FILE]\n");
    return 2;
  }

  int code = 0;
  try {
    const perfbench::RunResult res = perfbench::run_workload(args);
    const std::string line = res.report.result_line(
        args.trace ? perfbench::per_layer_metrics()
                   : perfbench::end_to_end_metrics(),
        res.correct, res.attempted, res.failed);
    std::printf("%s\n", line.c_str());
    code = res.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    code = 2;
  }
  std::fflush(stdout);
  std::error_code ec;
  std::filesystem::remove_all(args.workdir, ec);
  return code;
}

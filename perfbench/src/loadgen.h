// Load generation for the repository benchmark: a seeded Zipf request
// schedule, an open-loop dispatcher that times every request from its
// intended send time, a closed-loop phase, and exact percentiles with the
// number of samples behind each one.
//
// The schedule is a pure function of the seed and is built before any
// clock starts; its CRC lets two runs prove they replayed the same reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/prng.h"

namespace perfbench {

struct ReadReq {
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
};

struct Schedule {
  std::vector<ReadReq> reqs;
  std::uint32_t crc = 0;  // CRC-32 over every (offset, len) in order
};

// `count` reads of `read_bytes` at object-aligned offsets of a
// `file_bytes` file, object popularity Zipf(theta).
Schedule make_schedule(std::uint64_t seed, std::uint64_t file_bytes,
                       std::uint32_t read_bytes, double theta,
                       std::size_t count);

// Nearest-rank percentiles.  `beyond_*` is the number of samples strictly
// greater than the reported value, so a reader can tell how many samples
// a tail figure rests on.
struct Summary {
  std::size_t n = 0;
  double mean = 0, max = 0;
  double p50 = 0, p75 = 0, p90 = 0, p99 = 0, p999 = 0;
  std::size_t beyond_p50 = 0, beyond_p75 = 0, beyond_p90 = 0, beyond_p99 = 0,
              beyond_p999 = 0;
};
Summary summarize(std::vector<double> samples);

// One operation: serve request `i`; returns true when its bytes were
// correct.  Exceptions count as failures.
using ReadOp = std::function<bool(std::size_t i, const ReadReq& req,
                                  std::vector<std::uint8_t>& buf)>;

struct OpenLoopResult {
  // Per request, in schedule order (microseconds).
  std::vector<double> latency_us;     // completion - intended send time
  std::vector<double> lag_us;         // dispatch - intended send time
  std::vector<double> queue_wait_us;  // worker pickup - dispatch
  std::vector<double> service_us;     // completion - worker pickup
  std::vector<std::uint8_t> ok;       // correct bytes, no exception
};

// Dispatch `reqs` at a fixed `qps` to `workers` threads.  Request i is due
// at t0 + i/qps whether or not a worker is free, and its latency counts
// from then (no coordinated omission).
OpenLoopResult run_open_loop(const std::vector<ReadReq>& reqs, double qps,
                             unsigned workers, const ReadOp& op);

struct ClosedLoopResult {
  std::uint64_t completed = 0;  // correct reads
  std::uint64_t failed = 0;
  double seconds = 0;
};

// `workers` clients each issue their next read as soon as the previous
// one returns, walking `reqs` round-robin, for `seconds`.
ClosedLoopResult run_closed_loop(const std::vector<ReadReq>& reqs,
                                 double seconds, unsigned workers,
                                 const ReadOp& op);

// Client threads: at most 4 and at most the host's hardware threads.
unsigned client_threads();

}  // namespace perfbench

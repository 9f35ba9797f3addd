// Direct micro-measurements of the codec (core/codes/kernels) and CRC
// layers, so the traced run can say what those layers cost on their own
// next to their share of an end-to-end operation.
#include <cstring>
#include <span>
#include <vector>

#include "common/crc32.h"
#include "common/prng.h"
#include "core/approximate_code.h"
#include "obs/span.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
volatile std::uint32_t crc_sink = 0;

// Repeat `op` (which handles `bytes` user bytes) for about `seconds`;
// returns MiB/s.
template <typename Op>
double throughput(double seconds, std::size_t bytes, Op&& op) {
  op();  // warm-up: lazy tables, schedule caches, page faults
  std::uint64_t iters = 0;
  const double t0 = approx::obs::now_us();
  double t1 = t0;
  do {
    op();
    ++iters;
    t1 = approx::obs::now_us();
  } while (t1 - t0 < seconds * 1e6);
  return static_cast<double>(bytes) * static_cast<double>(iters) / kMiB /
         ((t1 - t0) / 1e6);
}

}  // namespace

bool measure_codec_layers(Report& report, double seconds, int lost_node) {
  // The benchmark volume's geometry: RS(4,1,2,4), Even structure, 4 KiB
  // elements.
  const approx::core::ApprParams params{approx::codes::Family::RS, 4, 1, 2, 4,
                                        approx::core::Structure::Even};
  const approx::core::ApproximateCode code(params, 4096);
  const int nodes_n = code.total_nodes();
  std::vector<std::vector<std::uint8_t>> store(
      static_cast<std::size_t>(nodes_n),
      std::vector<std::uint8_t>(code.node_bytes()));
  auto spans_of = [](std::vector<std::vector<std::uint8_t>>& bufs) {
    std::vector<std::span<std::uint8_t>> s;
    for (auto& b : bufs) s.emplace_back(b);
    return s;
  };
  std::vector<std::span<std::uint8_t>> nodes = spans_of(store);

  approx::Rng rng(7);
  std::vector<std::uint8_t> important(code.important_capacity());
  std::vector<std::uint8_t> unimportant(code.unimportant_capacity());
  approx::fill_random(important.data(), important.size(), rng);
  approx::fill_random(unimportant.data(), unimportant.size(), rng);
  code.scatter(important, unimportant, nodes);
  const std::size_t data_bytes = important.size() + unimportant.size();

  report.set("codec.encode_mibps",
             throughput(seconds, data_bytes, [&] { code.encode(nodes); }));
  const std::vector<std::vector<std::uint8_t>> reference = store;

  const int erased[] = {lost_node};
  std::vector<std::uint8_t> out_imp(important.size());
  std::vector<std::uint8_t> out_unimp(unimportant.size());
  bool ok = true;
  report.set("codec.degraded_read_mibps",
             throughput(seconds, data_bytes, [&] {
               ok &= code.degraded_read_important(nodes, erased, 0, out_imp).ok;
               ok &= code.degraded_read_unimportant(nodes, erased, 0,
                                                    out_unimp).ok;
             }));
  ok = ok && out_imp == important && out_unimp == unimportant;

  std::vector<std::vector<std::uint8_t>> work = reference;
  std::vector<std::span<std::uint8_t>> work_nodes = spans_of(work);
  auto& lost = work[static_cast<std::size_t>(lost_node)];
  report.set("codec.repair_mibps", throughput(seconds, data_bytes, [&] {
               std::memset(lost.data(), 0, lost.size());
               code.repair(work_nodes, erased);
             }));
  ok = ok && work == reference;

  std::vector<std::uint8_t> mib(1 << 20);
  approx::fill_random(mib.data(), mib.size(), rng);
  std::uint32_t sink = 0;
  report.set("crc32.mibps", throughput(seconds, mib.size(), [&] {
               sink ^= approx::crc32(mib);
             }));
  crc_sink = sink;  // keeps the CRC loop from being optimised away
  return ok;
}

}  // namespace perfbench

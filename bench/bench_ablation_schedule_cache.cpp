// Ablation: the repair-schedule cache (DESIGN.md decision 1).  Repairing a
// stripe involves a GF(2)/GF(256) solve to derive the XOR schedule; the
// cache amortizes it across stripes with the same failure pattern, which is
// the steady state of node-level recovery.  "cache OFF" repairs every
// stripe with a freshly constructed copy of the code, so each repair pays
// the cold solve and program compilation.
#include "bench_util.h"

#include "../tests/support/reference_schedule.h"
#include "codes/array_codes.h"
#include "codes/rs_code.h"

using namespace approx;
using namespace approx::bench;

namespace {

double repair_time(const std::shared_ptr<const codes::LinearCode>& code,
                   bool cache_enabled, int reps) {
  constexpr int kRuns = 3;
  BaseStripe stripe(code, std::size_t{256} << 10);
  stripe.encode();
  const std::vector<int> erased = {0, 1, 2};
  // Cold copies are built up front so construction stays out of the timing.
  std::vector<std::shared_ptr<const codes::LinearCode>> cold;
  if (!cache_enabled) {
    for (int i = 0; i < kRuns * reps; ++i) cold.push_back(reference::rebuild(*code));
  }
  std::size_t next = 0;
  const double t = time_op(
      [&] {
        for (int i = 0; i < reps; ++i) {
          if (!cache_enabled) stripe.code = cold[next++];
          stripe.repair(erased);
        }
      },
      kRuns);
  return t / reps;
}

}  // namespace

int main(int argc, char** argv) {
  approx::bench::bench_init(argc, argv, "ablation_schedule_cache");
  print_header("Ablation: repair-schedule cache (triple-failure repair, ms/stripe)");
  print_row({"code", "cache ON", "cache OFF", "solve overhead"}, 18);
  struct Case {
    std::string label;
    std::shared_ptr<const codes::LinearCode> code;
  };
  const Case cases[] = {
      {"RS(8,3)", codes::make_rs(8, 3)},
      {"RS(17,3)", codes::make_rs(17, 3)},
      {"STAR(11)", codes::make_star(11, 3)},
      {"STAR(17)", codes::make_star(17, 3)},
      {"TIP(13)", codes::make_tip(13, 3)},
  };
  for (const auto& c : cases) {
    const double on = repair_time(c.code, true, 8) * 1e3;
    const double off = repair_time(c.code, false, 8) * 1e3;
    print_row({c.label, fmt(on, 3), fmt(off, 3), pct((off - on) / off)}, 18);
  }
  std::printf("\nTakeaway: the GF(2) bit solver keeps even cold solves cheap, "
              "but caching still removes the planning term entirely - at the "
              "cluster level one plan serves thousands of stripes.\n");
  approx::bench::bench_finish();
  return 0;
}

// Schedule-compiler suite: structural invariants of compiled XOR programs,
// blocked-execution equivalence on odd lengths, the dst-aliasing contract,
// a golden XOR-count pin for a fixed CRS matrix (the CSE win the optimizer
// exists for), and the differential suite: every production entry point
// that runs coding math (encode, apply, apply_for_element, scrub) against
// the per-target reference executor in tests/support, byte for byte, over
// every erasure pattern up to each code's tolerance.
#include "codes/schedule_opt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../support/reference_schedule.h"
#include "codes/array_codes.h"
#include "codes/crs_code.h"
#include "codes/lrc_code.h"
#include "codes/mixed_code.h"
#include "codes/rs_code.h"
#include "codes/verify.h"
#include "common/buffer.h"
#include "common/error.h"
#include "common/prng.h"

namespace approx::codes {
namespace {

constexpr std::uint64_t kSeed = 0xC0DE5EEDull;

using reference::encode_statements;

// Every temp is defined before use; every program-written element is read
// only after its own statement ran (the dependency order repair schedules
// rely on).
void check_program_order(const XorProgram& prog) {
  std::set<std::pair<int, int>> all_dsts;
  for (const auto& s : prog.stmts) {
    if (s.dst.node != XorProgram::kTempNode) {
      all_dsts.insert({s.dst.node, s.dst.row});
    }
  }
  std::set<int> temps_defined;
  std::set<std::pair<int, int>> elems_written;
  for (const auto& s : prog.stmts) {
    for (const auto& src : s.sources) {
      if (src.ref.node == XorProgram::kTempNode) {
        EXPECT_TRUE(temps_defined.contains(src.ref.row))
            << "temp " << src.ref.row << " read before definition";
      } else if (all_dsts.contains({src.ref.node, src.ref.row})) {
        EXPECT_TRUE(elems_written.contains({src.ref.node, src.ref.row}))
            << "element (" << src.ref.node << "," << src.ref.row
            << ") read before its rebuilding statement";
      }
    }
    if (s.dst.node == XorProgram::kTempNode) {
      temps_defined.insert(s.dst.row);
    } else {
      elems_written.insert({s.dst.node, s.dst.row});
    }
  }
}

TEST(ScheduleCompile, CrsEncodeSharesSubexpressions) {
  auto code = make_cauchy_rs(6, 3);
  auto prog = compile_schedule(encode_statements(*code));
  ASSERT_NE(prog, nullptr);
  EXPECT_GT(prog->temp_count, 0);
  EXPECT_LT(prog->compiled_xors, prog->naive_xors);
  check_program_order(*prog);
}

// Golden pin for a fixed CRS matrix: the Cauchy layout of make_cauchy_rs is
// frozen, and greedy CSE with deterministic tie-breaking always produces the
// same program, so the counts are exact.  A change here means the optimizer
// (or the CRS construction) changed behavior - update deliberately.
TEST(ScheduleCompile, GoldenCrsXorCounts) {
  auto code = make_cauchy_rs(4, 2);
  auto prog = compile_schedule(encode_statements(*code));
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->naive_xors, 219u);
  EXPECT_EQ(prog->compiled_xors, 107u);  // 51% fewer XOR passes
  EXPECT_EQ(prog->temp_count, 41);
  EXPECT_LT(prog->compiled_xors, prog->naive_xors);
}

TEST(ScheduleCompile, SingleStatementCompilesVerbatim) {
  auto code = make_cauchy_rs(4, 2);
  auto stmts = encode_statements(*code);
  stmts.resize(1);
  auto prog = compile_schedule(stmts);
  EXPECT_EQ(prog->temp_count, 0);
  EXPECT_EQ(prog->stmts.size(), 1u);
  EXPECT_EQ(prog->compiled_xors, prog->naive_xors);
}

TEST(ScheduleCompile, DensePairCapSkipsCse) {
  // Two statements sharing 400 operands: ~80k operand pairs, past the CSE
  // cap, so the program must come out verbatim (blocking still applies).
  std::vector<RepairPlan::Target> stmts(2);
  stmts[0].elem = {500, 0};
  stmts[1].elem = {501, 0};
  for (int i = 0; i < 400; ++i) {
    stmts[0].sources.push_back({ElemRef{i, 0}, 1});
    stmts[1].sources.push_back({ElemRef{i, 0}, 1});
  }
  auto prog = compile_schedule(stmts);
  EXPECT_EQ(prog->temp_count, 0);
  EXPECT_EQ(prog->compiled_xors, prog->naive_xors);
}

TEST(ScheduleCompile, RepairPlanDependencyOrderSurvives) {
  auto code = make_star(7, 3);
  for (const auto& erased :
       {std::vector<int>{0, 1}, {0, 1, 2}, {2, 7, 8}, {7, 8, 9}}) {
    auto plan = code->plan_repair(erased);
    ASSERT_NE(plan, nullptr);
    auto prog = compile_schedule(plan->targets);
    check_program_order(*prog);
  }
}

// Execute a program twice - default block size vs a tiny one that forces
// many partial blocks on an odd length - and require identical bytes.
TEST(ScheduleRun, BlockedExecutionMatchesDefault) {
  auto code = make_cauchy_rs(5, 3);
  const std::size_t len = 333;  // odd: exercises partial-block tails
  const std::size_t node_bytes = len * static_cast<std::size_t>(code->rows());
  StripeBuffers a(code->total_nodes(), node_bytes);
  Rng rng(kSeed);
  for (int n = 0; n < code->total_nodes(); ++n) {
    auto s = a.node(n);
    fill_random(s.data(), s.size(), rng);
  }
  StripeBuffers b = a;

  auto prog = compile_schedule(encode_statements(*code));
  const auto views = [&](StripeBuffers& buf) {
    std::vector<NodeView> v;
    for (int n = 0; n < code->total_nodes(); ++n) {
      v.push_back(full_view(buf.node(n), len));
    }
    return v;
  };
  auto va = views(a);
  auto vb = views(b);
  run_program(*prog, va, len);
  run_program(*prog, vb, len, /*block_bytes=*/7);
  for (int n = 0; n < code->total_nodes(); ++n) {
    ASSERT_EQ(0, std::memcmp(a.node(n).data(), b.node(n).data(), node_bytes))
        << "node " << n;
  }
}

// dst may alias a source (the kernel gather contract): a statement of the
// form "x = x ^ y" must behave like an in-place accumulate.
TEST(ScheduleRun, DstAliasingSourceIsInPlaceAccumulate) {
  const std::size_t len = 97;
  std::vector<std::uint8_t> x(len), y(len), expect(len);
  Rng rng(kSeed);
  fill_random(x.data(), len, rng);
  fill_random(y.data(), len, rng);
  for (std::size_t i = 0; i < len; ++i) {
    expect[i] = static_cast<std::uint8_t>(x[i] ^ y[i]);
  }

  std::vector<RepairPlan::Target> stmts(1);
  stmts[0].elem = {0, 0};
  stmts[0].sources = {{ElemRef{0, 0}, 1}, {ElemRef{1, 0}, 1}};
  auto prog = compile_schedule(stmts);
  const NodeView views[] = {{x.data(), len, len}, {y.data(), len, len}};
  run_program(*prog, views, len);
  EXPECT_EQ(0, std::memcmp(x.data(), expect.data(), len));
}

// Views over every node of `buf` with element length `len`.
std::vector<NodeView> views_of(StripeBuffers& buf, std::size_t len) {
  std::vector<NodeView> v;
  for (int n = 0; n < buf.nodes(); ++n) v.push_back(full_view(buf.node(n), len));
  return v;
}

void expect_same(const StripeBuffers& a, const StripeBuffers& b,
                 const std::string& what) {
  for (int n = 0; n < a.nodes(); ++n) {
    ASSERT_TRUE(std::equal(a.node(n).begin(), a.node(n).end(), b.node(n).begin()))
        << what << ": node " << n << " differs";
  }
}

void wipe(StripeBuffers& buf, const std::vector<int>& erased) {
  for (const int e : erased) {
    auto s = buf.node(e);
    std::memset(s.data(), 0xEE, s.size());
  }
}

// Production vs reference for encode and for apply() of every erasure
// pattern up to the fault tolerance; both must also restore the pristine
// stripe.  Returns the encoded stripe.
template <typename Code>
StripeBuffers diff_encode_and_apply(const Code& code, std::size_t len) {
  const std::size_t node_bytes = len * static_cast<std::size_t>(code.rows());
  StripeBuffers prod(code.total_nodes(), node_bytes);
  Rng rng(kSeed);
  for (int n = 0; n < code.total_nodes(); ++n) {
    auto s = prod.node(n);
    fill_random(s.data(), s.size(), rng);
  }
  StripeBuffers ref = prod;
  code.encode(views_of(prod, len));
  reference::encode(code, views_of(ref, len));
  expect_same(prod, ref, "encode");

  const StripeBuffers pristine = prod;
  for (int failures = 1; failures <= code.fault_tolerance(); ++failures) {
    for_each_subset(code.total_nodes(), failures, [&](const std::vector<int>& erased) {
      SCOPED_TRACE(::testing::PrintToString(erased));
      const auto plan = code.plan_repair(erased);
      EXPECT_NE(plan, nullptr);
      if (plan == nullptr) return true;
      wipe(prod, erased);
      wipe(ref, erased);
      code.apply(*plan, views_of(prod, len));
      reference::apply(*plan, views_of(ref, len));
      expect_same(prod, ref, "apply");
      expect_same(prod, pristine, "apply vs pristine");
      return true;
    });
  }
  return prod;
}

// apply_for_element() for every target of every pattern (count and bytes),
// and scrub() on a clean stripe and with each parity element corrupted.
void diff_element_slices_and_scrub(const LinearCode& code, std::size_t len) {
  StripeBuffers encoded = diff_encode_and_apply(code, len);
  for (int failures = 1; failures <= code.fault_tolerance(); ++failures) {
    for_each_subset(code.total_nodes(), failures, [&](const std::vector<int>& erased) {
      SCOPED_TRACE(::testing::PrintToString(erased));
      const auto plan = code.plan_repair(erased);
      if (plan == nullptr) return true;
      for (const auto& target : plan->targets) {
        StripeBuffers prod = encoded;
        StripeBuffers ref = encoded;
        wipe(prod, erased);
        wipe(ref, erased);
        const int ran = code.apply_for_element(*plan, views_of(prod, len), target.elem);
        const int want = reference::apply_for_element(*plan, views_of(ref, len),
                                                      target.elem);
        EXPECT_EQ(ran, want) << "target (" << target.elem.node << ","
                             << target.elem.row << ")";
        EXPECT_GE(ran, 1);
        expect_same(prod, ref, "apply_for_element");
        const auto elem_bytes = [&](const StripeBuffers& b) {
          return b.node(target.elem.node)
              .subspan(static_cast<std::size_t>(target.elem.row) * len, len);
        };
        EXPECT_TRUE(std::ranges::equal(elem_bytes(prod), elem_bytes(encoded)))
            << "rebuilt element";
      }
      EXPECT_EQ(0, code.apply_for_element(*plan, views_of(encoded, len),
                                          ElemRef{code.total_nodes(), 0}));
      return true;
    });
  }

  EXPECT_TRUE(code.scrub(views_of(encoded, len)).clean());
  EXPECT_TRUE(reference::scrub(code, views_of(encoded, len)).empty());
  for (int p = code.data_nodes(); p < code.total_nodes(); ++p) {
    for (int row = 0; row < code.rows(); ++row) {
      StripeBuffers bad = encoded;
      bad.node(p)[static_cast<std::size_t>(row) * len + len / 2] ^= 0x5A;
      const auto result = code.scrub(views_of(bad, len));
      ASSERT_EQ(result.mismatched.size(), 1u) << "parity (" << p << "," << row << ")";
      EXPECT_EQ(result.mismatched[0], (ElemRef{p, row}));
      EXPECT_EQ(reference::scrub(code, views_of(bad, len)), result.mismatched);
    }
  }
}

// 200 bytes: not a vector multiple, so SIMD main loops and tails both run.
constexpr std::size_t kLen = 200;

TEST(ScheduleDiff, Crs) { diff_element_slices_and_scrub(*make_cauchy_rs(4, 2), kLen); }
TEST(ScheduleDiff, Star) { diff_element_slices_and_scrub(*make_star(5, 3), kLen); }
TEST(ScheduleDiff, Evenodd) { diff_element_slices_and_scrub(*make_evenodd(5), kLen); }
TEST(ScheduleDiff, Rs) { diff_element_slices_and_scrub(*make_rs(5, 3), kLen); }
TEST(ScheduleDiff, Lrc) { diff_element_slices_and_scrub(*make_lrc(4, 2, 2), kLen); }
TEST(ScheduleDiff, MixedXcode) { diff_encode_and_apply(*make_xcode(5), kLen); }

// The Gaussian-only planner emits dense schedules the compiler sees too.
TEST(ScheduleDiff, GaussianOnlyStar) {
  diff_element_slices_and_scrub(*reference::rebuild(*make_star(5, 3), false), kLen);
}

// Every executor entry point rejects views of differing element lengths
// instead of reading past the shorter one.
class ScheduleInputs : public ::testing::Test {
 protected:
  // Views over a stripe of `code` with the last view's length shortened.
  template <typename Code>
  std::vector<NodeView> ragged_views(const Code& code) {
    buf_ = StripeBuffers(code.total_nodes(), kLen * static_cast<std::size_t>(code.rows()));
    auto views = views_of(buf_, kLen);
    views.back().len = kLen - 1;
    return views;
  }
  StripeBuffers buf_;
  const std::vector<int> erased_{0};
};

TEST_F(ScheduleInputs, LinearCodeRejectsMismatchedViewLengths) {
  auto code = make_star(5, 3);
  const auto views = ragged_views(*code);
  const auto plan = code->plan_repair(erased_);
  EXPECT_THROW(code->encode(views), InvalidArgument);
  EXPECT_THROW(code->apply(*plan, views), InvalidArgument);
  EXPECT_THROW(code->apply_for_element(*plan, views, ElemRef{0, 0}), InvalidArgument);
}

TEST_F(ScheduleInputs, ScrubRejectsMismatchedViewLengths) {
  auto code = make_star(5, 3);
  EXPECT_THROW((void)code->scrub(ragged_views(*code)), InvalidArgument);
}

TEST_F(ScheduleInputs, MixedEncodeRejectsMismatchedViewLengths) {
  auto x = make_xcode(5);
  EXPECT_THROW(x->encode(ragged_views(*x)), InvalidArgument);
}

TEST_F(ScheduleInputs, MixedApplyRejectsMismatchedViewLengths) {
  auto x = make_xcode(5);
  const auto plan = x->plan_repair(erased_);
  EXPECT_THROW(x->apply(*plan, ragged_views(*x)), InvalidArgument);
}

// Four threads encode, repair, slice and scrub through one shared, cold
// code: the encode-program cache, the plan cache and each plan's lazy
// compilation are all raced (run under TSan in CI).
TEST(ScheduleConcurrency, SharedCodeFromFourThreads) {
  const auto code = reference::rebuild(*make_star(5, 3));
  StripeBuffers want(code->total_nodes(), kLen * static_cast<std::size_t>(code->rows()));
  Rng rng(kSeed);
  for (int d = 0; d < code->data_nodes(); ++d) {
    auto s = want.node(d);
    fill_random(s.data(), s.size(), rng);
  }
  reference::encode(*code, views_of(want, kLen));

  const std::vector<std::vector<int>> patterns = {{0}, {1, 6}, {0, 2, 7}, {5, 6, 7}};
  std::vector<int> failures(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      int& bad = failures[static_cast<std::size_t>(t)];
      for (int iter = 0; iter < 8; ++iter) {
        StripeBuffers buf = want;
        code->encode(views_of(buf, kLen));
        bad += code->scrub(views_of(buf, kLen)).clean() ? 0 : 1;
        const auto& erased =
            patterns[static_cast<std::size_t>(t + iter) % patterns.size()];
        const auto plan = code->plan_repair(erased);
        wipe(buf, erased);
        const ElemRef first = plan->targets.front().elem;
        bad += code->apply_for_element(*plan, views_of(buf, kLen), first) >= 1 ? 0 : 1;
        code->apply(*plan, views_of(buf, kLen));
        for (int n = 0; n < buf.nodes(); ++n) {
          bad += std::equal(buf.node(n).begin(), buf.node(n).end(),
                            want.node(n).begin())
                     ? 0
                     : 1;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures, std::vector<int>(4, 0));
}

}  // namespace
}  // namespace approx::codes

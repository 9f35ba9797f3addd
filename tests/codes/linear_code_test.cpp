// The LinearCode engine itself: construction validation, strided views,
// schedule structure (peeling vs Gaussian), plan caching and accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "../support/reference_schedule.h"
#include "codes/linear_code.h"
#include "common/error.h"
#include "codes/rs_code.h"
#include "codes/array_codes.h"
#include "codes/lrc_code.h"
#include "common/buffer.h"
#include "common/prng.h"

namespace approx::codes {
namespace {

// A tiny handcrafted code: 3 data nodes, 1 XOR parity, rows=1.
std::shared_ptr<LinearCode> tiny_parity() {
  std::vector<std::vector<LinearCode::Term>> parity = {
      {{0, 1}, {1, 1}, {2, 1}}};
  return std::make_shared<LinearCode>("P(3)", 3, 1, 1, parity, 1);
}

TEST(LinearCode, ConstructionValidation) {
  // Parity table size mismatch.
  EXPECT_THROW(LinearCode("x", 3, 2, 1, {{{0, 1}}}, 1), InvalidArgument);
  // Out-of-range info reference.
  EXPECT_THROW(LinearCode("x", 3, 1, 1, {{{3, 1}}}, 1), InvalidArgument);
  // Zero coefficient.
  EXPECT_THROW(LinearCode("x", 3, 1, 1, {{{0, 0}}}, 1), InvalidArgument);
  // Bad geometry.
  EXPECT_THROW(LinearCode("x", 0, 1, 1, {{}}, 0), InvalidArgument);
}

TEST(LinearCode, BinaryDetection) {
  EXPECT_TRUE(tiny_parity()->is_binary());
  std::vector<std::vector<LinearCode::Term>> gf_parity = {{{0, 2}, {1, 1}}};
  LinearCode code("g", 2, 1, 1, gf_parity, 1);
  EXPECT_FALSE(code.is_binary());
}

TEST(LinearCode, EncodeComputesXorParity) {
  auto code = tiny_parity();
  StripeBuffers buf(4, 16);
  for (int d = 0; d < 3; ++d) {
    for (int i = 0; i < 16; ++i) {
      buf.node(d)[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(d * 16 + i);
    }
  }
  auto spans = buf.spans();
  code->encode_blocks(spans, 16);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(buf.node(3)[static_cast<std::size_t>(i)],
              buf.node(0)[static_cast<std::size_t>(i)] ^
                  buf.node(1)[static_cast<std::size_t>(i)] ^
                  buf.node(2)[static_cast<std::size_t>(i)]);
  }
}

TEST(LinearCode, StridedViewsEncodeSubranges) {
  // Encode only bytes [4, 8) of each element via range views and confirm
  // bytes outside the range are untouched.
  auto code = tiny_parity();
  StripeBuffers buf(4, 16);
  Rng rng(1);
  for (int d = 0; d < 3; ++d) {
    auto s = buf.node(d);
    fill_random(s.data(), s.size(), rng);
  }
  std::vector<std::uint8_t> parity_before(buf.node(3).begin(), buf.node(3).end());
  std::vector<NodeView> views;
  for (int n = 0; n < 4; ++n) views.push_back(range_view(buf.node(n), 16, 4, 4));
  code->encode(views);
  for (int i = 0; i < 16; ++i) {
    if (i >= 4 && i < 8) {
      EXPECT_EQ(buf.node(3)[static_cast<std::size_t>(i)],
                buf.node(0)[static_cast<std::size_t>(i)] ^
                    buf.node(1)[static_cast<std::size_t>(i)] ^
                    buf.node(2)[static_cast<std::size_t>(i)]);
    } else {
      EXPECT_EQ(buf.node(3)[static_cast<std::size_t>(i)],
                parity_before[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(LinearCode, MismatchedViewLengthsThrow) {
  auto code = tiny_parity();
  StripeBuffers buf(4, 16);
  std::vector<NodeView> views;
  for (int n = 0; n < 4; ++n) views.push_back(full_view(buf.node(n), 16));
  views[2].len = 8;
  EXPECT_THROW(code->encode(views), InvalidArgument);
}

TEST(LinearCode, PlanStructureSingleFailure) {
  auto code = make_rs(5, 3);
  auto plan = code->plan_repair(std::vector<int>{2});
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->targets.size(), 1u);
  EXPECT_EQ(plan->target_elements, 1u);
  EXPECT_EQ(plan->targets[0].elem.node, 2);
  // Peeling resolves through one parity row: k-1 data + 1 parity sources.
  EXPECT_EQ(plan->targets[0].sources.size(), 5u);
  EXPECT_EQ(plan->source_nodes.size(), 5u);
  // Source nodes never include the erased node.
  EXPECT_EQ(std::count(plan->source_nodes.begin(), plan->source_nodes.end(), 2), 0);
}

TEST(LinearCode, PlanTargetsAreInDependencyOrder) {
  // Every source referencing an erased node must point at an earlier target.
  for (auto code : {make_star(7, 3), make_rs(8, 3), make_tip(7, 3)}) {
    const std::vector<int> erased = {0, 1, code->total_nodes() - 1};
    auto plan = code->plan_repair(erased);
    ASSERT_NE(plan, nullptr) << code->name();
    std::vector<ElemRef> done;
    for (const auto& target : plan->targets) {
      for (const auto& src : target.sources) {
        const bool src_erased =
            std::find(erased.begin(), erased.end(), src.elem.node) != erased.end();
        if (src_erased) {
          EXPECT_NE(std::find(done.begin(), done.end(), src.elem), done.end())
              << code->name() << ": forward reference";
        }
      }
      done.push_back(target.elem);
    }
  }
}

TEST(LinearCode, PeelingAndGaussianAgree) {
  // Both solver modes must produce correct (if differently shaped) repairs.
  for (auto base : {make_star(5, 3), make_rs(6, 3), make_evenodd(7)}) {
    for (const std::vector<int>& erased :
         {std::vector<int>{0}, std::vector<int>{0, 1}, std::vector<int>{1, 3}}) {
      for (const bool peel : {true, false}) {
        const auto code = reference::rebuild(*base, peel);
        StripeBuffers buf(code->total_nodes(),
                          64 * static_cast<std::size_t>(code->rows()));
        Rng rng(99);
        for (int d = 0; d < code->data_nodes(); ++d) {
          auto s = buf.node(d);
          fill_random(s.data(), s.size(), rng);
        }
        auto spans = buf.spans();
        code->encode_blocks(spans, 64);
        std::vector<std::vector<std::uint8_t>> want;
        for (int n = 0; n < code->total_nodes(); ++n) {
          want.emplace_back(buf.node(n).begin(), buf.node(n).end());
        }
        for (const int e : erased) buf.clear_node(e);
        auto spans2 = buf.spans();
        ASSERT_TRUE(code->repair_blocks(spans2, 64, erased)) << code->name();
        for (int n = 0; n < code->total_nodes(); ++n) {
          ASSERT_TRUE(std::equal(buf.node(n).begin(), buf.node(n).end(),
                                 want[static_cast<std::size_t>(n)].begin()))
              << code->name() << " peel=" << peel;
        }
      }
    }
  }
}

TEST(LinearCode, PeelingKeepsSingleFailureChainsMinimal) {
  // Single data-node failure always peels through the horizontal parity:
  // exactly k sources per element (k-1 data partners + the parity element).
  auto star = make_star(11, 3);
  auto plan = star->plan_repair(std::vector<int>{3});
  ASSERT_NE(plan, nullptr);
  for (const auto& target : plan->targets) {
    EXPECT_EQ(target.sources.size(), 11u);
  }
  // LRC single failure peels through the local group (3 sources), while
  // the dense solver has no locality guarantee baked into the schedule.
  auto lrc = make_lrc(12, 4, 2);
  auto local_plan = lrc->plan_repair(std::vector<int>{0});
  ASSERT_NE(local_plan, nullptr);
  EXPECT_EQ(local_plan->targets[0].sources.size(), 3u);
}

TEST(LinearCode, PeelingNeverProducesLargerSchedulesThanGaussian) {
  for (auto code : {make_star(11, 3), make_rs(9, 3), make_lrc(9, 4, 2),
                    make_tip(11, 3)}) {
    for (const std::vector<int>& erased :
         {std::vector<int>{0}, std::vector<int>{0, 1}, std::vector<int>{0, 2, 4}}) {
      const auto sparse = code->plan_repair(erased);
      const auto dense = reference::rebuild(*code, /*peeling=*/false)->plan_repair(erased);
      ASSERT_NE(sparse, nullptr) << code->name();
      ASSERT_NE(dense, nullptr) << code->name();
      EXPECT_LE(sparse->source_elements, dense->source_elements) << code->name();
    }
  }
}

TEST(LinearCode, PlanCacheReturnsSameObject) {
  auto code = make_rs(6, 3);
  auto a = code->plan_repair(std::vector<int>{1, 3});
  auto b = code->plan_repair(std::vector<int>{3, 1});  // order-insensitive
  auto c = code->plan_repair(std::vector<int>{1, 3, 3});  // dedup
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a.get(), c.get());
}

TEST(LinearCode, UnrecoverablePatternsCacheNull) {
  auto code = make_rs(5, 2);
  EXPECT_FALSE(code->can_repair(std::vector<int>{0, 1, 2}));
  EXPECT_EQ(code->plan_repair(std::vector<int>{0, 1, 2}), nullptr);
  // Still recoverable patterns work after a failed query.
  EXPECT_TRUE(code->can_repair(std::vector<int>{0, 1}));
}

TEST(LinearCode, ErasedNodeOutOfRangeThrows) {
  auto code = make_rs(4, 2);
  EXPECT_THROW(code->plan_repair(std::vector<int>{6}), InvalidArgument);
  EXPECT_THROW(code->plan_repair(std::vector<int>{-1}), InvalidArgument);
}

TEST(LinearCode, AnalyticMetrics) {
  auto rs = make_rs(10, 3);
  EXPECT_DOUBLE_EQ(rs->storage_overhead(), 1.3);
  EXPECT_DOUBLE_EQ(rs->avg_single_write_cost(), 4.0);  // r + 1
  auto eo = make_evenodd(5);
  // EVENODD single-write: 4 - 2/p.
  EXPECT_NEAR(eo->avg_single_write_cost(), 4.0 - 2.0 / 5.0, 1e-12);
}

TEST(LinearCode, RepairEmptyErasedIsTrivial) {
  auto code = make_rs(4, 2);
  StripeBuffers buf(6, 32);
  auto spans = buf.spans();
  EXPECT_TRUE(code->repair_blocks(spans, 32, std::vector<int>{}));
}

}  // namespace
}  // namespace approx::codes

// Per-target reference executor for coding schedules: the oracle that the
// production executor (codes::run_program over compiled XOR programs) is
// diffed against byte for byte.  Every statement runs on its own, straight
// from its term list, with no compilation, CSE or cache blocking: an
// all-XOR statement is one multi-source gather, anything else is memset
// plus one GF multiply-accumulate per source.  Header-only; used by the
// codes test suites and by bench_kernels' naive-vs-compiled table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "codes/linear_code.h"
#include "codes/mixed_code.h"
#include "codes/node_view.h"
#include "gf/gf256.h"
#include "kernels/dispatch.h"

namespace approx::reference {

using Statement = codes::RepairPlan::Target;

// Encode statements of a code: dst = parity element, sources = its data
// terms, in (parity node, row) order.
inline std::vector<Statement> encode_statements(const codes::LinearCode& code) {
  std::vector<Statement> stmts;
  for (int p = code.data_nodes(); p < code.total_nodes(); ++p) {
    for (int row = 0; row < code.rows(); ++row) {
      Statement t;
      t.elem = {p, row};
      for (const auto& term : code.parity_terms(p, row)) {
        t.sources.push_back(
            {codes::ElemRef{term.info / code.rows(), term.info % code.rows()},
             term.coeff});
      }
      stmts.push_back(std::move(t));
    }
  }
  return stmts;
}

inline std::vector<Statement> encode_statements(const codes::MixedCode& code) {
  std::map<int, codes::ElemRef> home;  // info index -> (node, row)
  for (int n = 0; n < code.total_nodes(); ++n) {
    for (int r = 0; r < code.rows(); ++r) {
      const auto& e = code.element(n, r);
      if (!e.is_parity) home[e.info] = {n, r};
    }
  }
  std::vector<Statement> stmts;
  for (int n = 0; n < code.total_nodes(); ++n) {
    for (int r = 0; r < code.rows(); ++r) {
      const auto& e = code.element(n, r);
      if (!e.is_parity) continue;
      Statement t;
      t.elem = {n, r};
      for (const auto& term : e.terms) {
        t.sources.push_back({home.at(term.info), term.coeff});
      }
      stmts.push_back(std::move(t));
    }
  }
  return stmts;
}

// Compute one statement into `dst` (which may be any buffer of `len`
// bytes, not necessarily the statement's own element).
inline void run_statement_into(const Statement& t, std::uint8_t* dst,
                               std::span<const codes::NodeView> nodes,
                               std::size_t len) {
  const auto at = [&](const codes::ElemRef& e) {
    return nodes[static_cast<std::size_t>(e.node)].elem(e.row);
  };
  bool all_xor = true;
  for (const auto& src : t.sources) all_xor &= src.coeff == 1;
  if (all_xor) {
    std::vector<const std::uint8_t*> srcs;
    for (const auto& src : t.sources) srcs.push_back(at(src.elem));
    kernels::xor_gather(dst, srcs, len);
    return;
  }
  std::memset(dst, 0, len);
  for (const auto& src : t.sources) {
    gf::mul_acc_region(dst, at(src.elem), len, src.coeff);
  }
}

// Run statements in order, each into its own element.
inline void run_statements(std::span<const Statement> stmts,
                           std::span<const codes::NodeView> nodes) {
  const std::size_t len = nodes[0].len;
  for (const auto& t : stmts) {
    run_statement_into(
        t, nodes[static_cast<std::size_t>(t.elem.node)].elem(t.elem.row), nodes,
        len);
  }
}

template <typename Code>
void encode(const Code& code, std::span<const codes::NodeView> nodes) {
  run_statements(encode_statements(code), nodes);
}

inline void apply(const codes::RepairPlan& plan,
                  std::span<const codes::NodeView> nodes) {
  run_statements(plan.targets, nodes);
}

// Rebuild `elem` and every earlier target it transitively reads, in plan
// order.  Returns the number of targets run; 0 when `elem` is no target.
inline int apply_for_element(const codes::RepairPlan& plan,
                             std::span<const codes::NodeView> nodes,
                             codes::ElemRef elem) {
  std::map<std::pair<int, int>, std::size_t> target_of;
  for (std::size_t t = 0; t < plan.targets.size(); ++t) {
    target_of[{plan.targets[t].elem.node, plan.targets[t].elem.row}] = t;
  }
  const auto wanted = target_of.find({elem.node, elem.row});
  if (wanted == target_of.end()) return 0;
  std::vector<bool> needed(plan.targets.size(), false);
  std::vector<std::size_t> work{wanted->second};
  needed[wanted->second] = true;
  while (!work.empty()) {
    const std::size_t t = work.back();
    work.pop_back();
    for (const auto& src : plan.targets[t].sources) {
      const auto dep = target_of.find({src.elem.node, src.elem.row});
      if (dep == target_of.end() || dep->second >= t || needed[dep->second]) {
        continue;
      }
      needed[dep->second] = true;
      work.push_back(dep->second);
    }
  }
  std::vector<Statement> slice;
  for (std::size_t t = 0; t < plan.targets.size(); ++t) {
    if (needed[t]) slice.push_back(plan.targets[t]);
  }
  run_statements(slice, nodes);
  return static_cast<int>(slice.size());
}

// Parity elements whose recomputation differs from the stored bytes.
inline std::vector<codes::ElemRef> scrub(const codes::LinearCode& code,
                                         std::span<const codes::NodeView> nodes) {
  const std::size_t len = nodes[0].len;
  std::vector<std::uint8_t> expected(len);
  std::vector<codes::ElemRef> mismatched;
  for (const auto& t : encode_statements(code)) {
    run_statement_into(t, expected.data(), nodes, len);
    if (std::memcmp(expected.data(),
                    nodes[static_cast<std::size_t>(t.elem.node)].elem(t.elem.row),
                    len) != 0) {
      mismatched.push_back(t.elem);
    }
  }
  return mismatched;
}

// A fresh instance of `code` (same term table, empty caches).  peeling =
// false yields the Gaussian-only reference planner.
inline std::unique_ptr<codes::LinearCode> rebuild(const codes::LinearCode& code,
                                                  bool peeling = true) {
  std::vector<std::vector<codes::LinearCode::Term>> parity;
  for (int p = code.data_nodes(); p < code.total_nodes(); ++p) {
    for (int row = 0; row < code.rows(); ++row) {
      parity.push_back(code.parity_terms(p, row));
    }
  }
  return std::make_unique<codes::LinearCode>(
      code.name(), code.data_nodes(), code.parity_nodes(), code.rows(),
      std::move(parity), code.fault_tolerance(), peeling);
}

}  // namespace approx::reference

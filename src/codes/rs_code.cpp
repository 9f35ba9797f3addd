#include "codes/rs_code.h"

#include <map>
#include <mutex>
#include <string>

#include "codes/verify.h"
#include "common/error.h"
#include "gf/gf256.h"
#include "gf/gf_matrix.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace approx::codes {

namespace {

std::vector<std::vector<LinearCode::Term>> dense_rows_to_terms(
    const gf::Matrix& parity_rows) {
  std::vector<std::vector<LinearCode::Term>> out;
  out.reserve(static_cast<std::size_t>(parity_rows.rows()));
  for (int i = 0; i < parity_rows.rows(); ++i) {
    std::vector<LinearCode::Term> terms;
    for (int j = 0; j < parity_rows.cols(); ++j) {
      const std::uint8_t c = parity_rows.at(i, j);
      if (c != 0) terms.push_back({j, c});
    }
    out.push_back(std::move(terms));
  }
  return out;
}

}  // namespace

std::shared_ptr<const LinearCode> make_rs(int k, int m) {
  APPROX_REQUIRE(k >= 1 && m >= 0, "RS needs k >= 1, m >= 0");
  APPROX_REQUIRE(k + m <= 255, "RS over GF(256) supports at most 255 nodes");
  APPROX_OBS_SPAN(span, "codes.construct");
  static obs::Counter& constructed = obs::registry().counter("codes.construct.rs");
  constructed.add();

  // Build from a fixed wide generator so parity rows are independent of m
  // (prefix property).  Width 3 covers every 3DFT use; extend when m > 3.
  const int width = std::max(m, 3);
  gf::Matrix g = gf::systematic_vandermonde(k + width, k);
  std::vector<int> rows;
  for (int i = 0; i < m; ++i) rows.push_back(k + i);
  gf::Matrix parity = g.select_rows(rows);

  return std::make_shared<LinearCode>(
      "RS(" + std::to_string(k) + "," + std::to_string(m) + ")", k, m, 1,
      dense_rows_to_terms(parity), m);
}

std::shared_ptr<const LinearCode> make_mds_with_xor_row(int k, int m) {
  APPROX_REQUIRE(k >= 1 && m >= 1 && k + m <= 250, "bad k/m");

  static std::mutex mu;
  static std::map<std::pair<int, int>, std::shared_ptr<const LinearCode>> cache;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find({k, m});
    if (it != cache.end()) return it->second;
  }

  // Candidate: all-ones first row, then Cauchy rows with a sliding offset.
  // Verify that every parity prefix is MDS; slide the offset on failure.
  std::shared_ptr<const LinearCode> result;
  for (int offset = 0; offset < 64 && result == nullptr; ++offset) {
    gf::Matrix parity(m, k);
    for (int j = 0; j < k; ++j) parity.at(0, j) = 1;
    for (int i = 1; i < m; ++i) {
      // Cauchy row: 1 / (x_i + y_j), x and y drawn from disjoint ranges.
      const std::uint8_t x = static_cast<std::uint8_t>(offset + i);
      for (int j = 0; j < k; ++j) {
        const std::uint8_t y = static_cast<std::uint8_t>(offset + m + j);
        if (x == y) goto next_offset;  // degenerate pair
        parity.at(i, j) = gf::inv(static_cast<std::uint8_t>(x ^ y));
      }
    }
    {
      bool ok = true;
      for (int prefix = 1; prefix <= m && ok; ++prefix) {
        std::vector<int> ids;
        for (int i = 0; i < prefix; ++i) ids.push_back(i);
        LinearCode candidate("cand", k, prefix, 1,
                             dense_rows_to_terms(parity.select_rows(ids)), prefix);
        ok = tolerates_all(candidate, prefix);
      }
      if (ok) {
        result = std::make_shared<LinearCode>(
            "XMDS(" + std::to_string(k) + "," + std::to_string(m) + ")", k, m, 1,
            dense_rows_to_terms(parity), m);
      }
    }
  next_offset:;
  }
  APPROX_CHECK(result != nullptr,
               "no XOR-first-row MDS generator found (unexpected for k <= 247)");
  {
    std::lock_guard<std::mutex> lock(mu);
    cache.emplace(std::make_pair(k, m), result);
  }
  return result;
}

}  // namespace approx::codes

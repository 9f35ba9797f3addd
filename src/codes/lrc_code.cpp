#include "codes/lrc_code.h"

#include <map>
#include <mutex>
#include <string>

#include "codes/verify.h"
#include "common/error.h"
#include "gf/gf256.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace approx::codes {

std::vector<int> lrc_group_members(int k, int l, int group) {
  APPROX_REQUIRE(l >= 1 && k >= l, "LRC needs 1 <= l <= k");
  APPROX_REQUIRE(group >= 0 && group < l, "group out of range");
  // Balanced contiguous split: the first (k % l) groups get one extra node.
  const int base = k / l;
  const int extra = k % l;
  const int begin = group * base + std::min(group, extra);
  const int size = base + (group < extra ? 1 : 0);
  std::vector<int> members;
  members.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) members.push_back(begin + i);
  return members;
}

namespace {

std::vector<std::vector<LinearCode::Term>> lrc_parities(int k, int l, int r,
                                                        int offset) {
  std::vector<std::vector<LinearCode::Term>> parity;
  parity.reserve(static_cast<std::size_t>(l + r));
  // Local parities: XOR of the group members.
  for (int g = 0; g < l; ++g) {
    std::vector<LinearCode::Term> terms;
    for (const int j : lrc_group_members(k, l, g)) terms.push_back({j, 1});
    parity.push_back(std::move(terms));
  }
  // Global parities: Cauchy rows 1/(x_i + y_j); the offset slides the
  // evaluation points during the maximal-recoverability search.
  for (int i = 0; i < r; ++i) {
    std::vector<LinearCode::Term> terms;
    const std::uint8_t x = static_cast<std::uint8_t>(offset + i);
    for (int j = 0; j < k; ++j) {
      const std::uint8_t y = static_cast<std::uint8_t>(offset + r + j);
      terms.push_back({j, gf::inv(static_cast<std::uint8_t>(x ^ y))});
    }
    parity.push_back(std::move(terms));
  }
  return parity;
}

}  // namespace

std::shared_ptr<const LinearCode> make_lrc(int k, int l, int r) {
  APPROX_OBS_SPAN(span, "codes.construct");
  static obs::Counter& constructed =
      obs::registry().counter("codes.construct.lrc");
  constructed.add();
  APPROX_REQUIRE(k >= 1 && l >= 1 && r >= 1, "LRC needs positive k, l, r");
  APPROX_REQUIRE(l <= k, "more local groups than data nodes");
  APPROX_REQUIRE(k + l + r <= 200, "LRC over GF(256) node limit");

  static std::mutex mu;
  static std::map<std::tuple<int, int, int>, std::shared_ptr<const LinearCode>> cache;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find({k, l, r});
    if (it != cache.end()) return it->second;
  }

  // Plain Cauchy globals are not automatically maximally recoverable next
  // to XOR locals: sweep the Cauchy evaluation points until every (r+1)-
  // erasure pattern decodes (the tolerance Azure LRC guarantees).
  std::shared_ptr<const LinearCode> result;
  const std::string name = "LRC(" + std::to_string(k) + "," + std::to_string(l) +
                           "," + std::to_string(r) + ")";
  for (int offset = 0; offset < 48 && result == nullptr; ++offset) {
    auto candidate = std::make_shared<LinearCode>(name, k, l + r, 1,
                                                  lrc_parities(k, l, r, offset), r + 1);
    if (tolerates_all(*candidate, r + 1)) result = std::move(candidate);
  }
  APPROX_CHECK(result != nullptr, "no maximally recoverable LRC coefficients found");
  {
    std::lock_guard<std::mutex> lock(mu);
    cache.emplace(std::make_tuple(k, l, r), result);
  }
  return result;
}

}  // namespace approx::codes

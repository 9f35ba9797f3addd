// Offline search tool: find XOR parity-column layouts with three
// independent chains (horizontal + two slope columns) that are MDS for
// k = p-2 data columns on p-1 rows.  Results get baked into
// array_codes.cpp's known_tip_layouts table.
#include <cstdio>
#include <vector>

#include "codes/linear_code.h"
#include "codes/primes.h"
#include "codes/verify.h"

using namespace approx::codes;

namespace {
using Terms = std::vector<LinearCode::Term>;

void toggle(Terms& terms, int info) {
  for (auto it = terms.begin(); it != terms.end(); ++it) {
    if (it->info == info) {
      terms.erase(it);
      return;
    }
  }
  terms.push_back({info, 1});
}

std::vector<Terms> horizontal(int k, int rows) {
  std::vector<Terms> col(rows);
  for (int t = 0; t < rows; ++t)
    for (int j = 0; j < k; ++j) col[t].push_back({info_index(j, t, rows), 1});
  return col;
}

// mod p lines on p-1 rows; fold_to == -1 drops line p-1, -2 = adjuster
// (EVENODD-style expansion), >= 0 folds into that element.
std::vector<Terms> slope_col(int p, int k, int slope, int offset, int fold_to) {
  const int rows = p - 1;
  std::vector<Terms> col(rows);
  for (int t = 0; t < rows; ++t) {
    for (int j = 0; j < k; ++j) {
      int line = ((t + slope * (j + offset)) % p + p) % p;
      if (line == p - 1) {
        if (fold_to == -1) continue;
        if (fold_to == -2) {
          for (int l = 0; l < rows; ++l) toggle(col[l], info_index(j, t, rows));
          continue;
        }
        line = fold_to;
      }
      toggle(col[line], info_index(j, t, rows));
    }
  }
  return col;
}

bool check(int p, int s1, int o1, int f1, int s2, int o2, int f2, bool prefix2) {
  const int k = p - 2, rows = p - 1;
  auto h = horizontal(k, rows);
  auto d = slope_col(p, k, s1, o1, f1);
  auto a = slope_col(p, k, s2, o2, f2);
  if (prefix2) {
    std::vector<Terms> pe = h;
    pe.insert(pe.end(), d.begin(), d.end());
    LinearCode c2("c2", k, 2, rows, pe, 2);
    if (!tolerates_all(c2, 2)) return false;
  }
  std::vector<Terms> pe = h;
  pe.insert(pe.end(), d.begin(), d.end());
  pe.insert(pe.end(), a.begin(), a.end());
  LinearCode c3("c3", k, 3, rows, pe, 3);
  return tolerates_all(c3, 3);
}
}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  for (int p : {5, 7, 11, 13, 19}) {
    bool found = false;
    // Pass 1: canonical slopes +1/-1, drop variant, offset sweep.
    for (int f = -1; f >= -1 && !found; --f) {
      for (int o1 = 0; o1 < p && !found; ++o1)
        for (int o2 = 0; o2 < p && !found; ++o2)
          if (check(p, 1, o1, f, p - 1, o2, f, true)) {
            std::printf("p=%2d slopes(+1,-1) drop  o1=%d o2=%d OK\n", p, o1, o2);
            found = true;
          }
    }
    // Pass 2: fold variants.
    for (int f = 0; f < p - 1 && !found; ++f) {
      for (int o1 = 0; o1 < p && !found; ++o1)
        for (int o2 = 0; o2 < p && !found; ++o2)
          if (check(p, 1, o1, f, p - 1, o2, f, true)) {
            std::printf("p=%2d slopes(+1,-1) fold=%d o1=%d o2=%d OK\n", p, f, o1, o2);
            found = true;
          }
    }
    // Pass 3: arbitrary slope pairs, drop.
    for (int s1 = 1; s1 < p && !found; ++s1)
      for (int s2 = s1 + 1; s2 < p && !found; ++s2)
        for (int o1 = 0; o1 < p && !found; ++o1)
          for (int o2 = 0; o2 < p && !found; ++o2)
            if (check(p, s1, o1, -1, s2, o2, -1, true)) {
              std::printf("p=%2d slopes(%d,%d) drop o1=%d o2=%d OK\n", p, s1, s2, o1, o2);
              found = true;
            }
    if (!found) std::printf("p=%2d NOTHING FOUND in family\n", p);
  }
  return 0;
}

#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "support/rng.hpp"

namespace pb {

sts::sparse::Coo poisson7(index_t n) {
  const index_t rows = n * n * n;
  sts::sparse::Coo coo(rows, rows);
  coo.reserve(static_cast<std::size_t>(rows) * 7);
  for (index_t z = 0; z < n; ++z) {
    for (index_t y = 0; y < n; ++y) {
      for (index_t x = 0; x < n; ++x) {
        const index_t r = (z * n + y) * n + x;
        if (z > 0) coo.add(r, r - n * n, -1.0);
        if (y > 0) coo.add(r, r - n, -1.0);
        if (x > 0) coo.add(r, r - 1, -1.0);
        coo.add(r, r, 6.0);
        if (x + 1 < n) coo.add(r, r + 1, -1.0);
        if (y + 1 < n) coo.add(r, r + n, -1.0);
        if (z + 1 < n) coo.add(r, r + n * n, -1.0);
      }
    }
  }
  return coo;
}

void poisson7_apply(index_t n, const std::vector<double>& x,
                    std::vector<double>& y) {
  y.assign(x.size(), 0.0);
  for (index_t z = 0; z < n; ++z) {
    for (index_t yy = 0; yy < n; ++yy) {
      for (index_t xx = 0; xx < n; ++xx) {
        const auto r = static_cast<std::size_t>((z * n + yy) * n + xx);
        const auto nn = static_cast<std::size_t>(n);
        double acc = 6.0 * x[r];
        if (z > 0) acc -= x[r - nn * nn];
        if (yy > 0) acc -= x[r - nn];
        if (xx > 0) acc -= x[r - 1];
        if (xx + 1 < n) acc -= x[r + 1];
        if (yy + 1 < n) acc -= x[r + nn];
        if (z + 1 < n) acc -= x[r + nn * nn];
        y[r] = acc;
      }
    }
  }
}

std::vector<double> poisson7_spectrum(index_t n) {
  std::vector<double> mu(static_cast<std::size_t>(n));
  for (index_t k = 1; k <= n; ++k) {
    mu[static_cast<std::size_t>(k - 1)] =
        2.0 - 2.0 * std::cos(static_cast<double>(k) * std::numbers::pi /
                             static_cast<double>(n + 1));
  }
  std::vector<double> eigs;
  eigs.reserve(mu.size() * mu.size() * mu.size());
  for (const double a : mu) {
    for (const double b : mu) {
      for (const double c : mu) eigs.push_back(a + b + c);
    }
  }
  std::sort(eigs.begin(), eigs.end());
  return eigs;
}

sts::sparse::Coo nm7_like(index_t n_blocks, index_t dim, double fill,
                          double entry_prob, std::uint64_t seed) {
  const index_t rows = n_blocks * dim;
  sts::sparse::Coo coo(rows, rows);
  sts::support::Xoshiro256 rng(seed);
  std::vector<double> abs_sum(static_cast<std::size_t>(rows), 0.0);
  auto add_pair = [&](index_t r, index_t c) {
    const double v = rng.uniform(-1.0, 1.0);
    coo.add(r, c, v);
    coo.add(c, r, v);
    abs_sum[static_cast<std::size_t>(r)] += std::abs(v);
    abs_sum[static_cast<std::size_t>(c)] += std::abs(v);
  };
  for (index_t bi = 0; bi < n_blocks; ++bi) {
    for (index_t bj = 0; bj <= bi; ++bj) {
      if (bi != bj && rng.uniform() >= fill) continue;
      for (index_t r = 0; r < dim; ++r) {
        const index_t gr = bi * dim + r;
        const index_t cmax = bi == bj ? r : dim;
        for (index_t c = 0; c < cmax; ++c) {
          if (rng.uniform() < entry_prob) add_pair(gr, bj * dim + c);
        }
      }
    }
  }
  for (index_t r = 0; r < rows; ++r) {
    coo.add(r, r, abs_sum[static_cast<std::size_t>(r)] + rng.uniform(0.5, 1.5));
  }
  return coo;
}

std::vector<double> cg_rhs(index_t rows, std::uint64_t seed) {
  std::vector<double> b(static_cast<std::size_t>(rows));
  sts::support::Xoshiro256 rng(seed);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

} // namespace pb

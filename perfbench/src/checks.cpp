#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>

#include "inputs.hpp"

namespace pb {
namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

double nrm2(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x * x;
  return std::sqrt(s);
}

/// Number of eigenvalues of T strictly below `x` (Sturm count).
index_t count_below(std::span<const double> a, std::span<const double> off,
                    double x) {
  index_t count = 0;
  double d = 1.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double b2 = i == 0 ? 0.0 : off[i - 1] * off[i - 1];
    d = a[i] - x - (i == 0 ? 0.0 : b2 / d);
    if (d == 0.0) {
      d = -std::numeric_limits<double>::epsilon() * (std::abs(x) + 1.0);
    }
    if (d < 0.0) ++count;
  }
  return count;
}

/// A CG solution may have a true residual at most this many times the
/// requested tolerance.
constexpr double kCgResidualSlack = 10.0;

double poisson7_relative_residual(index_t n, const std::vector<double>& x,
                                  std::uint64_t seed) {
  const std::vector<double> b = cg_rhs(n * n * n, seed);
  std::vector<double> ax;
  poisson7_apply(n, x, ax);
  for (std::size_t i = 0; i < ax.size(); ++i) ax[i] = b[i] - ax[i];
  return nrm2(ax) / nrm2(b);
}

/// Eigenvalues, ascending, of the symmetric tridiagonal matrix with
/// diagonal `alphas` and off-diagonal `off` (off[i] couples i and i+1), by
/// Sturm-sequence bisection to full precision.
std::vector<double> tridiag_eigs_bisect(std::span<const double> alphas,
                                        std::span<const double> off) {
  const std::size_t k = alphas.size();
  if (k == 0) return {};
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (std::size_t i = 0; i < k; ++i) {
    const double r = (i > 0 ? std::abs(off[i - 1]) : 0.0) +
                     (i + 1 < k ? std::abs(off[i]) : 0.0);
    lo = std::min(lo, alphas[i] - r);
    hi = std::max(hi, alphas[i] + r);
  }
  std::vector<double> eigs(k);
  for (std::size_t j = 0; j < k; ++j) {
    // Smallest x with count_below(x) > j is the j-th eigenvalue.
    double a = lo;
    double b = hi;
    for (int it = 0; it < 200 && b - a > 0.0; ++it) {
      const double mid = 0.5 * (a + b);
      if (mid <= a || mid >= b) break;
      if (count_below(alphas, off, mid) > static_cast<index_t>(j)) {
        b = mid;
      } else {
        a = mid;
      }
    }
    eigs[j] = 0.5 * (a + b);
  }
  return eigs;
}

} // namespace

std::string check_cg(index_t n, const std::vector<double>& x,
                     std::uint64_t seed, double tol) {
  if (x.size() != static_cast<std::size_t>(n * n * n)) {
    return "cg: solution has " + std::to_string(x.size()) + " entries";
  }
  const double rel = poisson7_relative_residual(n, x, seed);
  if (!(rel <= kCgResidualSlack * tol)) {
    return "cg: true residual " + fmt(rel) + " > " + fmt(kCgResidualSlack) +
           " * tol " + fmt(tol);
  }
  return {};
}

Interval gershgorin(const sts::sparse::Coo& a) {
  std::vector<double> diag(static_cast<std::size_t>(a.rows()), 0.0);
  std::vector<double> radius(diag.size(), 0.0);
  for (const auto& t : a.entries()) {
    if (t.row == t.col) {
      diag[static_cast<std::size_t>(t.row)] += t.value;
    } else {
      radius[static_cast<std::size_t>(t.row)] += std::abs(t.value);
    }
  }
  Interval g{std::numeric_limits<double>::infinity(),
             -std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < diag.size(); ++i) {
    g.lo = std::min(g.lo, diag[i] - radius[i]);
    g.hi = std::max(g.hi, diag[i] + radius[i]);
  }
  return g;
}

std::string check_lanczos(std::span<const double> alphas,
                          std::span<const double> betas,
                          std::span<const double> ritz,
                          const Interval& bounds) {
  if (alphas.empty() || betas.size() != alphas.size() ||
      ritz.size() != alphas.size()) {
    return "lanczos: " + std::to_string(alphas.size()) + " alphas, " +
           std::to_string(betas.size()) + " betas, " +
           std::to_string(ritz.size()) + " Ritz values";
  }
  const double scale = std::max(std::abs(bounds.lo), std::abs(bounds.hi));
  const double slack = 1e-12 * scale;
  for (const double t : ritz) {
    if (!(t >= bounds.lo - slack && t <= bounds.hi + slack)) {
      return "lanczos: Ritz value " + fmt(t) + " outside Gershgorin [" +
             fmt(bounds.lo) + ", " + fmt(bounds.hi) + "]";
    }
  }
  const std::vector<double> want =
      tridiag_eigs_bisect(alphas, betas.first(betas.size() - 1));
  std::vector<double> got(ritz.begin(), ritz.end());
  std::sort(got.begin(), got.end());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) <= 1e-10 * scale)) {
      return "lanczos: Ritz value " + std::to_string(i) + " is " +
             fmt(got[i]) + ", eigenvalue of T is " + fmt(want[i]);
    }
  }
  return {};
}

std::string check_alphas_agree(std::span<const double> ref,
                               std::span<const double> got,
                               const Interval& bounds) {
  if (ref.size() != got.size()) {
    return "lanczos: " + std::to_string(got.size()) + " alphas vs " +
           std::to_string(ref.size()) + " in the reference version";
  }
  const double scale = std::max(std::abs(bounds.lo), std::abs(bounds.hi));
  for (std::size_t j = 0; j < ref.size(); ++j) {
    const double tol =
        std::ldexp(1.0, -45) * static_cast<double>(j + 1) * scale;
    if (!(std::abs(got[j] - ref[j]) <= tol)) {
      return "lanczos: alpha " + std::to_string(j) + " is " + fmt(got[j]) +
             " vs " + fmt(ref[j]) + " (tolerance " + fmt(tol) + ")";
    }
  }
  return {};
}

std::string check_lobpcg(std::span<const double> theta,
                         std::span<const double> residuals,
                         std::span<const double> spectrum) {
  if (theta.empty() || residuals.size() != theta.size() ||
      theta.size() > spectrum.size()) {
    return "lobpcg: " + std::to_string(theta.size()) + " eigenvalues, " +
           std::to_string(residuals.size()) + " residual norms";
  }
  const double slack = 1e-12 * spectrum.back();
  std::vector<double> sorted(theta.begin(), theta.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t j = 0; j < sorted.size(); ++j) {
    if (!(sorted[j] >= spectrum[j] - slack)) {
      return "lobpcg: theta_" + std::to_string(j) + " = " + fmt(sorted[j]) +
             " below eigenvalue " + fmt(spectrum[j]);
    }
  }
  for (std::size_t j = 0; j < theta.size(); ++j) {
    const auto it =
        std::lower_bound(spectrum.begin(), spectrum.end(), theta[j]);
    double dist = std::numeric_limits<double>::infinity();
    if (it != spectrum.end()) dist = *it - theta[j];
    if (it != spectrum.begin()) dist = std::min(dist, theta[j] - *(it - 1));
    if (!(dist <= residuals[j] + slack)) {
      return "lobpcg: theta_" + std::to_string(j) + " = " + fmt(theta[j]) +
             " is " + fmt(dist) + " from every eigenvalue, residual " +
             fmt(residuals[j]);
    }
  }
  return {};
}

std::string check_job(const JobOutcome& job, double tol, bool expect_hit) {
  if (!(job.relative_residual <= tol)) {
    return "svc: relative residual " + fmt(job.relative_residual) + " > tol " +
           fmt(tol);
  }
  if (job.cache_hit != expect_hit) {
    return std::string("svc: plan cache ") + (job.cache_hit ? "hit" : "miss") +
           " where the submission pattern expects a " +
           (expect_hit ? "hit" : "miss");
  }
  return {};
}

namespace {

/// Conjugate gradients without a preconditioner, written here so the self
/// test has a right answer that owes nothing to the library.
std::vector<double> reference_cg(index_t n, std::uint64_t seed, double tol) {
  const std::vector<double> b = cg_rhs(n * n * n, seed);
  std::vector<double> x(b.size(), 0.0);
  std::vector<double> r = b;
  std::vector<double> p = r;
  std::vector<double> ap;
  double rr = 0.0;
  for (const double v : r) rr += v * v;
  const double stop = tol * tol * rr;
  for (int it = 0; it < 1000 && rr > stop; ++it) {
    poisson7_apply(n, p, ap);
    double pap = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) pap += p[i] * ap[i];
    const double alpha = rr / pap;
    double rr_new = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
      rr_new += r[i] * r[i];
    }
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = r[i] + rr_new / rr * p[i];
    }
    rr = rr_new;
  }
  return x;
}

struct SelfTest {
  int failures = 0;
  void expect(const char* what, const std::string& right,
              const std::string& wrong) {
    const bool ok = right.empty() && !wrong.empty();
    if (!ok) ++failures;
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!right.empty()) {
      std::cout << "     right result rejected: " << right << "\n";
    }
    if (wrong.empty()) std::cout << "     wrong result accepted\n";
    if (ok) std::cout << "     wrong result rejected: " << wrong << "\n";
  }
};

} // namespace

int run_self_test() {
  SelfTest t;
  const index_t n = 8;
  const std::uint64_t seed = 7;
  const double tol = 1e-8;

  std::vector<double> x = reference_cg(n, seed, tol);
  std::vector<double> bad = x;
  bad[bad.size() / 2] += 1e-3;
  t.expect("cg residual rejects a perturbed x", check_cg(n, x, seed, tol),
           check_cg(n, bad, seed, tol));

  // Lanczos: a small T with known structure, Ritz values from bisection.
  const std::vector<double> alphas = {2.0, 3.0, 1.5, 2.5};
  const std::vector<double> betas = {0.5, 0.25, 0.75, 0.1};
  const std::vector<double> ritz = tridiag_eigs_bisect(
      alphas, std::span<const double>(betas).first(3));
  const Interval bounds{0.0, 4.0};
  std::vector<double> shifted = ritz;
  shifted[1] += 1e-6;
  t.expect("lanczos Ritz values reject a shifted Ritz value",
           check_lanczos(alphas, betas, ritz, bounds),
           check_lanczos(alphas, betas, shifted, bounds));
  std::vector<double> outside = ritz;
  outside.back() = bounds.hi + 0.5;
  t.expect("lanczos Gershgorin bound rejects a Ritz value outside it",
           check_lanczos(alphas, betas, ritz, bounds),
           check_lanczos(alphas, betas, outside, bounds));
  std::vector<double> drift = alphas;
  drift[2] *= 1.0 + 1e-9;
  t.expect("lanczos alphas reject a version that drifted",
           check_alphas_agree(alphas, alphas, bounds),
           check_alphas_agree(alphas, drift, bounds));

  // LOBPCG: the exact lowest eigenvalues pass with zero residual; shifting
  // one below its eigenvalue, or off the spectrum, fails.
  const std::vector<double> spectrum = poisson7_spectrum(n);
  std::vector<double> theta(spectrum.begin(), spectrum.begin() + 4);
  const std::vector<double> res(theta.size(), 1e-12);
  std::vector<double> low = theta;
  low[0] -= 1e-6;
  t.expect("lobpcg rejects theta below its eigenvalue",
           check_lobpcg(theta, res, spectrum),
           check_lobpcg(low, res, spectrum));
  std::vector<double> off = theta;
  off[3] += 1e-6;
  t.expect("lobpcg rejects theta farther than its residual from the spectrum",
           check_lobpcg(theta, res, spectrum),
           check_lobpcg(off, res, spectrum));

  const JobOutcome good{1e-9, true};
  JobOutcome loose = good;
  loose.relative_residual = 1e-6;
  t.expect("svc rejects a residual above tol", check_job(good, tol, true),
           check_job(loose, tol, true));
  t.expect("svc rejects a cache hit where a miss is due",
           check_job(good, tol, true), check_job(good, tol, false));

  std::cout << (t.failures == 0 ? "all checks reject wrong results\n"
                                : "some checks failed their self test\n");
  return t.failures == 0 ? 0 : 1;
}

} // namespace pb

// Correctness checks computed apart from the library: each takes a result
// the library returned and the benchmark's own copy of the inputs, and
// returns an empty string when the result holds, or the reason it does not.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sparse/coo.hpp"

namespace pb {

using sts::la::index_t;

/// The true residual ||b - A x|| / ||b|| of a CG solution of poisson7(n)
/// with b = cg_rhs(n^3, seed), evaluated with the benchmark's stencil loop,
/// is at most 10 * tol: the solver stops on its recursively updated
/// residual, which drifts from b - A x by rounding.
[[nodiscard]] std::string check_cg(index_t n, const std::vector<double>& x,
                                   std::uint64_t seed, double tol);

struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

/// Union of the Gershgorin discs of a symmetric matrix.
[[nodiscard]] Interval gershgorin(const sts::sparse::Coo& a);

/// Lanczos: every Ritz value inside `bounds`, and the Ritz values equal to
/// the eigenvalues of T(alphas, betas) found by Sturm-sequence bisection.
[[nodiscard]] std::string check_lanczos(std::span<const double> alphas,
                                        std::span<const double> betas,
                                        std::span<const double> ritz,
                                        const Interval& bounds);

/// Lanczos alphas of two execution versions started from the same vector
/// agree within the rounding a k-step recurrence can accumulate: step j
/// may differ by 2^-45 (128 units of rounding) * (j + 1) * max(|lo|, |hi|)
/// of the spectrum bound.
[[nodiscard]] std::string check_alphas_agree(std::span<const double> ref,
                                             std::span<const double> got,
                                             const Interval& bounds);

/// LOBPCG on poisson7: theta_j is at least the j-th eigenvalue (Courant-
/// Fischer), and some eigenvalue lies within residual_norms[j] of theta_j.
/// `spectrum` is poisson7_spectrum(n).
[[nodiscard]] std::string check_lobpcg(std::span<const double> theta,
                                       std::span<const double> residuals,
                                       std::span<const double> spectrum);

/// A service job that ended DONE and converged: its relative residual is
/// within tol, and the plan cache hit exactly when the spec repeats.
struct JobOutcome {
  double relative_residual = 0.0;
  bool cache_hit = false;
};
[[nodiscard]] std::string check_job(const JobOutcome& job, double tol,
                                    bool expect_hit);

/// Feeds every check a right result and a deliberately wrong one at toy
/// sizes; returns 0 when each accepts the first and rejects the second.
int run_self_test();

} // namespace pb

// Inputs of the end-to-end benchmark, generated here from the run's seed so
// that the library under test only ever receives finished matrices.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/coo.hpp"

namespace pb {

using sts::la::index_t;

/// HPCG-style 7-point Laplacian on an n x n x n grid with Dirichlet
/// boundaries: 6 on the diagonal, -1 for each grid neighbour. Rows in
/// (z, y, x) order, columns ascending within a row. Independent of the
/// seed.
[[nodiscard]] sts::sparse::Coo poisson7(index_t n);

/// y = A x for poisson7(n), computed from the stencil, without the matrix.
void poisson7_apply(index_t n, const std::vector<double>& x,
                    std::vector<double>& y);

/// All n^3 eigenvalues of poisson7(n), ascending, from the closed form
/// sum over the three axes of 2 - 2 cos(k pi / (n + 1)), k = 1..n.
[[nodiscard]] std::vector<double> poisson7_spectrum(index_t n);

/// Block-sparse symmetric matrix shaped like the Nm7 nuclear-CI
/// Hamiltonian: an n_blocks x n_blocks grid of dim x dim tiles, the
/// diagonal tiles always present, each off-diagonal tile pair present with
/// probability `fill`, and a present tile holding each entry with
/// probability `entry_prob`. Off-diagonal values are uniform in [-1, 1];
/// each diagonal entry is its row's absolute off-diagonal sum plus a value
/// uniform in [0.5, 1.5], so the matrix is symmetric positive definite and
/// IC(0) exists.
[[nodiscard]] sts::sparse::Coo nm7_like(index_t n_blocks, index_t dim,
                                        double fill, double entry_prob,
                                        std::uint64_t seed);

/// The right-hand side solver::cg draws from its seed: uniform in [-1, 1]
/// from support::Xoshiro256(seed), one value per row in row order.
[[nodiscard]] std::vector<double> cg_rhs(index_t rows, std::uint64_t seed);

} // namespace pb

// The benchmark's workloads and the traced run's layer probes.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sparse/coo.hpp"
#include "sparse/csb.hpp"
#include "sparse/csr.hpp"

namespace sts::flux {
class Scheduler;
}

namespace pb {

using sts::la::index_t;

/// CG settings shared by cg-ic0-poisson and svc-cg-jobs.
inline constexpr double kCgTol = 1e-8;
inline constexpr int kCgMaxIterations = 500;
/// Rounds every run makes at least, whatever --seconds says.
inline constexpr int kMinRounds = 3;

/// Names accepted by --workload, in the order the README lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// cg-ic0-poisson, lanczos-nm7, lobpcg-poisson.
void run_solver_workload(Context& ctx);
/// svc-cg-jobs.
void run_svc_workload(Context& ctx);

/// COO -> CSR -> CSB at each block size, as one set-up.
struct Plan {
  sts::sparse::Csr csr;
  std::vector<std::pair<index_t, sts::sparse::Csb>> csb;
  [[nodiscard]] const sts::sparse::Csb& at(index_t block) const;
};
/// Builds a plan from a copy of `coo`; `seconds` gets the set-up time
/// (the copy excluded).
[[nodiscard]] Plan build_plan(Context& ctx, const sts::sparse::Coo& coo,
                              const std::vector<index_t>& blocks,
                              double& seconds);

/// What the traced run measures each layer on: the workload's own matrix
/// and its flux solve.
struct ProbeTarget {
  const sts::sparse::Coo& coo;
  const sts::sparse::Csr& csr;
  const sts::sparse::Csb& csb; // at the flux block size
  /// Runs the workload's flux solve on `pool`, sets its iteration count
  /// and returns the reason its result is wrong, or an empty string.
  std::function<std::string(sts::flux::Scheduler&, int& iterations)>
      flux_solve;
};
void run_layer_probes(Context& ctx, const ProbeTarget& target);

/// svc.* per-layer figures for workloads that do not go through the
/// service: ping round trips and one miss plus two hits of a small CG job.
void probe_service_floor(Context& ctx);

/// Writes `coo` as a Matrix Market file (lower triangle, symmetric).
void write_symmetric_mm(const std::string& path, const sts::sparse::Coo& coo);

} // namespace pb

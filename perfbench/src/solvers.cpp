// Solver workloads: cg-ic0-poisson, lanczos-nm7 and lobpcg-poisson. Each
// calls the library's solver entry points directly, one call per version
// per round, and checks every result against the benchmark's own
// computation.
#include <omp.h>

#include <algorithm>
#include <memory>

#include "checks.hpp"
#include "flux/scheduler.hpp"
#include "inputs.hpp"
#include "solvers/cg.hpp"
#include "solvers/lanczos.hpp"
#include "solvers/lobpcg.hpp"
#include "summary.hpp"
#include "tuning/block_select.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using sts::solver::SolverOptions;
using sts::solver::SolverStatus;
using sts::solver::Version;

// 64^3 = 262,144 rows, 1.8M nonzeros; IC(0) CG needs ~75 iterations.
constexpr index_t kPoissonN = 64;
// 6000 x 6000 tiles of 24: 144,000 rows, ~75 nonzeros per row.
constexpr index_t kNm7Blocks = 6000;
constexpr index_t kNm7Dim = 24;
constexpr double kNm7Fill = 7e-4;
constexpr double kNm7EntryProb = 0.6;
constexpr int kLanczosSteps = 40;
constexpr index_t kLobpcgNev = 8;
constexpr int kLobpcgIterations = 6;

struct Call {
  double wall = 0.0;
  double loop = 0.0;
  int iterations = 0;
  std::string wrong;
};

/// One solver workload: its versions, its matrix and how to call it.
struct Case {
  std::vector<Version> versions;
  sts::sparse::Coo coo;
  std::string solver;
  /// Warm calls per version, then cold operations, in each round: more
  /// cold operations where a round is short, more warm calls where the
  /// cold operation's set-up takes seconds, so that a run of a few rounds
  /// has several samples of each.
  int calls_per_round = 1;
  int cold_per_round = 2;
  std::function<Call(Version, const Plan&, const SolverOptions&)> solve;
};

void expect_ok(SolverStatus status, const char* solver, Version v) {
  if (status != SolverStatus::kOk) {
    throw OpFailed(std::string(solver) + "/" + sts::solver::to_string(v) +
                   " ended " + sts::solver::to_string(status));
  }
}

Case make_case(Context& ctx) {
  Case c;
  Tracer& tracer = ctx.tracer;
  const std::uint64_t seed = ctx.seed;
  Tracer::Span gen(tracer, "input.generate");
  if (ctx.workload == "cg-ic0-poisson") {
    c.solver = "cg";
    c.versions = {Version::kLibCsr, Version::kLibCsb, Version::kFlux};
    c.coo = poisson7(kPoissonN);
    c.solve = [&tracer, seed](Version v, const Plan& p,
                              const SolverOptions& o) {
      const sts::solver::CgOptions co{.precond = sts::solver::Precond::kIc0,
                                      .tol = kCgTol,
                                      .max_iterations = kCgMaxIterations};
      Tracer::Span span(tracer, std::string("solver.cg.") + to_string(v));
      const auto r = sts::solver::cg(p.csr, p.at(o.block_size), v, co, o);
      Call k{span.stop(), r.timing.total_seconds, r.iterations, {}};
      expect_ok(r.status, "cg", v);
      if (!r.converged) {
        throw OpFailed("cg/" + std::string(to_string(v)) +
                       " did not converge in " + std::to_string(r.iterations) +
                       " iterations");
      }
      k.wrong = check_cg(kPoissonN, r.x, seed, kCgTol);
      return k;
    };
  } else if (ctx.workload == "lanczos-nm7") {
    c.solver = "lanczos";
    c.versions.assign(std::begin(sts::solver::kAllVersions),
                      std::end(sts::solver::kAllVersions));
    c.coo = nm7_like(kNm7Blocks, kNm7Dim, kNm7Fill, kNm7EntryProb, seed);
    c.calls_per_round = 2;
    c.cold_per_round = 1;
    const Interval bounds = gershgorin(c.coo);
    // Alphas of the first successful call; every later call must agree.
    auto ref = std::make_shared<std::vector<double>>();
    c.solve = [&tracer, bounds, ref](Version v, const Plan& p,
                                     const SolverOptions& o) {
      Tracer::Span span(tracer, std::string("solver.lanczos.") + to_string(v));
      const auto r = sts::solver::lanczos(p.csr, p.at(o.block_size),
                                          kLanczosSteps, v, o);
      Call k{span.stop(), r.timing.total_seconds, r.timing.iterations, {}};
      expect_ok(r.status, "lanczos", v);
      k.wrong = check_lanczos(r.alphas, r.betas, r.ritz_values, bounds);
      if (k.wrong.empty()) {
        if (ref->empty()) {
          *ref = r.alphas;
        } else {
          k.wrong = check_alphas_agree(*ref, r.alphas, bounds);
        }
      }
      return k;
    };
  } else {
    c.solver = "lobpcg";
    c.versions.assign(std::begin(sts::solver::kAllVersions),
                      std::end(sts::solver::kAllVersions));
    c.coo = poisson7(kPoissonN);
    c.cold_per_round = 1;
    auto spectrum = std::make_shared<const std::vector<double>>(
        poisson7_spectrum(kPoissonN));
    c.solve = [&tracer, spectrum](Version v, const Plan& p,
                                  const SolverOptions& o) {
      sts::solver::LobpcgOptions lo;
      static_cast<SolverOptions&>(lo) = o;
      lo.nev = kLobpcgNev;
      Tracer::Span span(tracer, std::string("solver.lobpcg.") + to_string(v));
      const auto r = sts::solver::lobpcg(p.csr, p.at(o.block_size),
                                         kLobpcgIterations, v, lo);
      Call k{span.stop(), r.timing.total_seconds, r.timing.iterations, {}};
      expect_ok(r.status, "lobpcg", v);
      k.wrong = check_lobpcg(r.eigenvalues, r.residual_norms, *spectrum);
      return k;
    };
  }
  gen.stop();
  return c;
}

} // namespace

void run_solver_workload(Context& ctx) {
  omp_set_num_threads(static_cast<int>(ctx.threads));
  Case c = make_case(ctx);
  const index_t rows = c.coo.rows();

  std::vector<std::pair<Version, index_t>> block_of;
  std::vector<index_t> blocks;
  std::string block_note;
  for (const Version v : c.versions) {
    const index_t b = sts::tune::recommended_block_size(v, ctx.threads, rows);
    block_of.emplace_back(v, b);
    if (std::find(blocks.begin(), blocks.end(), b) == blocks.end()) {
      blocks.push_back(b);
    }
    block_note += std::string(block_note.empty() ? "" : ", ") +
                  to_string(v) + "=" + std::to_string(b);
  }
  ctx.report.note("matrix", std::to_string(rows) + " rows, " +
                                std::to_string(c.coo.nnz()) + " nonzeros");
  ctx.report.note("block sizes", block_note);

  auto options = [&](Version v) {
    SolverOptions o;
    for (const auto& [ver, b] : block_of) {
      if (ver == v) o.block_size = b;
    }
    o.threads = ctx.threads;
    o.seed = ctx.seed;
    return o;
  };
  auto label = [&](const char* phase, Version v) {
    return c.solver + "/" + to_string(v) + " " + phase;
  };

  Summary s;
  double t = 0.0;
  Plan plan = build_plan(ctx, c.coo, blocks, t);
  s.setup.push_back(t);

  // One warm-up call per version, kept out of the medians; the first call
  // of the process is reported on its own (solver.first_solve_s).
  bool first = true;
  for (const Version v : c.versions) {
    ctx.report.op(label("warm-up", v), [&] {
      const Call k = c.solve(v, plan, options(v));
      if (first) s.first_solve = k.wall;
      first = false;
      return k.wrong;
    });
  }

  // Rounds: warm calls of every version, then cold operations -- a fresh
  // set-up and a flux solve on it -- so that every kind of sample is spread
  // over the whole run.
  const Clock::time_point start = Clock::now();
  for (int round = 0;
       round < kMinRounds || seconds_since(start) < ctx.seconds; ++round) {
    for (int call = 0; call < c.calls_per_round; ++call) {
      for (const Version v : c.versions) {
        ctx.report.op(label("solve", v), [&] {
          const Call k = c.solve(v, plan, options(v));
          Samples& out = s.by_version[to_string(v)];
          out.wall.push_back(k.wall);
          out.loop.push_back(k.loop);
          out.pre.push_back(k.wall - k.loop);
          s.iterations = k.iterations;
          return k.wrong;
        });
      }
    }
    for (int cold = 0; cold < c.cold_per_round; ++cold) {
      ctx.report.op(label("cold", Version::kFlux), [&] {
        double setup = 0.0;
        Plan fresh = build_plan(ctx, c.coo, blocks, setup);
        s.setup.push_back(setup);
        const Call k =
            c.solve(Version::kFlux, fresh, options(Version::kFlux));
        s.cold.push_back(setup + k.wall);
        plan = std::move(fresh);
        return k.wrong;
      });
    }
  }
  report_summary(ctx, s);

  if (ctx.trace) {
    const index_t flux_block = options(Version::kFlux).block_size;
    run_layer_probes(
        ctx, ProbeTarget{c.coo, plan.csr, plan.at(flux_block),
                         [&](sts::flux::Scheduler& pool, int& iterations) {
                           SolverOptions o = options(Version::kFlux);
                           o.flux_pool = &pool;
                           const Call k = c.solve(Version::kFlux, plan, o);
                           iterations = k.iterations;
                           return k.wrong;
                         }});
    probe_service_floor(ctx);
  }
}

} // namespace pb

// svc-cg-jobs: one client, closed loop, one job outstanding, sending CG
// jobs to an in-process svc::Service over its Unix-socket wire protocol.
// Most jobs repeat one spec, so the plan cache hits; once per round a fresh
// block directive forces a miss (Matrix Market parse + CSR + CSB build).
#include <omp.h>

#include <limits>
#include <memory>

#include "checks.hpp"
#include "inputs.hpp"
#include "summary.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "tuning/block_select.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using sts::solver::Version;

// 48^3 = 110,592 rows, 0.76M nonzeros.
constexpr index_t kSvcN = 48;
// The job that warms the service up before timing, and the matrix of the
// service probe on the other workloads.
constexpr index_t kTinyN = 8;
constexpr index_t kFloorN = 16;
// Room for four plans of the 48^3 matrix (~23 MB each): a round's misses
// evict the least recently used miss plans, never the repeat spec's, and
// peak memory does not grow with the number of rounds a run manages.
constexpr std::size_t kCacheBytes = std::size_t{96} << 20;
constexpr int kPings = 50;
// Cache misses per round (fresh block directives), then the round's
// cache-hit jobs.
constexpr int kMissesPerRound = 2;
constexpr Version kHitOrder[] = {Version::kFlux, Version::kLibCsr,
                                 Version::kLibCsb, Version::kFlux,
                                 Version::kLibCsr, Version::kLibCsb};

struct Job {
  double wall = 0.0;  // submit -> result, as the client sees it
  double queue = 0.0; // JobInfo: submit -> start
  double run = 0.0;   // JobInfo: start -> terminal
  double loop = 0.0;  // the solver's iteration loop
  int iterations = 0;
  bool hit = false;
};

/// An in-process service, its server on a socket in the run directory,
/// and one client.
class LocalService {
public:
  explicit LocalService(Context& ctx)
      : tracer_(ctx.tracer), service_(config()),
        server_(service_, ctx.run_dir + "/svc.sock") {
    server_.start();
    client_ = std::make_unique<sts::svc::Client>(server_.socket_path());
  }
  ~LocalService() {
    client_.reset();
    server_.stop();
  }
  LocalService(const LocalService&) = delete;
  LocalService& operator=(const LocalService&) = delete;

  double ping() {
    Tracer::Span span(tracer_, "svc.ping");
    if (!client_->ping()) throw OpFailed("svc: ping failed");
    return span.stop();
  }

  /// Submits `spec`, waits for its result and checks it. Throws OpFailed
  /// when the job does not end DONE and converged; sets `wrong` when its
  /// output or cache behaviour is not what the spec calls for.
  Job run(const sts::svc::RunSpec& spec, bool expect_hit, std::string& wrong) {
    Tracer::Span span(tracer_, std::string("svc.job.") +
                                   sts::solver::to_string(spec.version));
    const sts::svc::SubmitOutcome sub = client_->submit(spec);
    if (!sub.accepted) throw OpFailed("svc: submit rejected: " + sub.error);
    const sts::svc::wire::Json info = client_->result(sub.id);
    Job job;
    job.wall = span.stop();
    const std::string state = info.string_or("state", "");
    if (state != "DONE") {
      throw OpFailed("svc: job ended " + state + " " +
                     info.string_or("error", ""));
    }
    const sts::svc::wire::Json& summary = info.get("summary");
    if (!summary.bool_or("converged", false)) {
      throw OpFailed("svc: job did not converge");
    }
    job.queue = info.number_or("queue_seconds", 0.0);
    job.run = info.number_or("run_seconds", 0.0);
    job.loop = summary.number_or("seconds", 0.0);
    job.iterations = static_cast<int>(summary.int_or("iterations", 0));
    job.hit = info.bool_or("cache_hit", false);
    wrong = check_job(
        {summary.number_or("relative_residual",
                           std::numeric_limits<double>::infinity()),
         job.hit},
        spec.tolerance, expect_hit);
    return job;
  }

private:
  static sts::svc::Service::Config config() {
    sts::svc::Service::Config c;
    c.cache_bytes = kCacheBytes;
    return c;
  }

  Tracer& tracer_;
  sts::svc::Service service_;
  sts::svc::Server server_;
  std::unique_ptr<sts::svc::Client> client_;
};

sts::svc::RunSpec cg_spec(const std::string& path, Version v, index_t block,
                          unsigned threads) {
  sts::svc::RunSpec spec;
  spec.matrix_path = path;
  spec.solver = sts::svc::SolverKind::kCg;
  spec.precond = sts::solver::Precond::kIc0;
  spec.tolerance = kCgTol;
  spec.iterations = kCgMaxIterations;
  spec.version = v;
  spec.block = block;
  spec.threads = threads;
  return spec;
}

std::string write_input(Context& ctx, const std::string& name,
                        const sts::sparse::Coo& coo) {
  const std::string path = ctx.run_dir + "/" + name;
  Tracer::Span span(ctx.tracer, "input.write_mm");
  write_symmetric_mm(path, coo);
  return path;
}

void report_pings(Context& ctx, LocalService& local) {
  std::vector<double> us;
  for (int i = 0; i < kPings; ++i) us.push_back(local.ping() * 1e6);
  ctx.report.metric("svc.ping_us", median(us), "us", us.size());
}

} // namespace

void run_svc_workload(Context& ctx) {
  omp_set_num_threads(static_cast<int>(ctx.threads));
  sts::sparse::Coo coo;
  {
    Tracer::Span gen(ctx.tracer, "input.generate");
    coo = poisson7(kSvcN);
  }
  const std::string path = write_input(ctx, "poisson.mtx", coo);
  const std::string tiny = write_input(ctx, "tiny.mtx", poisson7(kTinyN));
  const index_t block = sts::tune::recommended_block_size(
      Version::kFlux, ctx.threads, coo.rows());
  ctx.report.note("matrix", std::to_string(coo.rows()) + " rows, " +
                                std::to_string(coo.nnz()) + " nonzeros");
  ctx.report.note("block sizes", "repeat spec " + std::to_string(block) +
                                     ", fresh directives " +
                                     std::to_string(block + 1) + "..");

  Summary s;
  Plan plan;
  auto setup = [&] {
    double t = 0.0;
    plan = build_plan(ctx, coo, {block}, t);
    s.setup.push_back(t);
  };
  setup();

  LocalService local(ctx);
  if (ctx.trace) report_pings(ctx, local);
  std::vector<double> queue;
  std::vector<double> run;
  int hits = 0;
  auto submit = [&](const char* what, const std::string& matrix, Version v,
                    index_t b, bool expect_hit, auto&& record) {
    ctx.report.op(std::string("cg/") + to_string(v) + " " + what, [&] {
      std::string wrong;
      const Job job =
          local.run(cg_spec(matrix, v, b, ctx.threads), expect_hit, wrong);
      if (job.hit) ++hits;
      record(job);
      return wrong;
    });
  };

  // Warm-up with a tiny job; then the repeat spec's first job fills the
  // cache (a miss, counted with the cold jobs).
  submit("warm-up job", tiny, Version::kFlux, 0, false,
         [&](const Job& j) { s.first_solve = j.wall; });
  submit("priming job", path, Version::kFlux, block, false,
         [&](const Job& j) { s.cold.push_back(j.wall); });

  const Clock::time_point start = Clock::now();
  for (int round = 0;
       round < kMinRounds || seconds_since(start) < ctx.seconds; ++round) {
    setup();
    for (int miss = 0; miss < kMissesPerRound; ++miss) {
      submit("miss job", path, Version::kFlux,
             block + 1 + kMissesPerRound * round + miss, false,
             [&](const Job& j) { s.cold.push_back(j.wall); });
    }
    for (const Version v : kHitOrder) {
      submit("hit job", path, v, block, true, [&](const Job& j) {
        Samples& out = s.by_version[to_string(v)];
        out.wall.push_back(j.wall);
        out.loop.push_back(j.loop);
        out.pre.push_back(j.run - j.loop);
        queue.push_back(j.queue);
        run.push_back(j.run);
        s.iterations = j.iterations;
      });
    }
  }
  report_summary(ctx, s);
  if (!ctx.trace) return;

  ctx.report.timing("svc.queue_s", queue);
  ctx.report.timing("svc.run_s", run);
  ctx.report.metric("svc.cache_hits", hits, "count");
  const Plan& p = plan;
  run_layer_probes(
      ctx, ProbeTarget{coo, p.csr, p.at(block),
                       [&](sts::flux::Scheduler& pool, int& iterations) {
                         sts::solver::SolverOptions o;
                         o.block_size = block;
                         o.threads = ctx.threads;
                         o.seed = ctx.seed;
                         o.flux_pool = &pool;
                         const auto r = sts::solver::cg(
                             p.csr, p.at(block), Version::kFlux,
                             {.precond = sts::solver::Precond::kIc0,
                              .tol = kCgTol,
                              .max_iterations = kCgMaxIterations},
                             o);
                         iterations = r.iterations;
                         if (r.status != sts::solver::SolverStatus::kOk ||
                             !r.converged) {
                           throw OpFailed("cg/flux on the probe pool failed");
                         }
                         return check_cg(kSvcN, r.x, ctx.seed, kCgTol);
                       }});
}

void probe_service_floor(Context& ctx) {
  const std::string path = write_input(ctx, "floor.mtx", poisson7(kFloorN));
  const index_t block = sts::tune::recommended_block_size(
      Version::kFlux, ctx.threads, kFloorN * kFloorN * kFloorN);
  LocalService local(ctx);
  report_pings(ctx, local);
  std::vector<double> queue;
  std::vector<double> run;
  int hits = 0;
  for (int i = 0; i < 3; ++i) {
    ctx.report.op("cg/flux service probe job", [&] {
      std::string wrong;
      const Job job = local.run(
          cg_spec(path, Version::kFlux, block, ctx.threads), i > 0, wrong);
      if (job.hit) {
        ++hits;
        queue.push_back(job.queue);
        run.push_back(job.run);
      }
      return wrong;
    });
  }
  ctx.report.timing("svc.queue_s", queue);
  ctx.report.timing("svc.run_s", run);
  ctx.report.metric("svc.cache_hits", hits, "count");
}

} // namespace pb

// Set-up shared by the workloads, and the traced run's layer probes: each
// probe times calls into one module's public functions on the workload's
// own matrix.
#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "ds/program.hpp"
#include "flux/scheduler.hpp"
#include "la/sptrsv.hpp"
#include "bsp/kernels.hpp"
#include "sparse/ic0.hpp"
#include "sparse/mm_io.hpp"
#include "support/error.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

/// Calls `fn` at least `min_reps` times and until `min_seconds` have
/// passed (at most 1000 times); returns each call's seconds.
template <typename F>
std::vector<double> repeat(Tracer& tracer, const std::string& name,
                           int min_reps, double min_seconds, F&& fn) {
  std::vector<double> out;
  double total = 0.0;
  while (out.size() < 1000 &&
         (static_cast<int>(out.size()) < min_reps || total < min_seconds)) {
    Tracer::Span span(tracer, name);
    fn();
    out.push_back(span.stop());
    total += out.back();
  }
  return out;
}

double gb_per_s(double bytes, double seconds) { return bytes / seconds * 1e-9; }

/// Size in bytes of the highest-level CPU cache sysfs lists for cpu0, or 0.
double llc_bytes() {
  double best = 0.0;
  int best_level = -1;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level_in(dir + "level");
    std::ifstream size_in(dir + "size");
    int level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size) || size.empty()) continue;
    double bytes = std::stod(size);
    if (size.back() == 'K') bytes *= 1024.0;
    if (size.back() == 'M') bytes *= 1024.0 * 1024.0;
    if (level > best_level) {
      best_level = level;
      best = bytes;
    }
  }
  return best;
}

double mem_available_bytes() {
  std::ifstream in("/proc/meminfo");
  std::string key;
  double kib = 0.0;
  std::string unit;
  while (in >> key >> kib >> unit) {
    if (key == "MemAvailable:") return kib * 1024.0;
  }
  return 0.0;
}

/// STREAM triad a = b + s c over arrays of 4x the last-level cache each,
/// or of 1/32 of available memory when that is smaller. Best of five.
double probe_triad(Context& ctx) {
  const double llc = llc_bytes();
  double bytes = llc > 0.0 ? 4.0 * llc : 1024.0 * 1024.0 * 1024.0;
  const double avail = mem_available_bytes();
  if (avail > 0.0) bytes = std::min(bytes, avail / 32.0);
  const auto n = static_cast<std::int64_t>(bytes / sizeof(double));
  const auto a = std::make_unique<double[]>(static_cast<std::size_t>(n));
  const auto b = std::make_unique<double[]>(static_cast<std::size_t>(n));
  const auto c = std::make_unique<double[]>(static_cast<std::size_t>(n));
  double* pa = a.get();
  double* pb_ = b.get();
  double* pc = c.get();
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    pa[i] = 0.0;
    pb_[i] = 1.0;
    pc[i] = 2.0;
  }
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    Tracer::Span span(ctx.tracer, "stream.triad");
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < n; ++i) pa[i] = pb_[i] + 3.0 * pc[i];
    best = std::min(best, span.stop());
  }
  if (pa[n / 2] != 7.0) throw sts::support::Error("stream triad: wrong sum");
  const double array_mib = static_cast<double>(n) * sizeof(double) / 1048576.0;
  const double gbps =
      gb_per_s(3.0 * static_cast<double>(n) * sizeof(double), best);
  ctx.report.metric("stream.triad_gbps", gbps, "GB/s", 5);
  ctx.report.metric("stream.array_mib", array_mib, "MiB");
  ctx.report.metric("stream.llc_mib", llc / 1048576.0, "MiB");
  return gbps;
}

} // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "cg-ic0-poisson", "lanczos-nm7", "lobpcg-poisson", "svc-cg-jobs"};
  return names;
}

const sts::sparse::Csb& Plan::at(index_t block) const {
  for (const auto& [b, csb] : csb) {
    if (b == block) return csb;
  }
  throw sts::support::Error("plan has no CSB at block size " +
                            std::to_string(block));
}

Plan build_plan(Context& ctx, const sts::sparse::Coo& coo,
                const std::vector<index_t>& blocks, double& seconds) {
  sts::sparse::Coo copy = coo;
  Tracer::Span total(ctx.tracer, "setup");
  Plan p;
  {
    Tracer::Span span(ctx.tracer, "sparse.from_coo");
    p.csr = sts::sparse::Csr::from_coo(std::move(copy));
  }
  {
    Tracer::Span span(ctx.tracer, "sparse.csb_build");
    for (const index_t b : blocks) {
      p.csb.emplace_back(b, sts::sparse::Csb::from_csr(p.csr, b));
    }
  }
  seconds = total.stop();
  return p;
}

void write_symmetric_mm(const std::string& path, const sts::sparse::Coo& coo) {
  std::size_t lower = 0;
  for (const auto& t : coo.entries()) lower += t.row >= t.col ? 1 : 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw sts::support::Error("cannot write " + path);
  std::fprintf(f,
               "%%%%MatrixMarket matrix coordinate real symmetric\n"
               "%lld %lld %zu\n",
               static_cast<long long>(coo.rows()),
               static_cast<long long>(coo.cols()), lower);
  for (const auto& t : coo.entries()) {
    if (t.row >= t.col) {
      std::fprintf(f, "%d %d %.17g\n", t.row + 1, t.col + 1, t.value);
    }
  }
  if (std::fclose(f) != 0) throw sts::support::Error("cannot write " + path);
}

void run_layer_probes(Context& ctx, const ProbeTarget& t) {
  Report& rep = ctx.report;
  Tracer& tr = ctx.tracer;
  const sts::sparse::Csr& csr = t.csr;
  const sts::sparse::Csb& csb = t.csb;
  const auto rows = static_cast<double>(csr.rows());
  const index_t block = csb.block_size();
  sts::flux::Scheduler::Config pool_config;
  pool_config.threads = ctx.threads;

  // sparse: set-up parts (from the workload's own set-ups), Matrix Market
  // read, IC(0).
  rep.timing("sparse.from_coo_s", tr.durations("sparse.from_coo"));
  rep.timing("sparse.csb_build_s", tr.durations("sparse.csb_build"));
  rep.metric("sparse.csb_bytes_per_nnz", csb.bytes_per_nnz(), "B");
  {
    const std::string path = ctx.run_dir + "/probe.mtx";
    write_symmetric_mm(path, t.coo);
    index_t nnz = 0;
    const auto s = repeat(tr, "sparse.read_matrix_market_file", 1, 0.0, [&] {
      nnz = sts::sparse::read_matrix_market_file(path).nnz();
    });
    std::remove(path.c_str());
    if (nnz != t.coo.nnz()) {
      throw sts::support::Error("Matrix Market read-back has " +
                                std::to_string(nnz) + " nonzeros");
    }
    rep.timing("sparse.mm_read_s", s);
  }
  sts::sparse::Ic0Result ic0;
  rep.timing("sparse.ic0_factor_s",
             repeat(tr, "sparse.ic0_factor", 1, 0.5,
                    [&] { ic0 = sts::sparse::ic0_factor(csr); }));

  // sptrsv: plan, then one forward plus one backward solve, sequential and
  // as a flux DAG, on the IC(0) factor at the workload's flux block size.
  {
    const sts::sparse::Csb lower = sts::sparse::Csb::from_csr(ic0.lower, block);
    sts::la::SptrsvPlan plan;
    rep.timing("sptrsv.plan_s",
               repeat(tr, "sptrsv.plan", 3, 0.2,
                      [&] { plan = sts::la::SptrsvPlan::build(lower); }));
    rep.metric("sptrsv.level_span", static_cast<double>(plan.level_span()),
               "count");
    rep.metric("sptrsv.max_level_width",
               static_cast<double>(plan.max_level_width()), "count");
    const std::vector<double> b(static_cast<std::size_t>(csr.rows()), 1.0);
    std::vector<double> y(b.size());
    std::vector<double> x(b.size());
    // Computed bytes: the factor once per triangular solve, plus reading
    // the right-hand side and writing the solution.
    const double bytes =
        2.0 * (static_cast<double>(lower.memory_bytes()) + 16.0 * rows);
    const auto seq = repeat(tr, "sptrsv.sequential", 3, 0.3, [&] {
      sts::la::sptrsv_forward(lower, plan, b, y);
      sts::la::sptrsv_backward(lower, plan, y, x);
    });
    sts::flux::Scheduler pool(pool_config);
    const auto dag = repeat(tr, "sptrsv.dag", 3, 0.3, [&] {
      sts::la::sptrsv_forward(lower, plan, b, y, pool, nullptr);
      sts::la::sptrsv_backward(lower, plan, y, x, pool, nullptr);
    });
    rep.timing("sptrsv.seq_s", seq);
    rep.timing("sptrsv.dag_s", dag);
    rep.metric("sptrsv.seq_gbps", gb_per_s(bytes, median(seq)), "GB/s");
    rep.metric("sptrsv.dag_gbps", gb_per_s(bytes, median(dag)), "GB/s");
  }

  // bsp kernels. Computed bytes: the matrix arrays once, the input vector
  // block once and the output block once.
  double spmv_csb_gbps = 0.0;
  {
    const std::vector<double> x(static_cast<std::size_t>(csr.cols()), 1.0);
    std::vector<double> y(static_cast<std::size_t>(csr.rows()));
    const double vec_bytes = 8.0 * (rows + static_cast<double>(csr.cols()));
    const auto spmv_csr = repeat(tr, "bsp.spmv_csr", 5, 0.3,
                                 [&] { sts::bsp::spmv(csr, x, y); });
    const auto spmv_csb = repeat(tr, "bsp.spmv_csb", 5, 0.3,
                                 [&] { sts::bsp::spmv(csb, x, y); });
    rep.timing("bsp.spmv_csr_s", spmv_csr);
    rep.timing("bsp.spmv_csb_s", spmv_csb);
    rep.metric("bsp.spmv_csr_gbps",
               gb_per_s(static_cast<double>(csr.memory_bytes()) + vec_bytes,
                        median(spmv_csr)),
               "GB/s");
    spmv_csb_gbps = gb_per_s(
        static_cast<double>(csb.memory_bytes()) + vec_bytes, median(spmv_csb));
    rep.metric("bsp.spmv_csb_gbps", spmv_csb_gbps, "GB/s");

    constexpr index_t kWidth = 8;
    sts::la::DenseMatrix xs(csr.cols(), kWidth);
    sts::la::DenseMatrix ys(csr.rows(), kWidth);
    sts::la::DenseMatrix zs(csr.rows(), kWidth);
    sts::la::DenseMatrix small(kWidth, kWidth);
    xs.fill(1.0);
    zs.fill(0.5);
    small.fill(0.25);
    const auto spmm = repeat(tr, "bsp.spmm_csb", 5, 0.3, [&] {
      sts::bsp::spmm(csb, xs.view(), ys.view());
    });
    rep.timing("bsp.spmm_csb_s", spmm);
    rep.metric("bsp.spmm_csb_gbps",
               gb_per_s(static_cast<double>(csb.memory_bytes()) +
                            kWidth * vec_bytes,
                        median(spmm)),
               "GB/s");
    rep.timing("bsp.xty_s", repeat(tr, "bsp.xty", 5, 0.2, [&] {
                 sts::bsp::xty(ys.view(), zs.view(), small.view(), block);
               }));
    rep.timing("bsp.xy_s", repeat(tr, "bsp.xy", 5, 0.2, [&] {
                 sts::bsp::xy(zs.view(), small.view(), ys.view(), block);
               }));
  }

  // flux: pool start-up, empty-task cost, and the workload's own flux
  // solve on a pool the benchmark owns, read through Scheduler::stats().
  rep.timing("flux.pool_start_s", repeat(tr, "flux.pool_start", 10, 0.1, [&] {
               sts::flux::Scheduler pool(pool_config);
             }));
  {
    constexpr int kTasks = 20000;
    sts::flux::Scheduler pool(pool_config);
    const auto s = repeat(tr, "flux.empty_tasks", 5, 0.1, [&] {
      for (int i = 0; i < kTasks; ++i) pool.submit([] {});
      pool.wait_for_quiescence();
    });
    rep.metric("flux.empty_task_us", median(s) / kTasks * 1e6, "us", s.size());
  }
  {
    sts::flux::Scheduler pool(pool_config);
    int iterations = 0;
    rep.op("flux solve on a benchmark-owned pool", [&] {
      Tracer::Span span(tr, "flux.owned_pool_solve");
      return t.flux_solve(pool, iterations);
    });
    const sts::flux::Scheduler::Stats st = pool.stats();
    rep.metric("flux.tasks_per_iter",
               static_cast<double>(st.executed) / std::max(1, iterations),
               "count");
    rep.metric("flux.steals", static_cast<double>(st.steals), "count");
  }

  // ds: task-graph build of one Lanczos-shaped iteration (SpMM, XTY, XY,
  // dot) over the workload's matrix.
  rep.timing("ds.graph_build_s", repeat(tr, "ds.graph_build", 3, 0.2, [&] {
               sts::la::DenseMatrix q(csr.rows(), 1);
               sts::la::DenseMatrix z(csr.rows(), 1);
               sts::la::DenseMatrix basis(csr.rows(), 8);
               sts::la::DenseMatrix proj(8, 1);
               double norm2 = 0.0;
               sts::ds::Program prog(&csb, {});
               const auto qid = prog.vec("q", &q);
               const auto zid = prog.vec("z", &z);
               const auto bid = prog.vec("Q", &basis);
               const auto pid = prog.small("proj", &proj);
               const auto nid = prog.scalar("norm2", &norm2);
               prog.spmm(qid, zid);
               prog.xty(bid, zid, pid);
               prog.xy(bid, pid, zid, -1.0, 1.0);
               prog.dot(zid, zid, nid);
               (void)prog.build();
             }));

  rep.metric("bsp.spmv_csb_roofline", spmv_csb_gbps / probe_triad(ctx),
             "ratio");
}

} // namespace pb

// End-to-end benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --check
//
// Runs one workload in this process and prints a human-readable report
// followed, as the last line of standard output, by one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 records spans around every timed call,
// runs the layer probes and reports the per-layer metrics. --check runs
// each correctness check on a right and a deliberately wrong result.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n"
            << "       perfbench --check\n"
            << "workloads:";
  for (const std::string& w : pb::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

/// Per-layer figures on the tracing itself: the cost of one span, the
/// spans this run recorded, and the share of the run they cost.
void report_trace_cost(pb::Context& ctx, pb::Clock::time_point start) {
  constexpr int kSpans = 100000;
  pb::Tracer timing_only(true);
  const pb::Clock::time_point t0 = pb::Clock::now();
  for (int i = 0; i < kSpans; ++i) pb::Tracer::Span span(timing_only, "probe");
  const double span_s = pb::seconds_since(t0) / kSpans;
  const double run_s = pb::seconds_since(start);
  const auto spans = static_cast<double>(ctx.tracer.size());
  ctx.report.metric("trace.span_ns", span_s * 1e9, "ns", kSpans);
  ctx.report.metric("trace.spans", spans, "count");
  ctx.report.metric("trace.overhead_share", spans * span_s / run_s, "ratio");
}

} // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string seed;
  std::string seconds;
  std::string trace = "0";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") return pb::run_self_test();
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = value;
    } else if (arg == "--seconds") {
      seconds = value;
    } else if (arg == "--trace") {
      trace = value;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  const auto& names = pb::workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    return usage("unknown workload '" + workload + "'");
  }
  if (trace != "0" && trace != "1") return usage("--trace takes 0 or 1");

  pb::Context ctx;
  try {
    ctx.seed = std::stoull(seed);
    ctx.seconds = std::stod(seconds);
  } catch (const std::exception&) {
    return usage("--seed and --seconds take numbers");
  }
  if (!(ctx.seconds > 0.0)) return usage("--seconds must be positive");
  ctx.workload = workload;
  ctx.trace = trace == "1";
  ctx.tracer = pb::Tracer(ctx.trace);
  ctx.threads = pb::available_cpus();
  ctx.run_dir = ".bench_run/" + workload + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(ctx.run_dir);

  const pb::Clock::time_point start = pb::Clock::now();
  const pb::CpuTicks ticks0 = pb::cpu_ticks();
  int status = 0;
  try {
    if (workload == "svc-cg-jobs") {
      pb::run_svc_workload(ctx);
    } else {
      pb::run_solver_workload(ctx);
    }
    if (ctx.trace) {
      report_trace_cost(ctx, start);
      const std::string path = ".bench_run/trace-" + workload + "-seed" +
                               seed + ".json";
      ctx.tracer.write_chrome(path);
      ctx.report.note("trace", path);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << ": " << e.what() << "\n";
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(ctx.run_dir, ignored);
  if (status != 0) return status;

  ctx.report.note("workload", workload);
  ctx.report.note("seed", seed);
  ctx.report.note("threads", std::to_string(ctx.threads));
  ctx.report.note("run seconds", seconds);
  // Time the hypervisor gave other guests while this run had work to do:
  // the host's contention, against which the run's figures are read.
  const pb::CpuTicks ticks1 = pb::cpu_ticks();
  const double total = ticks1.total - ticks0.total;
  const double steal =
      total > 0.0 ? (ticks1.steal - ticks0.steal) / total : 0.0;
  ctx.report.note("host cpu steal during the run",
                  std::to_string(100.0 * steal) + " %");
  ctx.report.print(std::cout);
  return 0;
}

#include "summary.hpp"

#include <cstdio>
#include <limits>

namespace pb {
namespace {

bool is_bsp_version(const std::string& version) {
  return version == "libcsr" || version == "libcsb";
}

/// The version of the given class with the lowest median wall time.
const std::pair<const std::string, Samples>* fastest(const Summary& s,
                                                     bool bsp) {
  const std::pair<const std::string, Samples>* best = nullptr;
  double best_t = std::numeric_limits<double>::infinity();
  for (const auto& entry : s.by_version) {
    if (is_bsp_version(entry.first) != bsp || entry.second.wall.empty()) {
      continue;
    }
    const double t = median(entry.second.wall);
    if (t < best_t) {
      best_t = t;
      best = &entry;
    }
  }
  return best;
}

} // namespace

void report_summary(Context& ctx, const Summary& s) {
  for (const auto& [version, samples] : s.by_version) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "median %.6g s (n=%zu), loop %.6g s, pre-loop %.6g s",
                  median(samples.wall), samples.wall.size(),
                  median(samples.loop), median(samples.pre));
    ctx.report.note("solve " + version, line);
  }
  const auto* bsp = fastest(s, true);
  const auto* task = fastest(s, false);
  if (bsp == nullptr || task == nullptr) {
    throw OpFailed("no successful operation of a BSP and a task version");
  }
  ctx.report.note("fastest BSP / fastest task",
                  bsp->first + " / " + task->first + " = " +
                      std::to_string(median(bsp->second.wall) /
                                     median(task->second.wall)));
  if (!ctx.trace) {
    ctx.report.timing("setup_s", s.setup);
    ctx.report.timing("solve_s.bsp", bsp->second.wall);
    ctx.report.timing("solve_s.task", task->second.wall);
    ctx.report.timing("cold_solve_s", s.cold);
    ctx.report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    return;
  }
  ctx.report.timing("trace.solve_s.bsp", bsp->second.wall);
  ctx.report.timing("trace.solve_s.task", task->second.wall);
  ctx.report.timing("solver.loop_s.bsp", bsp->second.loop);
  ctx.report.timing("solver.loop_s.task", task->second.loop);
  ctx.report.timing("solver.presolve_s.bsp", bsp->second.pre);
  ctx.report.timing("solver.presolve_s.task", task->second.pre);
  ctx.report.metric("solver.first_solve_s", s.first_solve, "s");
  ctx.report.metric("solver.iterations", s.iterations, "count");
}

} // namespace pb

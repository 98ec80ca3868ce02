// What every workload hands to the report: its set-up, cold and per-version
// samples. The end-to-end metrics are the same on every workload, so that
// each run reports all of them.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace pb {

struct Samples {
  std::vector<double> wall; // one operation, as its caller waits for it
  std::vector<double> loop; // iteration loop only (IterationTiming)
  std::vector<double> pre;  // set-up inside the call: wall minus loop
};

struct Summary {
  std::vector<double> setup; // COO -> CSR + CSB
  std::vector<double> cold;  // an operation that builds its own plan
  std::map<std::string, Samples> by_version; // warm operations
  double first_solve = 0.0;  // the process's first operation
  int iterations = 0;        // solver iterations per operation
};

/// Emits the end-to-end metrics (untraced run) or the solver-level
/// per-layer metrics (traced run) of `s`, and the per-version notes.
void report_summary(Context& ctx, const Summary& s);

} // namespace pb

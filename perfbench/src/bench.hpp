// Shared pieces of the benchmark program: span tracing, statistics, the run
// report and the per-run context.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double median(std::vector<double> v);

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Spans around the benchmark's calls into the library: name, start, end
/// and parent, kept in memory and written out when the run ends. A span
/// always times its interval; it is recorded only while tracing is on.
class Tracer {
public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Span {
  public:
    Span(Tracer& tracer, std::string name);
    ~Span() { stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Ends the span (once) and returns its duration in seconds.
    double stop();

  private:
    Tracer& tracer_;
    std::string name_;
    Clock::time_point start_;
    int index_ = -1;
    double seconds_ = -1.0;
  };

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Durations in seconds of every recorded span with this name.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  /// Chrome trace-event JSON (loadable in Perfetto).
  void write_chrome(const std::string& path) const;

private:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  int open_ = -1;
};

/// Raised by an operation that ran but did not succeed: a status other than
/// kOk, an unconverged CG, a job that did not end DONE.
class OpFailed : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Metrics, operation counts and run facts; prints the human report and
/// the final JSON line.
class Report {
public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 1);
  /// Median of `samples` (seconds), with its sample count and, when at
  /// least ten samples lie beyond it, the highest such tail percentile in
  /// the human report.
  void timing(const std::string& name, const std::vector<double>& samples);
  void note(const std::string& key, const std::string& value);

  /// Runs one operation. `op` returns the reason its output is wrong, or
  /// an empty string. A thrown exception or a wrong output counts the
  /// operation as failed; a wrong output also clears `correct`.
  void op(const std::string& what, const std::function<std::string()>& op);

  void print(std::ostream& out) const;

private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
    std::string tail;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;
  /// Directory inside the checkout for the files the run writes.
  std::string run_dir;
  Tracer tracer{false};
  Report report;
};

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// Worker threads available to this process (the CPUs it may run on).
[[nodiscard]] unsigned available_cpus();

/// Cumulative CPU time of the whole host, from /proc/stat: all of it and
/// the part stolen by the hypervisor, in clock ticks.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};
[[nodiscard]] CpuTicks cpu_ticks();

} // namespace pb

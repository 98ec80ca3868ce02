#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <ostream>

#include "support/escape.hpp"

namespace pb {
namespace {

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

} // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

Tracer::Span::Span(Tracer& tracer, std::string name)
    : tracer_(tracer), name_(std::move(name)) {
  if (tracer_.enabled_) {
    index_ = static_cast<int>(tracer_.spans_.size());
    tracer_.spans_.push_back({name_, 0, 0, tracer_.open_});
    tracer_.open_ = index_;
  }
  start_ = Clock::now();
}

double Tracer::Span::stop() {
  if (seconds_ >= 0.0) return seconds_;
  const Clock::time_point end = Clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (index_ >= 0) {
    Record& r = tracer_.spans_[static_cast<std::size_t>(index_)];
    r.start_ns = ns_between(tracer_.origin_, start_);
    r.end_ns = ns_between(tracer_.origin_, end);
    tracer_.open_ = r.parent;
  }
  return seconds_;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Record& r : spans_) {
    if (r.name == name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
    }
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\""
        << sts::support::json_escape(r.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << number(static_cast<double>(r.start_ns) * 1e-3)
        << ",\"dur\":"
        << number(static_cast<double>(r.end_ns - r.start_ns) * 1e-3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << "}}";
  }
  out << "\n]}\n";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_.push_back({name, value, unit, samples, {}});
}

void Report::timing(const std::string& name,
                    const std::vector<double>& samples) {
  Metric m{name, median(samples), "s", samples.size(), {}};
  // The highest conventional percentile with at least ten samples beyond
  // it; none below forty samples.
  for (const double p : {99.0, 95.0, 90.0, 75.0}) {
    const double beyond =
        static_cast<double>(samples.size()) * (100.0 - p) / 100.0;
    if (samples.size() >= 40 && beyond >= 10.0) {
      std::vector<double> s = samples;
      std::sort(s.begin(), s.end());
      const auto idx = static_cast<std::size_t>(
          std::ceil(p / 100.0 * static_cast<double>(s.size()))) - 1;
      m.tail = "p" + number(p) + "=" + number(s[idx]);
      break;
    }
  }
  metrics_.push_back(std::move(m));
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Report::op(const std::string& what,
                const std::function<std::string()>& op) {
  ++attempted_;
  try {
    const std::string wrong = op();
    if (!wrong.empty()) {
      ++failed_;
      correct_ = false;
      std::cerr << "perfbench: " << what << ": wrong result: " << wrong << "\n";
    }
  } catch (const std::exception& e) {
    ++failed_;
    std::cerr << "perfbench: " << what << ": failed: " << e.what() << "\n";
  }
}

void Report::print(std::ostream& out) const {
  for (const auto& [key, value] : notes_) {
    out << "# " << key << ": " << value << "\n";
  }
  out << "# operations: attempted " << attempted_ << ", failed " << failed_
      << (correct_ ? "" : ", WRONG RESULTS") << "\n";
  for (const Metric& m : metrics_) {
    char line[160];
    std::snprintf(line, sizeof line, "%-32s %16.6g %-6s n=%zu", m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples);
    out << line << (m.tail.empty() ? "" : "  " + m.tail) << "\n";
  }
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i == 0 ? "" : ", ") << "\"" << m.name
        << "\": {\"value\": " << number(m.value) << ", \"unit\": \"" << m.unit
        << "\"}";
  }
  out << "}}" << std::endl;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  double v = 0.0;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 10 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

} // namespace pb

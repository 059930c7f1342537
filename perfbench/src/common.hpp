// Shared pieces of the benchmark binary: command-line options, the result a
// workload returns (outcome counts + named metrics), timing and process
// counters.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test: corrupt one checked output and provoke one exception, so
  /// the run must report failures.
  bool inject_faults = false;
  std::string out_dir = ".bench_build/trace";  ///< trace + breakdown files
};

/// Set-ups per untraced run; setup_s is their median (one set-up swings by
/// up to 2x between processes).
constexpr int kSetupRepeats = 5;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports. attempted/failed count checked operations:
/// a failure is an output that differs from its oracle, or an exception.
struct Result {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  ///< one line per failure (stderr)
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
  void set(const std::string& name, double value) {
    for (Metric& m : metrics)
      if (m.name == name) {
        m.value = value;
        return;
      }
    failures.push_back("internal: unknown metric " + name);
    ++failed;
  }
};

/// Every per-layer metric, zero-initialized: a workload sets the ones on
/// its path and the rest read 0 (the layer did no work there).
Result per_layer_template();
/// Every end-to-end metric, zero-initialized.
Result end_to_end_template();

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + system), seconds.
inline double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Peak resident set size of this process, MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Report a metric's sample distribution on stderr: the median the result
/// carries, the spread around it and the sample count behind it.
inline void describe_samples(const char* name, std::vector<double> v) {
  if (v.empty()) return;
  std::sort(v.begin(), v.end());
  const auto q = [&](double f) {
    return v[static_cast<std::size_t>(f * static_cast<double>(v.size() - 1))];
  };
  std::fprintf(stderr,
               "%s: median %.6g over %zu samples (min %.6g, p10 %.6g, p90 "
               "%.6g, max %.6g)\n",
               name, median(v), v.size(), v.front(), q(0.1), q(0.9),
               v.back());
}

/// Workload entry points (serve_workloads.cpp, resblock_workload.cpp).
Result run_decode_accel(const Options& opt);
Result run_beam_farm(const Options& opt);
Result run_paper_resblock(const Options& opt);

}  // namespace perfbench

// Shared plumbing for the benchmark driver: scratch directories,
// process resource readings, statistics, and the result a workload hands
// back to main().
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A directory made with mkdtemp under the benchmark's work root and
/// removed with everything in it when the object dies.
class TempDir {
 public:
  explicit TempDir(const std::string& label);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Parent of every TempDir; set once by main() before any workload.
  static void set_root(const std::string& root);

 private:
  std::string path_;
};

/// Seconds since an arbitrary steady epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set (VmHWM) of this process, in MiB.
double peak_rss_mb();
/// Resets VmHWM to the current resident set; false when the kernel
/// refuses (VmHWM then keeps the peak of the whole process).
bool reset_peak_rss();
/// User + system CPU time of this process so far, in seconds.
double cpu_s();
/// Total size of the regular files below `dir`, in bytes.
std::uint64_t dir_bytes(const std::string& dir);

void write_file(const std::string& path, const std::string& content);

/// Interpolated percentile (q in [0, 1]) of an unsorted sample; 0 when
/// the sample is empty.
double percentile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

/// Worker count for the parallel workloads: min(4, hardware threads).
std::size_t bench_jobs();

/// Times one run of the reference unit: a fixed, single-threaded
/// computation that calls nothing in the library, so no change to the
/// library can change it. A workload's untraced run times it between its
/// iterations and reports each iteration's wall time as a multiple of
/// it, which cancels most of the host's speed drift (see NOTES.md). Its
/// mix follows the build's: formatted names hashed into a 16 MB table,
/// larger than a core's private cache, then about a quarter of its time
/// in register-only arithmetic.
double reference_s();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. Every operation — a timed iteration,
/// a campaign run, a correctness check — goes through check(), so
/// `failed / attempted` is the share that failed or disagreed with its
/// reference.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  /// Human-readable notes printed above the JSON line.
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what);
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Closed-loop iteration control: keep iterating while one more
/// iteration of the median length still fits in `seconds`; at least one.
class Loop {
 public:
  explicit Loop(double seconds) : seconds_(seconds), start_(now_s()) {}
  [[nodiscard]] bool more() const;
  void record(double iteration_s) { times_.push_back(iteration_s); }

 private:
  double seconds_;
  double start_;
  std::vector<double> times_;
};

}  // namespace perfbench

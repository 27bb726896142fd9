#pragma once

// Shared plumbing for the benchmark binary: clocks, order statistics, the
// result record printed as the last line of stdout, and the environment
// stamp every record carries.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Parsed command line (`--workload --seed --seconds --trace --out-dir`).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where span dumps and the per-seed determinism digests go; one
  /// directory per version of the code measured (run.py names it).
  std::string out_dir;
};

std::uint64_t now_ns();
double now_s();

/// Process peak resident set size (getrusage), MiB.
double peak_rss_mib();

/// Nearest-rank percentile, `p` in [0, 100]; 0 for an empty set.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// One benchmark result: pass/fail, operation counts, and named metrics.
class Record {
 public:
  void set(const std::string& name, double value, const std::string& unit);

  /// Mark the run incorrect; the reason goes to stderr.
  void fail(const std::string& reason);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// The single-line JSON object the benchmark contract asks for.
  std::string json() const;

 private:
  bool correct_ = true;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Whether this translation unit was compiled with optimization on.
bool optimized_build() noexcept;

/// `{"optimize":…, "ndebug":…, "hardware_threads":…, "nproc":…,
/// "compiler":…}` — printed before the result line.
std::string environment_json();

/// Exact gate across runs: the first run of (workload, seed, mode) in this
/// output directory stores `digest`; later runs of the same code must
/// reproduce it. Returns false (and explains on stderr) when a stored digest
/// differs.
bool check_digest(const Options& options, const std::string& key,
                  std::uint64_t digest);

/// FNV-1a accumulator used for the deterministic-output digests.
class Digest {
 public:
  void add(std::uint64_t value) noexcept;
  void add(double value) noexcept;
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

}  // namespace perfbench

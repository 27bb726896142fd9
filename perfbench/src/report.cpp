#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Record::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Record::fail(const std::string& reason) {
  correct_ = false;
  std::cerr << "perfbench: FAILED CHECK: " << reason << "\n";
}

std::string Record::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) out << ", ";
    first = false;
    char value[64];
    const double v = std::isfinite(metric.first) ? metric.first : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out << "\"" << name << "\": {\"value\": " << value << ", \"unit\": \""
        << metric.second << "\"}";
  }
  out << "}}";
  return out.str();
}

bool optimized_build() noexcept {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

std::string environment_json() {
#if defined(NDEBUG)
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::ostringstream out;
  out << "{\"optimize\": " << (optimized_build() ? "true" : "false")
      << ", \"ndebug\": " << (ndebug ? "true" : "false")
      << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\"}";
  return out.str();
}

bool check_digest(const Options& options, const std::string& key,
                  std::uint64_t digest) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(options.out_dir) / "digests";
  std::error_code error;
  fs::create_directories(dir, error);
  const fs::path file = dir / (options.workload + "-" +
                               std::to_string(options.seed) + "-" + key);
  std::ifstream in(file);
  std::uint64_t stored = 0;
  if (in >> stored) {
    if (stored != digest) {
      std::cerr << "perfbench: deterministic outputs drifted for " << file
                << ": stored " << stored << ", now " << digest << "\n";
      return false;
    }
    return true;
  }
  std::ofstream(file) << digest << "\n";
  return true;
}

void Digest::add(std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

void Digest::add(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  add(bits);
}

}  // namespace perfbench

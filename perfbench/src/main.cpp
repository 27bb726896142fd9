// agentloc benchmark binary. Usage:
//
//   agentloc_perfbench --workload <paper-knee|sim-scale|wire-mixed>
//                      --seed <n> --seconds <s> --trace <0|1>
//                      --out-dir <dir>
//
// Prints an environment stamp, human-readable progress, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a separate traced run. perfbench/run.py builds this
// binary and checks its output against BENCHMARK.json.

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "report.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* message) {
  std::cerr << "agentloc_perfbench: " << message
            << "\nusage: agentloc_perfbench --workload <paper-knee|sim-scale|"
               "wire-mixed> --seed <n> --seconds <s> --trace <0|1> "
               "--out-dir <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  if (!have_workload) return usage("--workload is required");
  if (options.out_dir.empty()) return usage("--out-dir is required");

  std::cout << "env " << perfbench::environment_json() << std::endl;
  // Wall-clock figures from an unoptimized build compare nothing.
  if (!perfbench::optimized_build()) {
    std::cerr << "agentloc_perfbench: refusing to measure with an "
                 "unoptimized build (configure with -DCMAKE_BUILD_TYPE="
                 "Release)\n";
    return 3;
  }
  std::error_code error;
  std::filesystem::create_directories(options.out_dir, error);

  // The library's warnings (gave-up registrations near the knee) are part
  // of the measured behaviour, not diagnostics of the benchmark.
  agentloc::util::Logger::instance().set_sink(
      [](agentloc::util::LogLevel, std::string_view) {});
  perfbench::Record record;
  try {
    if (options.workload == "paper-knee" || options.workload == "sim-scale") {
      perfbench::run_sim_workload(options, record);
    } else if (options.workload == "wire-mixed") {
      perfbench::run_wire_workload(options, record);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "agentloc_perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cout << record.json() << std::endl;
  return 0;
}

#pragma once

#include "report.hpp"

namespace perfbench {

/// `paper-knee` and `sim-scale`: the simulated mechanism through
/// `workload::run_experiment`, one call per replication seed, or (traced)
/// through the span-instrumented replica of it checked bit-identical
/// against it.
void run_sim_workload(const Options& options, Record& record);

/// `wire-mixed`: in-process `LocateServer` + one open-loop `LocateClient`.
void run_wire_workload(const Options& options, Record& record);

}  // namespace perfbench

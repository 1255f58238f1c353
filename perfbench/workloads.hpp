// The benchmark's workloads, run through the library's public API.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed host-clock window
  bool trace = false;     ///< per-layer run instead of the end-to-end run
};

struct RunResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;  ///< timed training iterations
  uint64_t failed = 0;     ///< of those, iterations that threw OomError
  std::vector<Check> checks;
};

const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunArgs& args);

}  // namespace perfbench

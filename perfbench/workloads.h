// The benchmark's three workloads. Each builds its inputs from the seed,
// measures for the requested time, checks the program's outputs, and
// returns its end-to-end metrics (untraced runs) or per-layer metrics
// (traced runs). README.md in this directory says why each one exists.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for journals (inside the checkout).
  std::string work_dir;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet end_to_end;
  MetricSet per_layer;
  /// Workload facts for the provenance line (population, thread counts...).
  std::vector<std::pair<std::string, std::string>> facts;
  /// Failed correctness checks, one line each.
  std::vector<std::string> problems;

  void fail(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
};

/// sweep_cold (rtt = false) and sweep_rtt (rtt = true).
Outcome run_sweep(const Options& opt, bool rtt);
/// follow_serve.
Outcome run_follow_serve(const Options& opt);

}  // namespace perfbench

// The Proxion benchmark program. Usage:
//
//   perfbench --workload <sweep_cold|sweep_rtt|follow_serve> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//             [--git-rev <rev>] [--git-dirty <0|1>]
//
// It prints a provenance line, the workload's own report lines, every
// metric by name with its unit, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs carry the
// end-to-end metrics, traced runs the per-layer ones. The exit code is 1
// when a correctness check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "crypto/keccak.h"
#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

bool parse(int argc, char** argv, perfbench::Options& opt, std::string& rev,
           std::string& dirty) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--work-dir") {
      opt.work_dir = v;
    } else if (arg == "--git-rev") {
      rev = v;
    } else if (arg == "--git-dirty") {
      dirty = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (opt.workload != "sweep_cold" && opt.workload != "sweep_rtt" &&
      opt.workload != "follow_serve") {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return false;
  }
  return opt.seconds > 0;
}

bool optimised_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.work_dir = ".";
  std::string rev = "unknown";
  std::string dirty = "unknown";
  if (!parse(argc, argv, opt, rev, dirty)) return 2;

  if (!optimised_build()) {
    std::printf("WARNING: non-optimised build (%s); numbers are not "
                "comparable with an optimised build\n",
                PERFBENCH_BUILD_TYPE);
  }
  std::fflush(stdout);

  perfbench::Outcome out = opt.workload == "follow_serve"
                               ? perfbench::run_follow_serve(opt)
                               : perfbench::run_sweep(
                                     opt, opt.workload == "sweep_rtt");

  using perfbench::json_str;
  std::string prov = "{";
  auto field = [&prov](const std::string& k, const std::string& v) {
    if (prov.size() > 1) prov += ", ";
    prov += json_str(k) + ": " + json_str(v);
  };
  field("workload", opt.workload);
  field("seed", std::to_string(opt.seed));
  field("seconds", std::to_string(opt.seconds));
  field("trace", opt.trace ? "1" : "0");
  field("git_rev", rev);
  field("git_dirty", dirty);
  field("nproc", std::to_string(std::thread::hardware_concurrency()));
  field("cpu_model", perfbench::cpu_model());
  field("build_type", PERFBENCH_BUILD_TYPE);
  field("optimised", optimised_build() ? "yes" : "NO");
  field("keccak_backend", proxion::crypto::keccak_batch_backend());
  field("work_dir_fs", perfbench::filesystem_of(opt.work_dir));
  for (const auto& [k, v] : out.facts) field(k, v);
  prov += "}";
  std::printf("provenance %s\n", prov.c_str());

  const perfbench::MetricSet& metrics =
      opt.trace ? out.per_layer : out.end_to_end;
  if (opt.trace) out.end_to_end.print_lines("end-to-end (traced run):");
  metrics.print_lines(opt.trace ? "per-layer:" : "end-to-end:");
  for (const std::string& p : out.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics.json().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

// Single-threaded per-layer replay: times direct calls into each layer's
// public functions over the same chain and inputs a workload swept. It is
// the traced run's third source of per-layer numbers, next to the archive
// and filesystem wrappers and the program's own counters; its busy times
// are printed beside the workload's CPU time for the same unit of work, so
// the share that no layer accounts for shows.
#pragma once

#include <vector>

#include "chain/blockchain.h"
#include "core/pipeline.h"
#include "sourcemeta/source.h"

namespace perfbench {

struct ReplayTimes {
  double code_hash_ms = 0;     // crypto::keccak256 over every fetched blob
  double disassemble_ms = 0;   // evm::Disassembly per unique blob
  double triage_ms = 0;        // static_analysis::analyze per unique blob
  double layout_ms = 0;        // static_analysis::infer_layout per unique blob
  double detect_ms = 0;        // ProxyDetector::analyze_code per unique blob
  double logic_finder_ms = 0;  // LogicFinder::find per proxy
  double collision_ms = 0;     // both collision detectors per unique pair
  double publish_ms = 0;       // QueryService::apply_records + publish
  double render_us_p50 = 0;    // QueryService::contract_endpoint
  std::size_t contracts = 0;
  std::size_t unique_blobs = 0;
  std::size_t proxies = 0;
  std::size_t unique_pairs = 0;

  /// Busy time of the sweep-side layers (everything but the serve calls).
  double sweep_busy_s() const noexcept {
    return (code_hash_ms + disassemble_ms + triage_ms + layout_ms +
            detect_ms + logic_finder_ms + collision_ms) /
           1000.0;
  }
  /// Multiplies the sweep-side times by `f`.
  void scale_sweep(double f) noexcept;
};

/// Times the sweep-side layers over `inputs`, using `reports` (a finished
/// sweep of the same inputs) for the proxy set and the logic histories.
/// Disassembly, triage and layout go through one core::AnalysisCache, each
/// in its own timed block, and the detectors share that cache, as the
/// pipeline's do: so detect_ms is emulation and classification only, and
/// no layer's work is counted twice.
void replay_sweep_layers(ReplayTimes& t, proxion::chain::Blockchain& chain,
                         const proxion::sourcemeta::SourceRepository* sources,
                         const std::vector<proxion::core::SweepInput>& inputs,
                         const std::vector<proxion::core::ContractAnalysis>&
                             reports);

/// Times QueryService::apply_records + publish of a snapshot of all of
/// `reports`, and contract_endpoint renders over a sample of `inputs`.
void replay_serve_layers(ReplayTimes& t, proxion::chain::Blockchain& chain,
                         const std::vector<proxion::core::SweepInput>& inputs,
                         const std::vector<proxion::core::ContractAnalysis>&
                             reports);

}  // namespace perfbench

// The record-level oracle of the durable-sweep tests: every contract's
// last-wins journal record, read the way DurableSweep::incremental() reads
// the journal, compared record for record against a reference journal or a
// cold pipeline run. Aggregates can agree while single records differ (a
// dedup flag here, a probe selector there); this cannot.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "store/journal.h"
#include "store/records.h"
#include "util/vfs.h"

namespace proxion::test {

/// A fresh journal path under the system temp directory (any old journal
/// and manifest there are removed).
inline std::string temp_journal(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "proxion_sweep_tests";
  fs::create_directories(dir);
  const fs::path p = dir / name;
  fs::remove(p);
  fs::remove(store::manifest_path_for(p.string()));
  return p.string();
}

/// Last-wins records keyed by contract address (hex).
using RecordMap = std::map<std::string, store::ContractRecord>;

inline RecordMap last_wins_records(const std::string& path,
                                   util::Vfs& vfs = util::Vfs::real()) {
  RecordMap out;
  const auto replay =
      store::read_journal(path, vfs, store::ReplayOptions{.salvage = true});
  if (!replay) return out;
  for (const store::JournalFrame& frame : replay->frames) {
    if (frame.type != store::RecordType::kContract) continue;
    if (auto rec = store::decode_contract_record(frame.payload)) {
      std::string key = rec->analysis.address.to_hex();
      out[std::move(key)] = std::move(*rec);
    }
  }
  return out;
}

/// Addresses whose records are not byte-equal once encoded, or that only
/// one side holds.
inline std::vector<std::string> record_diffs(const RecordMap& got,
                                             const RecordMap& want) {
  std::vector<std::string> diffs;
  for (const auto& [address, rec] : got) {
    const auto it = want.find(address);
    if (it == want.end() || store::encode_contract_record(rec) !=
                                store::encode_contract_record(it->second)) {
      diffs.push_back(address);
    }
  }
  for (const auto& [address, rec] : want) {
    if (!got.contains(address)) diffs.push_back(address);
  }
  return diffs;
}

/// Addresses whose journaled report differs from a run's report (or that
/// the journal lacks), plus journaled addresses the run did not cover.
/// `same_head` = false skips LogicHistory::api_calls: after the chain grew,
/// a replayed record keeps the probe count of the head it was analyzed at,
/// while a cold run bisects the longer range (the verdict and the history
/// itself must still match).
inline std::vector<std::string> report_diffs(
    const RecordMap& got, const std::vector<core::ContractAnalysis>& want,
    bool same_head = true) {
  std::vector<std::string> diffs;
  for (const core::ContractAnalysis& report : want) {
    const std::string address = report.address.to_hex();
    const auto it = got.find(address);
    if (it == got.end()) {
      diffs.push_back(address);
      continue;
    }
    core::ContractAnalysis journaled = it->second.analysis;
    if (!same_head) {
      journaled.logic_history.api_calls = report.logic_history.api_calls;
    }
    if (!(journaled == report)) diffs.push_back(address);
  }
  if (got.size() != want.size()) diffs.push_back("(record count)");
  return diffs;
}

}  // namespace proxion::test

// Upgrade-induced storage drift (§2.3): "Upgrading the logic contract to
// newer versions that change the order or types of variables also
// facilitates storage collisions." Given a proxy's full logic history
// (Algorithm 1), this detector compares the inferred storage layout of each
// logic version against its successor and flags slots whose typed byte ranges
// changed across the upgrade — data written by vN is reinterpreted by vN+1.
#pragma once

#include <cstdint>
#include <vector>

#include "core/logic_finder.h"
#include "evm/host.h"
#include "evm/types.h"

namespace proxion::core {

struct DriftFinding {
  std::size_t from_version = 0;  // index into the logic history
  std::size_t to_version = 0;
  evm::U256 slot;
  std::uint8_t old_offset = 0, old_width = 32;
  std::uint8_t new_offset = 0, new_width = 32;
  /// The slot was actually written under the old version (live data is at
  /// risk, not just a theoretical remapping).
  bool old_version_wrote = false;
};

struct UpgradeDriftResult {
  std::vector<DriftFinding> findings;
  bool has_drift() const noexcept { return !findings.empty(); }
};

class UpgradeDriftDetector {
 public:
  explicit UpgradeDriftDetector(evm::Host& state) : state_(state) {}

  /// Compares each consecutive pair of logic versions in the history.
  UpgradeDriftResult analyze(const Address& proxy,
                             const LogicHistory& history);

 private:
  evm::Host& state_;
};

}  // namespace proxion::core

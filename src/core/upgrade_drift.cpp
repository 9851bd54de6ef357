#include "core/upgrade_drift.h"

#include "static/layout.h"

namespace proxion::core {

UpgradeDriftResult UpgradeDriftDetector::analyze(const Address& /*proxy*/,
                                                 const LogicHistory& history) {
  UpgradeDriftResult result;
  if (history.logic_addresses.size() < 2) return result;

  std::vector<static_analysis::StorageLayout> layouts;
  layouts.reserve(history.logic_addresses.size());
  for (const Address& logic : history.logic_addresses) {
    const evm::Disassembly dis(state_.get_code(logic));
    layouts.push_back(static_analysis::infer_layout(dis));
  }

  for (std::size_t v = 0; v + 1 < layouts.size(); ++v) {
    for (const static_analysis::LayoutMember& old_view : layouts[v].members) {
      // A slot the new version abandons is stale, not drift: only views the
      // new version still has on the slot can conflict.
      for (const static_analysis::LayoutMember& new_view :
           layouts[v + 1].members_at(old_view.slot)) {
        // Drift: a byte range the new version uses overlaps an old range but
        // is typed differently.
        if (!old_view.overlaps(new_view) || old_view.same_range(new_view)) {
          continue;
        }
        DriftFinding finding;
        finding.from_version = v;
        finding.to_version = v + 1;
        finding.slot = old_view.slot;
        finding.old_offset = old_view.offset;
        finding.old_width = old_view.width;
        finding.new_offset = new_view.offset;
        finding.new_width = new_view.width;
        finding.old_version_wrote = old_view.written;
        result.findings.push_back(finding);
      }
    }
  }
  return result;
}

}  // namespace proxion::core

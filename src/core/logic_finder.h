// Finding every logic contract ever associated with a proxy (§4.3,
// Algorithm 1): a binary-partition search over blockchain history that
// queries the archive node's getStorageAt only where the slot value changes,
// needing ~log2(blocks) * upgrades calls instead of one call per block.
//
// The search runs breadth-first, and across proxies: find_many advances the
// searches of many proxies in lockstep, and each round every unfinished
// proxy puts its uncached endpoints into one shared get_storage_at_many
// batch (split at kMaxStorageBatch items, never inside one proxy's round).
// Against a remote archive a sweep then pays one round trip per bisection
// level of the deepest proxy, not one per level per proxy. Per proxy, the
// probe set, api_calls and the resulting LogicHistory are identical to the
// recursive formulation, whatever else shares the batch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <vector>

#include "chain/archive_node.h"
#include "core/proxy_detector.h"
#include "evm/types.h"

namespace proxion::core {

struct LogicHistory {
  /// Every distinct logic address ever stored in the slot, in first-seen
  /// (block) order. Excludes the zero address (uninitialized slot).
  std::vector<Address> logic_addresses;
  /// Number of upgrade events (value transitions between distinct non-zero
  /// addresses) — Figure 6's metric.
  std::uint64_t upgrade_events = 0;
  /// getStorageAt calls this search consumed (§6.1 reports ~26 per proxy).
  std::uint64_t api_calls = 0;

  friend bool operator==(const LogicHistory&, const LogicHistory&) = default;
};

/// Most probes one get_storage_at_many batch carries: geth's default
/// --rpc.batch-request-limit, which a node answers with an error above it.
/// A fixed protocol limit, not a tuning knob: below it a bigger batch only
/// saves round trips.
inline constexpr std::size_t kMaxStorageBatch = 1000;

/// One proxy's search in a find_many call: the proxy and its verdict in,
/// then either `history` or `error` out.
struct LogicJob {
  Address proxy;
  const ProxyReport* report = nullptr;
  LogicHistory history;
  /// The RpcError that failed this proxy's own probes; null on success.
  std::exception_ptr error;
};

class LogicFinder {
 public:
  /// `node` answers every batch that carries one proxy's probes. `shared`,
  /// if given, answers the batches that carry several proxies' probes; pass
  /// the archive stack below its retry layer (see find_many).
  explicit LogicFinder(const chain::IArchiveNode& node,
                       const chain::IArchiveNode* shared = nullptr)
      : node_(node), shared_(shared != nullptr ? *shared : node) {}

  /// Runs Algorithm 1 for the proxy's logic slot between the genesis block
  /// and the latest block. For hard-coded (EIP-1167) proxies the history is
  /// the single embedded address, with zero API calls. find_many of one job;
  /// throws the job's RpcError.
  LogicHistory find(const Address& proxy, const ProxyReport& report) const;

  /// Runs find for every job, batching each bisection round across all of
  /// them. Thread-safe; one finder may serve many concurrent calls.
  ///
  /// Faults stay per proxy. A shared batch goes to `shared` once; if it
  /// fails (RpcError), each proxy in it re-sends its own batch through
  /// `node`, so only proxies whose own probes fail get an `error`. The
  /// finder then sends one batch per proxy for the rest of its life: with a
  /// faulty probe about, a shared batch mostly fails, and retrying it whole
  /// would feed the circuit breaker runs of failures that one batch per
  /// proxy never causes.
  void find_many(std::span<LogicJob> jobs) const;

  /// The naive strawman: query every block in range. Used by the ablation
  /// bench to demonstrate Algorithm 1's savings.
  LogicHistory find_naive(const Address& proxy, const U256& slot) const;

 private:
  const chain::IArchiveNode& node_;
  const chain::IArchiveNode& shared_;
  /// Cleared by the first failed shared batch.
  mutable std::atomic<bool> share_{true};
};

}  // namespace proxion::core

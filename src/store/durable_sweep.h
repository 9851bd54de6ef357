// The durable sharded sweep driver: converts AnalysisPipeline's batch
// run() into a restartable streaming system. It partitions the population
// into code-hash-affine shards, runs each through the pipeline, flushes the
// per-contract results to the checkpoint journal (journal.h), and frees the
// pipeline's cross-run memos between shards so peak memory is O(shard), not
// O(population). Two entry points:
//
//   run()         — fresh sweep into a new (truncated) journal
//   incremental() — continue from the journal, whatever cut it short or
//                   changed since: reuse each healthy record whose (code
//                   hash, impl-slot head) fingerprint still matches the
//                   chain, re-analyze the rest — missing (a crash, a torn
//                   tail, bit rot), quarantined, new or changed contracts
//                   (upgraded proxies skip Phase A emulation via a seeded
//                   verdict and re-run the pair phase only)
//
// Bit-identity with a monolithic pipeline.run() over the same inputs rests
// on three invariants this driver maintains:
//   1. shards are code-hash-affine with hash groups in first-occurrence
//      order, so a group's dedup representative is the same global-first
//      contract a monolithic run picks;
//   2. the §7.1 source-donor map is computed over the WHOLE population and
//      injected as an overlay, so a shard resolves the same donors a
//      monolithic run would even when a logic blob's donor lives in another
//      shard;
//   3. incremental() decides per contract, yet a partial group converges:
//      a healthy record is final (a group whose first member cannot be
//      fetched is quarantined whole, so no stand-in representative's
//      verdict is ever journaled as healthy), and a member re-run while its
//      group's first member replays is journaled as a dedup clone, its
//      Phase A verdict seeded from a same-code record with the slot head
//      re-read at its own address — exactly what a fresh run gives it.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "chain/blockchain.h"
#include "core/pipeline.h"
#include "obs/eventlog.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sourcemeta/source.h"
#include "store/journal.h"
#include "store/records.h"

namespace proxion::store {

struct DurableSweepConfig {
  /// Checkpoint journal path; the manifest lives at `<path>.manifest`.
  std::string journal_path = "sweep.journal";
  /// Target contracts per shard. Hash groups are never split, so a shard
  /// can exceed this by one group's size minus one (the documented
  /// shard-slack); a group larger than the target gets a shard to itself.
  /// 0 = one shard for everything (degenerates to a monolithic run + one
  /// commit).
  std::size_t shard_size = 1024;
  /// Stop (journal committed, sweep incomplete) after this many shards;
  /// 0 = no limit. This is the deterministic stand-in for `kill -9` in the
  /// crash-recovery tests and benches — the on-disk state is the same one a
  /// crash after the Nth commit leaves behind.
  std::size_t max_shards = 0;
  /// Drop the pipeline's cross-run memos between shards (the bounded-memory
  /// contract). Off trades memory back for cross-shard cache hits.
  bool shed_between_shards = true;
  /// Metrics sink for the store.journal.* / store.sweep.* counters and the
  /// flush-latency histogram. Null = obs::Registry::global().
  obs::Registry* registry = nullptr;
  /// Filesystem behind the journal + manifest. Null = the real filesystem;
  /// the chaos harness injects a util::FaultInjectingVfs here.
  util::Vfs* vfs = nullptr;
  /// When the disk gives out mid-sweep (ENOSPC, persistent write failure,
  /// failed fsync), keep sweeping IN MEMORY instead of aborting: verdicts
  /// stay complete and correct, checkpointing stops at the last good shard
  /// commit, and the result reports degraded=true + the first disk error.
  /// Off restores the old abort-with-error behavior.
  bool degrade_on_disk_failure = true;
  /// Structured event sink (borrowed). When set, operational lines —
  /// degraded-mode entry, journal self-heal, torn-tail drop, shard commits —
  /// are emitted here INSTEAD of the ad-hoc stderr fprintf. Null keeps the
  /// stderr fallback for degraded-mode entry (that line is operationally
  /// load-bearing and must go somewhere).
  obs::EventLog* event_log = nullptr;
  /// Live progress block for /healthz (borrowed): shards committed vs
  /// total, journal bytes, degraded flag. Null = no publishing.
  obs::SweepStatus* status = nullptr;
  /// Commit→publish hook for the serving plane: invoked on the sweeping
  /// thread with each batch of final records — once with the journal-
  /// replayed set before any shard runs, then once per shard as it commits
  /// (in degraded mode, as it completes in memory; verdicts stay valid when
  /// the disk does not). The span is borrowed for the duration of the call.
  /// Null = no publishing. The query plane's QueryService::apply_records is
  /// the intended consumer.
  std::function<void(std::span<const ContractRecord>)> record_sink;
};

struct DurableSweepResult {
  core::LandscapeStats stats;
  /// Shards executed by THIS call (not counting journal-replayed shards).
  std::uint64_t shards_run = 0;
  /// Contracts whose reports came from the journal, zero pipeline work.
  std::uint64_t replayed = 0;
  /// Contracts run through the pipeline by this call.
  std::uint64_t recomputed = 0;
  /// True when the whole population is covered (kSweepEnd journaled, or
  /// swept in memory under degraded mode).
  /// False after a max_shards stop — call incremental() to finish.
  bool complete = false;
  /// The disk failed mid-sweep and degrade_on_disk_failure carried the
  /// sweep to completion in memory: stats/verdicts are valid, but work
  /// after the last good shard commit is not checkpointed (a later
  /// incremental() recomputes it).
  bool degraded = false;
  /// First disk failure (kind kDiskIo, errno detail in the text) — set
  /// whenever `degraded` is true or `error` names a journal failure.
  std::optional<core::ErrorRecord> disk_error;
  /// Non-empty on journal I/O failure with degradation disabled; stats are
  /// then meaningless.
  std::string error;
};

class DurableSweep {
 public:
  /// `pipeline` and `chain` must outlive the driver; `sources` may be null
  /// (it feeds the global §7.1 donor overlay and must be the same
  /// repository the pipeline was built with). The driver is the journal's
  /// single writer; one sweep call runs at a time.
  DurableSweep(core::AnalysisPipeline& pipeline, chain::Blockchain& chain,
               const sourcemeta::SourceRepository* sources,
               DurableSweepConfig config);

  /// Fresh sweep: creates/truncates the journal and sweeps `inputs`.
  DurableSweepResult run(const std::vector<core::SweepInput>& inputs);

  /// Continues from the journal against a possibly-mutated chain — after a
  /// crash or max_shards stop, a disk failure, an outage that quarantined
  /// contracts, or new blocks. Replays the journal's valid frames (salvaging
  /// around bit rot, last record per address wins); a journaled contract is
  /// reused iff its record is healthy, its code hash matches the chain's
  /// current code AND (for storage-slot proxies) its implementation-slot
  /// head is unchanged. Contracts with a healthy same-code record re-enter
  /// the pipeline with their Phase A verdict pre-seeded, so only
  /// logic-history + pair collision work is redone; the rest re-analyze in
  /// full. A missing journal degrades to run().
  DurableSweepResult incremental(const std::vector<core::SweepInput>& inputs);

 private:
  enum class Mode { kFresh, kIncremental };

  /// One code-hash group: member input indices in input order (the first is
  /// the global dedup representative).
  struct Group {
    crypto::Hash256 hash{};
    std::vector<std::size_t> members;
  };

  /// A Phase-A verdict to pre-seed before the owning shard runs (built from
  /// the journaled report, slot head already patched to current chain
  /// state).
  struct Seed {
    crypto::Hash256 hash{};
    evm::Address representative;
    core::ProxyReport report;
  };

  /// What a sweep call decided to do with each contract: journal-reused
  /// records (fed straight to the accumulator) vs groups with members to
  /// recompute (a group's reusable members stay in `replayed`).
  struct Plan {
    std::vector<ContractRecord> replayed;
    std::vector<Group> rerun_groups;
    std::uint64_t prior_shards = 0;  // shard commits already journaled
  };

  DurableSweepResult sweep(const std::vector<core::SweepInput>& inputs,
                           Mode mode);

  core::AnalysisPipeline& pipeline_;
  chain::Blockchain& chain_;
  const sourcemeta::SourceRepository* sources_;
  DurableSweepConfig config_;
  obs::Registry& metrics_;
};

}  // namespace proxion::store

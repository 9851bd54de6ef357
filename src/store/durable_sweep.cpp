#include "store/durable_sweep.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/report.h"

namespace proxion::store {

namespace {

using core::ContractAnalysis;
using core::SweepInput;
using evm::Address;
using evm::U256;

struct HashKey {
  std::size_t operator()(const crypto::Hash256& h) const noexcept {
    std::size_t out = 0;
    for (std::size_t i = 0; i < sizeof(out); ++i) out = (out << 8) | h[i];
    return out;
  }
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Adds one shard run's per-run figures (what annotate_run_stats reports for
/// the last run alone) into `sum`.
void add_run_figures(core::LandscapeStats& sum,
                     const core::LandscapeStats& run) {
  sum.phase_fetch_ms += run.phase_fetch_ms;
  sum.phase_proxy_ms += run.phase_proxy_ms;
  sum.phase_pairs_ms += run.phase_pairs_ms;
  sum.pair_cache_hits += run.pair_cache_hits;
  sum.pair_cache_misses += run.pair_cache_misses;
  sum.pair_cache_waits += run.pair_cache_waits;
  sum.get_storage_at_calls += run.get_storage_at_calls;
  sum.rpc_retries += run.rpc_retries;
  sum.rpc_faults += run.rpc_faults;
  sum.rpc_giveups += run.rpc_giveups;
  sum.breaker_trips += run.breaker_trips;
}

/// Low-160-bit mask: how the EVM (and Phase B's dedup re-read) turns a
/// storage word into an address.
Address masked_head(const U256& word) {
  return Address::from_word(word & ((U256{1} << U256{160}) - U256{1}));
}

}  // namespace

DurableSweep::DurableSweep(core::AnalysisPipeline& pipeline,
                           chain::Blockchain& chain,
                           const sourcemeta::SourceRepository* sources,
                           DurableSweepConfig config)
    : pipeline_(pipeline),
      chain_(chain),
      sources_(sources),
      config_(std::move(config)),
      metrics_(config_.registry != nullptr ? *config_.registry
                                           : obs::Registry::global()) {}

DurableSweepResult DurableSweep::run(const std::vector<SweepInput>& inputs) {
  return sweep(inputs, Mode::kFresh);
}

DurableSweepResult DurableSweep::incremental(
    const std::vector<SweepInput>& inputs) {
  return sweep(inputs, Mode::kIncremental);
}

DurableSweepResult DurableSweep::sweep(const std::vector<SweepInput>& inputs,
                                       Mode mode) {
  DurableSweepResult result;
  util::Vfs& vfs = config_.vfs != nullptr ? *config_.vfs : util::Vfs::real();
  // The degraded gauge starts clean (a prior degraded sweep on the same
  // registry must not leak into this one's report).
  metrics_.gauge("sweep.degraded").set(0);
  if (config_.status != nullptr) {
    config_.status->degraded.store(false, std::memory_order_relaxed);
  }

  // ---- fingerprint the population ---------------------------------------
  // One code fetch + keccak per input; the blob is dropped immediately, so
  // this phase holds 32 bytes per contract — population *metadata* may be
  // O(N), it is the per-contract artifacts that must stay O(shard).
  std::vector<crypto::Hash256> hashes(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    hashes[i] = evm::code_hash(chain_.code_at(inputs[i].address));
  }

  // ---- hash-affine grouping (first-occurrence order) --------------------
  std::vector<Group> groups;
  {
    std::unordered_map<crypto::Hash256, std::size_t, HashKey> index_of;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto [it, inserted] = index_of.try_emplace(hashes[i], groups.size());
      if (inserted) groups.push_back(Group{hashes[i], {}});
      groups[it->second].members.push_back(i);
    }
  }

  // ---- replay the journal (incremental) ----------------------------------
  // Last-wins per address: a record appended by a later incremental pass
  // supersedes the original.
  std::unordered_map<Address, ContractRecord, evm::AddressHasher> records;
  std::uint64_t prior_shards = 0;
  bool journal_present = false;
  std::uint64_t heal_gaps = 0;
  if (mode == Mode::kIncremental) {
    // Salvage replay: a bit-rotted region mid-journal loses only the
    // records it physically destroyed — valid frames past it still count.
    // The destroyed records simply come up missing below and get
    // recomputed: that IS the self-heal, scoped to the damage.
    if (std::optional<JournalReplay> replay = read_journal(
            config_.journal_path, vfs, ReplayOptions{.salvage = true})) {
      journal_present = true;
      heal_gaps = replay->corrupt_gaps;
      metrics_.counter("store.journal.frames_replayed").add(replay->frames.size());
      metrics_.counter("store.journal.crc_failures").add(replay->crc_failures);
      metrics_.counter("store.journal.corrupt_gaps").add(replay->corrupt_gaps);
      if (replay->tail_dropped) {
        metrics_.counter("store.journal.truncated_tails").add(1);
      }
      if (config_.event_log != nullptr) {
        if (replay->corrupt_gaps > 0) {
          config_.event_log->emit(
              obs::Severity::kWarn, "sweep",
              "journal self-heal: salvaged around " +
                  std::to_string(replay->corrupt_gaps) +
                  " corrupt region(s); damaged records will recompute");
        }
        if (replay->tail_dropped) {
          config_.event_log->emit(
              obs::Severity::kWarn, "sweep",
              "journal torn tail dropped (power-cut mid-append); "
              "uncommitted records will recompute");
        }
      }
      for (const JournalFrame& frame : replay->frames) {
        switch (frame.type) {
          case RecordType::kContract:
            if (std::optional<ContractRecord> rec =
                    decode_contract_record(frame.payload)) {
              records[rec->analysis.address] = std::move(*rec);
            }
            break;
          case RecordType::kShardCommit:
            if (decode_shard_commit(frame.payload)) ++prior_shards;
            break;
          case RecordType::kSweepBegin:
          case RecordType::kSweepEnd:
            break;
        }
      }
    }
  }
  const bool fresh = !journal_present;

  // ---- plan: replay vs recompute per contract ---------------------------
  std::uint64_t upgraded = 0;
  Plan plan;
  plan.prior_shards = prior_shards;
  std::unordered_set<std::size_t> dedup_patch;
  std::unordered_map<crypto::Hash256, Seed, HashKey> seeds;
  if (fresh) {
    plan.rerun_groups = groups;
  } else {
    for (const Group& group : groups) {
      // Per-member disposition against the journaled fingerprints.
      std::vector<std::size_t> rerun;
      std::vector<const ContractRecord*> keep;
      for (const std::size_t i : group.members) {
        const auto it = records.find(inputs[i].address);
        const ContractRecord* rec = it == records.end() ? nullptr : &it->second;
        const bool healthy = rec != nullptr && !rec->analysis.error &&
                             rec->code_hash == hashes[i];
        bool reusable = healthy;
        if (healthy &&
            rec->analysis.proxy.logic_source == core::LogicSource::kStorageSlot) {
          // Same code, but has the implementation slot moved? The journaled
          // logic_address IS the masked head at analysis time.
          const Address head = masked_head(chain_.get_storage(
              inputs[i].address, rec->analysis.proxy.logic_slot));
          if (head != rec->analysis.proxy.logic_address) {
            reusable = false;
            ++upgraded;
          }
        }
        if (reusable) {
          keep.push_back(rec);
        } else {
          rerun.push_back(i);
        }
      }
      for (const ContractRecord* rec : keep) plan.replayed.push_back(*rec);
      if (rerun.empty()) continue;
      if (group.members.front() != rerun.front()) {
        // The group's global-first representative was replayed; everything
        // re-run here must journal as a dedup clone or the unique-codehash
        // count would double.
        for (const std::size_t i : rerun) dedup_patch.insert(i);
      }
      // Seed Phase A from any healthy same-code record so unchanged
      // bytecode is never re-emulated; patch slot-read fields to the
      // sub-run representative's CURRENT head, exactly as Phase B's dedup
      // re-read would.
      const ContractRecord* donor = nullptr;
      for (const std::size_t i : group.members) {
        const auto it = records.find(inputs[i].address);
        if (it != records.end() && !it->second.analysis.error &&
            it->second.code_hash == group.hash) {
          donor = &it->second;
          break;
        }
      }
      if (donor != nullptr) {
        Seed seed;
        seed.hash = group.hash;
        seed.representative = inputs[rerun.front()].address;
        seed.report = donor->analysis.proxy;
        if (seed.report.logic_source == core::LogicSource::kStorageSlot) {
          seed.report.logic_address = masked_head(chain_.get_storage(
              seed.representative, seed.report.logic_slot));
        }
        seeds.emplace(group.hash, std::move(seed));
      }
      plan.rerun_groups.push_back(Group{group.hash, std::move(rerun)});
    }
  }

  metrics_.counter("store.sweep.contracts_upgraded").add(upgraded);

  // ---- open the journal -------------------------------------------------
  // On any disk failure from here on, `degrade` either flips the sweep
  // into in-memory degraded mode (drop the writer, keep analyzing, report
  // the cause) or — with degradation disabled — asks the caller to abort.
  auto degrade = [&](const IoResult& why) -> bool /*keep going*/ {
    if (!result.disk_error) {
      result.disk_error = core::ErrorRecord{core::ErrorKind::kDiskIo,
                                            "journal", why.message()};
    }
    if (!config_.degrade_on_disk_failure) return false;
    if (!result.degraded) {
      result.degraded = true;
      metrics_.gauge("sweep.degraded").set(1);
      if (config_.status != nullptr) {
        config_.status->degraded.store(true, std::memory_order_relaxed);
      }
      if (config_.event_log != nullptr) {
        config_.event_log->emit(
            obs::Severity::kError, "sweep",
            "degraded to in-memory mode: " + why.message());
      } else {
        // No structured sink wired: this line is operationally load-bearing
        // (checkpointing just silently stopped), so stderr keeps it.
        std::fprintf(stderr,
                     "proxion: durable sweep degraded to in-memory mode: %s\n",
                     why.message().c_str());
      }
    }
    return true;
  };
  IoResult open_why;
  std::optional<JournalWriter> writer =
      fresh ? JournalWriter::create(config_.journal_path, vfs, &open_why)
            : JournalWriter::open_append(config_.journal_path, vfs, &open_why);
  if (!writer) {
    if (!degrade(open_why)) {
      result.error = "cannot open checkpoint journal: " + config_.journal_path +
                     " (" + open_why.message() + ")";
      return result;
    }
  }
  if (writer && fresh) {
    const std::vector<std::uint8_t> begin = encode_sweep_begin(
        {inputs.size(), static_cast<std::uint64_t>(config_.shard_size)});
    if (IoResult r = writer->append(RecordType::kSweepBegin, begin); !r) {
      if (!degrade(r)) {
        result.error = "journal append failed: " + r.message();
        return result;
      }
      writer.reset();
    }
  }

  // ---- global §7.1 donor overlay ----------------------------------------
  // Built over the WHOLE population so every shard resolves the same donors
  // a monolithic run would (first verified address per code hash wins).
  {
    std::vector<std::pair<crypto::Hash256, Address>> donors;
    if (sources_ != nullptr) {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (sources_->has_source(inputs[i].address)) {
          donors.emplace_back(hashes[i], inputs[i].address);
        }
      }
    }
    pipeline_.set_source_donor_overlay(std::move(donors));
  }

  // ---- pack rerun groups into shards (groups are atomic) ----------------
  std::vector<std::vector<const Group*>> shards;
  for (const Group& group : plan.rerun_groups) {
    std::size_t current = 0;
    if (!shards.empty()) {
      for (const Group* g : shards.back()) current += g->members.size();
    }
    if (shards.empty() || (config_.shard_size > 0 && current >= config_.shard_size)) {
      shards.emplace_back();
    }
    shards.back().push_back(&group);
  }

  // ---- shard-progress exposition ----------------------------------------
  // Totals are known the moment the plan exists; the committed gauge then
  // climbs per shard, so a /metrics scrape mid-sweep reads live progress.
  const std::uint64_t shards_total = plan.prior_shards + shards.size();
  metrics_.gauge("sweep.shards_total")
      .set(static_cast<std::int64_t>(shards_total));
  metrics_.gauge("sweep.shards_committed")
      .set(static_cast<std::int64_t>(plan.prior_shards));
  if (config_.status != nullptr) {
    config_.status->shards_total.store(shards_total,
                                       std::memory_order_relaxed);
    config_.status->shards_committed.store(plan.prior_shards,
                                           std::memory_order_relaxed);
    config_.status->journal_bytes.store(writer ? writer->size_bytes() : 0,
                                        std::memory_order_relaxed);
  }

  // ---- replayed reports feed the aggregates directly --------------------
  core::LandscapeAccumulator acc;
  for (const ContractRecord& rec : plan.replayed) acc.add(rec.analysis);
  result.replayed = plan.replayed.size();
  metrics_.counter("store.sweep.contracts_replayed").add(result.replayed);
  if (config_.record_sink && !plan.replayed.empty()) {
    config_.record_sink(plan.replayed);
  }

  // ---- per-shard streaming loop -----------------------------------------
  core::LandscapeStats sums;
  obs::HistogramSnapshot sum_contract_ns, sum_rpc_ns, sum_steps;
  obs::Histogram& h_flush = metrics_.histogram("store.journal.flush_ns");
  std::uint64_t shard_index = plan.prior_shards;
  // Replayed contracts sit inside the journal's valid prefix, which every
  // manifest written below covers (committed_bytes spans the whole file) —
  // so they count as committed from the first new commit on. Summing the
  // journal's old kShardCommit frames instead would miss records replayed
  // from valid-but-uncommitted tails and double-count re-run groups.
  std::uint64_t contracts_committed = result.replayed;
  bool stopped = false;

  for (const std::vector<const Group*>& shard : shards) {
    if (config_.max_shards != 0 && result.shards_run >= config_.max_shards) {
      stopped = true;
      break;
    }
    std::vector<SweepInput> shard_inputs;
    std::vector<std::size_t> shard_globals;
    for (const Group* group : shard) {
      if (const auto it = seeds.find(group->hash); it != seeds.end()) {
        // Seeded AFTER the previous shard's shed (which empties the verdict
        // memo) and before this run, so it is alive exactly when needed.
        pipeline_.seed_verdict(it->second.hash, it->second.representative,
                               it->second.report);
      }
      for (const std::size_t i : group->members) {
        shard_inputs.push_back(inputs[i]);
        shard_globals.push_back(i);
      }
    }

    std::vector<ContractAnalysis> reports = pipeline_.run(shard_inputs);

    // A group whose first member could not be fetched ran under a stand-in
    // representative, so its other members carry that member's verdict
    // (address-seeded probe, dedup flag), not the one a fault-free run
    // gives them. As when Phase A fails, the first member's quarantine
    // covers the group: a healthy record is then always final, and the
    // next incremental() recomputes the group with the rest of the
    // quarantined set.
    std::size_t group_begin = 0;
    for (const Group* group : shard) {
      const std::size_t group_end = group_begin + group->members.size();
      const std::optional<core::ErrorRecord>& first =
          reports[group_begin].error;
      if (first && first->phase == "fetch") {
        for (std::size_t j = group_begin + 1; j < group_end; ++j) {
          if (!reports[j].error) reports[j].error = first;
        }
      }
      group_begin = group_end;
    }

    // Per-run perf and archive accounting, summed across shards (the
    // pipeline resets its run-scoped histograms/timers, and snapshots its
    // never-reset archive counters, at every run entry).
    core::LandscapeStats shard_annot;
    pipeline_.annotate_run_stats(shard_annot);
    add_run_figures(sums, shard_annot);
    const obs::Registry& preg = pipeline_.registry();
    if (const obs::Histogram* h = preg.find_histogram("sweep.contract_latency_ns")) {
      sum_contract_ns.merge(h->snapshot());
    }
    if (const obs::Histogram* h = preg.find_histogram("sweep.rpc_latency_ns")) {
      sum_rpc_ns.merge(h->snapshot());
    }
    if (const obs::Histogram* h = preg.find_histogram("sweep.emulation_steps")) {
      sum_steps.merge(h->snapshot());
    }

    // Aggregate the shard's reports unconditionally (verdicts are valid
    // even when the disk is not), then flush: contract records, the commit
    // frame, one fsync — the commit frame's presence in the valid prefix
    // implies its records'.
    const std::uint64_t bytes_before = writer ? writer->size_bytes() : 0;
    IoResult io;
    std::vector<ContractRecord> shard_records;
    if (config_.record_sink) shard_records.reserve(reports.size());
    for (std::size_t j = 0; j < reports.size(); ++j) {
      ContractAnalysis& report = reports[j];
      const std::size_t gi = shard_globals[j];
      if (dedup_patch.contains(gi)) report.deduplicated = true;
      acc.add(report);
      if (writer && io.ok) {
        io = writer->append(RecordType::kContract, encode_contract_record(
                                {report, hashes[gi]}));
      }
      if (config_.record_sink) {
        shard_records.push_back(ContractRecord{report, hashes[gi]});
      }
    }
    if (writer && io.ok) {
      io = writer->append(RecordType::kShardCommit,
                          encode_shard_commit({shard_index, reports.size()}));
    }
    if (writer && io.ok) {
      const std::uint64_t t0 = now_ns();
      io = writer->sync();
      h_flush.record(now_ns() - t0);
    }
    if (writer && io.ok) {
      contracts_committed += reports.size();
      Manifest manifest;
      manifest.committed_bytes = writer->size_bytes();
      manifest.shards_committed = shard_index + 1;
      manifest.contracts_committed = contracts_committed;
      IoResult mr =
          store_manifest(manifest_path_for(config_.journal_path), manifest, vfs);
      if (mr.ok) {
        metrics_.counter("store.journal.frames_written").add(reports.size() + 1);
        metrics_.counter("store.journal.bytes_written")
            .add(writer->size_bytes() - bytes_before);
        metrics_.counter("store.sweep.shards_committed").add(1);
        metrics_.gauge("sweep.shards_committed")
            .set(static_cast<std::int64_t>(shard_index + 1));
        if (config_.status != nullptr) {
          config_.status->shards_committed.store(shard_index + 1,
                                                 std::memory_order_relaxed);
          config_.status->journal_bytes.store(writer->size_bytes(),
                                              std::memory_order_relaxed);
        }
        if (config_.event_log != nullptr) {
          config_.event_log->emit(
              obs::Severity::kDebug, "sweep",
              "shard committed (" + std::to_string(reports.size()) +
                  " contracts, " + std::to_string(writer->size_bytes()) +
                  " journal bytes)",
              "shard:" + std::to_string(shard_index));
        }
      } else {
        io = std::move(mr);
      }
    }
    if (writer && !io.ok) {
      // The shard's verdicts are in the aggregates; only its durability is
      // lost. fsyncgate: the writer is already dead for fsync failures —
      // either way it is never touched again.
      if (!degrade(io)) {
        result.error = "journal commit failed for shard " +
                       std::to_string(shard_index) + ": " + io.message();
        return result;
      }
      writer.reset();
    }
    // Publish after the commit attempt: the shard's verdicts are final
    // either way (degraded mode only loses durability, never answers).
    if (config_.record_sink && !shard_records.empty()) {
      config_.record_sink(shard_records);
    }
    metrics_.counter("store.sweep.contracts_recomputed").add(reports.size());
    result.recomputed += reports.size();
    ++result.shards_run;
    ++shard_index;

    // Bounded memory: everything keyed per address/hash goes; the next
    // shard is hash-disjoint, so nothing dropped here would have hit.
    if (config_.shed_between_shards) pipeline_.shed_cross_run_state();
  }

  // ---- finish -----------------------------------------------------------
  // Degraded mode: the population IS fully covered in memory, so the sweep
  // is complete — there is just no kSweepEnd to journal (the checkpoint
  // honestly stops at the last good commit, and incremental() picks up
  // there).
  result.complete = !stopped;
  if (result.complete && writer) {
    IoResult io = writer->append(RecordType::kSweepEnd,
                                 encode_sweep_end({inputs.size()}));
    if (io.ok) io = writer->sync();
    if (io.ok) {
      Manifest manifest;
      manifest.committed_bytes = writer->size_bytes();
      manifest.shards_committed = shard_index;
      manifest.contracts_committed = contracts_committed;
      manifest.complete = true;
      io = store_manifest(manifest_path_for(config_.journal_path), manifest,
                          vfs);
    }
    if (!io.ok) {
      if (!degrade(io)) {
        result.error = "journal finalization failed: " + io.message();
        return result;
      }
      writer.reset();
    }
  }

  core::LandscapeStats stats = acc.take();
  // The pipeline's cache and tracer accounting as it stands; every per-run
  // figure is the sum over this call's shards.
  {
    core::LandscapeStats now;
    pipeline_.annotate_run_stats(now);
    stats.cache = now.cache;
    stats.trace_spans_recorded = now.trace_spans_recorded;
    stats.trace_spans_dropped = now.trace_spans_dropped;
  }
  add_run_figures(stats, sums);
  stats.contract_latency_ns = sum_contract_ns.summary();
  stats.rpc_latency_ns = sum_rpc_ns.summary();
  stats.emulation_steps = sum_steps.summary();
  stats.ms_per_contract =
      result.recomputed > 0
          ? (sums.phase_fetch_ms + sums.phase_proxy_ms + sums.phase_pairs_ms) /
                static_cast<double>(result.recomputed)
          : 0.0;
  stats.sweep_shards = plan.prior_shards + result.shards_run;
  stats.journal_replayed = result.replayed;
  stats.incremental_reanalyzed =
      mode == Mode::kIncremental ? result.recomputed : 0;
  stats.sweep_degraded = result.degraded ? 1 : 0;
  stats.selfheal_shards = heal_gaps;
  result.stats = std::move(stats);
  return result;
}

}  // namespace proxion::store

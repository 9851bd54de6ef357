// The chaos matrix: a durable sweep over the fault-injecting model
// filesystem, power-cut at EVERY mutating-op boundary, then heal + reboot +
// incremental() — asserting every resumed journal record is byte-equal to a
// fault-free run's and that committed work is never recomputed. Plus the
// three targeted disasters: ENOSPC mid-sweep (graceful in-memory
// degradation), fsync failure (fsyncgate fail-stop: the failed file is never
// synced again), and at-rest bit rot in a committed shard (self-heal
// recomputes exactly the damaged record, a group representative or a
// sibling alike).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/report.h"
#include "datagen/population.h"
#include "journal_oracle.h"
#include "obs/metrics.h"
#include "store/durable_sweep.h"
#include "store/journal.h"
#include "store/records.h"
#include "util/vfs_fault.h"

namespace {

using namespace proxion;
using util::FaultInjectingVfs;
using util::FaultVfsConfig;
using util::PowerCutException;

constexpr char kJournal[] = "chaos/sweep.journal";

datagen::Population make_population(std::uint32_t n = 240) {
  datagen::PopulationSpec spec;
  spec.total_contracts = n;
  return datagen::PopulationGenerator().generate(spec);
}

/// The deterministic analysis aggregates (same set test_durable_sweep
/// checks): everything except wall-clock and cache accounting.
void expect_same_verdicts(const core::LandscapeStats& a,
                          const core::LandscapeStats& b) {
  EXPECT_EQ(a.total_contracts, b.total_contracts);
  EXPECT_EQ(a.proxies, b.proxies);
  EXPECT_EQ(a.emulation_errors, b.emulation_errors);
  EXPECT_EQ(a.hidden_proxies, b.hidden_proxies);
  EXPECT_EQ(a.unique_proxy_codehashes, b.unique_proxy_codehashes);
  EXPECT_EQ(a.function_collisions, b.function_collisions);
  EXPECT_EQ(a.storage_collisions, b.storage_collisions);
  EXPECT_EQ(a.exploitable_storage_collisions, b.exploitable_storage_collisions);
  EXPECT_EQ(a.diamonds_recovered, b.diamonds_recovered);
  EXPECT_EQ(a.by_standard, b.by_standard);
  EXPECT_EQ(a.proxies_by_year, b.proxies_by_year);
  EXPECT_EQ(a.function_collisions_by_year, b.function_collisions_by_year);
  EXPECT_EQ(a.storage_collisions_by_year, b.storage_collisions_by_year);
  EXPECT_EQ(a.pairs_by_source, b.pairs_by_source);
  EXPECT_EQ(a.upgrade_histogram, b.upgrade_histogram);
  EXPECT_EQ(a.total_upgrade_events, b.total_upgrade_events);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.analyzed_contracts, b.analyzed_contracts);
  EXPECT_EQ(a.errors_by_kind, b.errors_by_kind);
}

store::DurableSweepConfig sweep_config(util::Vfs& vfs,
                                       obs::Registry* reg = nullptr) {
  store::DurableSweepConfig sc;
  sc.journal_path = kJournal;
  sc.shard_size = 60;
  sc.vfs = &vfs;
  sc.registry = reg;
  return sc;
}

store::DurableSweepResult run_sweep(datagen::Population& pop,
                                    const std::vector<core::SweepInput>& inputs,
                                    util::Vfs& vfs,
                                    obs::Registry* reg = nullptr) {
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, {});
  store::DurableSweep sweep(pipeline, *pop.chain, &pop.sources,
                            sweep_config(vfs, reg));
  return sweep.run(inputs);
}

/// A rebooted process continuing the journal: a fresh pipeline and
/// incremental().
store::DurableSweepResult resume_sweep(
    datagen::Population& pop, const std::vector<core::SweepInput>& inputs,
    util::Vfs& vfs, obs::Registry* reg = nullptr) {
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, {});
  store::DurableSweep sweep(pipeline, *pop.chain, &pop.sources,
                            sweep_config(vfs, reg));
  return sweep.incremental(inputs);
}

TEST(ChaosCrash, PowerCutAtEveryBoundaryResumesBitIdentical) {
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  // Fault-free reference through the model filesystem: the verdict oracle
  // AND the boundary count (the op sequence is deterministic, so every
  // index in [0, boundaries) is a distinct crash point).
  FaultInjectingVfs ref_vfs;
  const store::DurableSweepResult ref = run_sweep(pop, inputs, ref_vfs);
  ASSERT_TRUE(ref.error.empty()) << ref.error;
  ASSERT_TRUE(ref.complete);
  ASSERT_GE(ref.shards_run, 4u) << "population/shard_size must give >=4 "
                                   "shards for a meaningful matrix";
  const std::uint64_t boundaries = ref_vfs.mutating_ops();
  ASSERT_GT(boundaries, 20u);
  const test::RecordMap ref_records =
      test::last_wins_records(kJournal, ref_vfs);
  ASSERT_EQ(ref_records.size(), inputs.size());

  std::uint64_t cuts_with_commits = 0;
  for (std::uint64_t b = 0; b < boundaries; ++b) {
    SCOPED_TRACE("power cut at mutating-op boundary " + std::to_string(b));
    FaultVfsConfig cfg;
    cfg.power_cut_at = static_cast<std::int64_t>(b);
    FaultInjectingVfs vfs(cfg);

    bool cut = false;
    try {
      (void)run_sweep(pop, inputs, vfs);
    } catch (const PowerCutException&) {
      cut = true;
    }
    ASSERT_TRUE(cut);  // the reference guarantees op b exists

    vfs.heal();
    vfs.reboot();

    // Whatever the manifest committed before the cut must replay with zero
    // recomputation; resume finishes the rest bit-identically.
    const auto manifest =
        store::load_manifest(store::manifest_path_for(kJournal), vfs);
    const std::uint64_t committed =
        manifest ? manifest->contracts_committed : 0;
    if (committed > 0) ++cuts_with_commits;

    const store::DurableSweepResult res = resume_sweep(pop, inputs, vfs);
    ASSERT_TRUE(res.error.empty()) << res.error;
    ASSERT_TRUE(res.complete);
    EXPECT_FALSE(res.degraded);
    EXPECT_GE(res.replayed, committed);
    EXPECT_EQ(res.replayed + res.recomputed, inputs.size());
    expect_same_verdicts(res.stats, ref.stats);
    for (const std::string& address : test::record_diffs(
             test::last_wins_records(kJournal, vfs), ref_records)) {
      ADD_FAILURE() << "record differs from the fault-free journal: "
                    << address;
    }

    // The journal reads back whole after the resume, and the manifest
    // records full coverage.
    const auto replay = store::read_journal(kJournal, vfs);
    ASSERT_TRUE(replay.has_value());
    EXPECT_FALSE(replay->tail_dropped);
    ASSERT_FALSE(replay->frames.empty());
    EXPECT_EQ(replay->frames.back().type, store::RecordType::kSweepEnd);
    const auto final_manifest =
        store::load_manifest(store::manifest_path_for(kJournal), vfs);
    ASSERT_TRUE(final_manifest.has_value());
    EXPECT_TRUE(final_manifest->complete);
    EXPECT_EQ(final_manifest->contracts_committed, inputs.size());
  }
  // The matrix must include cuts AFTER durable commits, or the
  // zero-recompute claim was never exercised.
  EXPECT_GT(cuts_with_commits, boundaries / 2);
}

TEST(ChaosCrash, EnospcMidSweepCompletesDegradedThenResumesClean) {
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  FaultInjectingVfs ref_vfs;
  const store::DurableSweepResult ref = run_sweep(pop, inputs, ref_vfs);
  ASSERT_TRUE(ref.error.empty()) << ref.error;
  const std::uint64_t journal_size = ref_vfs.peek(kJournal)->size();

  // Disk fills mid-sweep: after roughly half the journal's bytes.
  FaultVfsConfig cfg;
  cfg.enospc_after_bytes = static_cast<std::int64_t>(journal_size / 2);
  FaultInjectingVfs vfs(cfg);
  obs::Registry reg;
  const store::DurableSweepResult res = run_sweep(pop, inputs, vfs, &reg);

  // Verdicts complete and correct; checkpointing stopped at the last good
  // commit; the failure is reported with its taxonomy kind and gauge.
  ASSERT_TRUE(res.error.empty()) << res.error;
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.degraded);
  ASSERT_TRUE(res.disk_error.has_value());
  EXPECT_EQ(res.disk_error->kind, core::ErrorKind::kDiskIo);
  EXPECT_FALSE(res.disk_error->detail.empty());
  EXPECT_EQ(res.stats.sweep_degraded, 1u);
  EXPECT_EQ(reg.gauge("sweep.degraded").value(), 1);
  expect_same_verdicts(res.stats, ref.stats);

  // At least one shard made it to disk before the disk filled.
  const auto manifest =
      store::load_manifest(store::manifest_path_for(kJournal), vfs);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_FALSE(manifest->complete);
  ASSERT_GT(manifest->contracts_committed, 0u);
  ASSERT_LT(manifest->contracts_committed, inputs.size());

  // Operator frees disk space; resume finishes the checkpoint without
  // recomputing the committed prefix.
  vfs.heal();
  obs::Registry reg2;
  const store::DurableSweepResult healed = resume_sweep(pop, inputs, vfs, &reg2);
  ASSERT_TRUE(healed.error.empty()) << healed.error;
  EXPECT_TRUE(healed.complete);
  EXPECT_FALSE(healed.degraded);
  EXPECT_EQ(reg2.gauge("sweep.degraded").value(), 0);
  EXPECT_GE(healed.replayed, manifest->contracts_committed);
  EXPECT_EQ(healed.replayed + healed.recomputed, inputs.size());
  expect_same_verdicts(healed.stats, ref.stats);
}

TEST(ChaosCrash, FsyncFailureFailsStopAndNeverSyncsThatFileAgain) {
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  FaultInjectingVfs ref_vfs;
  const store::DurableSweepResult ref = run_sweep(pop, inputs, ref_vfs);
  ASSERT_TRUE(ref.error.empty()) << ref.error;
  // Fault-free journal sync schedule: create + one per shard + finish.
  const std::uint64_t ref_journal_syncs = ref_vfs.fsync_calls(kJournal);
  ASSERT_GE(ref_journal_syncs, 6u);

  // Global sync #3 is the journal sync of the SECOND shard commit (create
  // =0, shard-0 journal=1, shard-0 manifest tmp=2): it fails and the model
  // drops the dirty pages — the fsyncgate scenario where a retry would
  // "succeed" over lost data.
  FaultVfsConfig cfg;
  cfg.fail_fsync_at = 3;
  FaultInjectingVfs vfs(cfg);
  obs::Registry reg;
  const store::DurableSweepResult res = run_sweep(pop, inputs, vfs, &reg);

  ASSERT_TRUE(res.error.empty()) << res.error;
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.degraded);
  ASSERT_TRUE(res.disk_error.has_value());
  EXPECT_EQ(res.disk_error->kind, core::ErrorKind::kDiskIo);
  EXPECT_NE(res.disk_error->detail.find("fsync"), std::string::npos);
  expect_same_verdicts(res.stats, ref.stats);

  // THE fsyncgate assertion: after the failed sync the writer dropped the
  // file — exactly 3 fsync attempts ever touched the journal (create,
  // shard 0, the shard-1 failure), far short of the fault-free schedule.
  EXPECT_EQ(vfs.fsync_calls(kJournal), 3u);
  EXPECT_LT(vfs.fsync_calls(kJournal), ref_journal_syncs);

  // Only shard 0 is on record as committed.
  const auto manifest =
      store::load_manifest(store::manifest_path_for(kJournal), vfs);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->shards_committed, 1u);
}

/// One kContract frame of the journal on disk: where its payload sits, and
/// the record it holds.
struct RecordFrame {
  std::size_t payload_off = 0;
  std::size_t len = 0;
  store::ContractRecord record;
};

std::vector<RecordFrame> contract_frames(
    const std::vector<std::uint8_t>& bytes) {
  auto u32_at = [&](std::size_t p) {
    return static_cast<std::uint32_t>(bytes[p]) |
           static_cast<std::uint32_t>(bytes[p + 1]) << 8 |
           static_cast<std::uint32_t>(bytes[p + 2]) << 16 |
           static_cast<std::uint32_t>(bytes[p + 3]) << 24;
  };
  std::vector<RecordFrame> frames;
  for (std::size_t pos = store::kJournalHeaderSize;
       pos + store::kFrameOverhead <= bytes.size();) {
    const std::uint32_t len = u32_at(pos);
    if (static_cast<store::RecordType>(bytes[pos + 4]) ==
        store::RecordType::kContract) {
      RecordFrame f;
      f.payload_off = pos + 5;
      f.len = len;
      auto rec =
          store::decode_contract_record({bytes.data() + f.payload_off, len});
      EXPECT_TRUE(rec.has_value());
      if (rec) f.record = std::move(*rec);
      frames.push_back(std::move(f));
    }
    pos += store::kFrameOverhead + len;
  }
  return frames;
}

/// At-rest bit rot in one committed record, picked by `pick` from the
/// journal's contract frames: incremental() salvages around the damage,
/// recomputes exactly the destroyed record, and the healed journal's
/// last-wins records are byte-equal to the undamaged journal's.
void expect_bit_rot_heals_one_record(
    const std::function<std::optional<std::size_t>(
        const std::vector<RecordFrame>&)>& pick) {
  datagen::Population pop = make_population();
  const auto inputs = pop.sweep_inputs();

  FaultInjectingVfs vfs;
  const store::DurableSweepResult base = run_sweep(pop, inputs, vfs);
  ASSERT_TRUE(base.error.empty()) << base.error;
  ASSERT_TRUE(base.complete);
  const test::RecordMap undamaged = test::last_wins_records(kJournal, vfs);

  const std::vector<RecordFrame> frames = contract_frames(*vfs.peek(kJournal));
  const std::optional<std::size_t> victim = pick(frames);
  ASSERT_TRUE(victim.has_value());
  const RecordFrame& f = frames[*victim];
  ASSERT_GT(f.len, 0u);
  ASSERT_TRUE(vfs.flip_byte(kJournal, f.payload_off + f.len / 2));

  obs::Registry reg;
  const store::DurableSweepResult healed = resume_sweep(pop, inputs, vfs, &reg);
  ASSERT_TRUE(healed.error.empty()) << healed.error;
  EXPECT_TRUE(healed.complete);
  EXPECT_FALSE(healed.degraded);
  EXPECT_EQ(healed.recomputed, 1u);
  EXPECT_EQ(healed.replayed, inputs.size() - 1);
  EXPECT_EQ(healed.stats.selfheal_shards, 1u);
  // The fresh registry's corrupt-gap counter is the incremental pass's delta.
  EXPECT_EQ(reg.counter("store.journal.corrupt_gaps").value(), 1u);
  expect_same_verdicts(healed.stats, base.stats);
  for (const std::string& address : test::record_diffs(
           test::last_wins_records(kJournal, vfs), undamaged)) {
    ADD_FAILURE() << "healed record differs: " << address;
  }

  // The corrupt gap stays in the file (append-only journal), but a salvage
  // scan reads the healed sweep end-to-end.
  const auto replay =
      store::read_journal(kJournal, vfs, store::ReplayOptions{.salvage = true});
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->corrupt_gaps, 1u);
  EXPECT_FALSE(replay->tail_dropped);
  EXPECT_EQ(replay->frames.back().type, store::RecordType::kSweepEnd);
}

/// The n-th journaled member (0 = the group's representative) of the first
/// proxy code-hash group with at least three members.
std::optional<std::size_t> proxy_group_member(
    const std::vector<RecordFrame>& frames, std::size_t n) {
  auto members_of = [&](const crypto::Hash256& h) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (frames[i].record.code_hash == h) out.push_back(i);
    }
    return out;
  };
  for (const RecordFrame& f : frames) {
    if (!f.record.analysis.proxy.is_proxy()) continue;
    const std::vector<std::size_t> members = members_of(f.record.code_hash);
    if (members.size() >= 3) {
      EXPECT_FALSE(frames[members[0]].record.analysis.deduplicated);
      EXPECT_TRUE(frames[members[1]].record.analysis.deduplicated);
      return members[n];
    }
  }
  return std::nullopt;
}

TEST(ChaosCrash, BitRotInCommittedShardSelfHealsExactlyThatRecord) {
  // The first record in the journal.
  expect_bit_rot_heals_one_record(
      [](const std::vector<RecordFrame>& frames) -> std::optional<std::size_t> {
        if (frames.empty()) return std::nullopt;
        return 0;
      });
}

TEST(ChaosCrash, BitRotOnAGroupRepresentativeRecomputesOnlyIt) {
  // The re-run representative is seeded from a sibling's verdict and keeps
  // its own dedup flag; its siblings replay untouched.
  expect_bit_rot_heals_one_record(
      [](const std::vector<RecordFrame>& frames) {
        return proxy_group_member(frames, 0);
      });
}

TEST(ChaosCrash, BitRotOnAGroupSiblingRecomputesOnlyIt) {
  // The re-run sibling is seeded from the representative's verdict and
  // journaled as a dedup clone.
  expect_bit_rot_heals_one_record(
      [](const std::vector<RecordFrame>& frames) {
        return proxy_group_member(frames, 1);
      });
}

}  // namespace

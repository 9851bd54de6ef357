// The benchmark's own tests: the percentile helper, the open-loop due-time
// accounting (including generator lag), the archive-node wrappers (seeded
// delays repeat; answers are chain::ArchiveNode's bit for bit) and the
// timing filesystem. Run with `python3 perfbench/run.py --selftest`, or
// directly: `.bench_build/perfbench/perfbench_selftest`. Exits 1 on failure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "chain/archive_node.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "datagen/contract_factory.h"
#include "datagen/population.h"
#include "harness.h"
#include "serve/follower.h"
#include "serve/query_service.h"
#include "store/durable_sweep.h"
#include "util/vfs.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  std::reverse(v.begin(), v.end());  // order must not matter
  expect(near(perfbench::percentile(v, 50), 50), "p50 of 1..100 is 50");
  expect(near(perfbench::percentile(v, 90), 90), "p90 of 1..100 is 90");
  expect(near(perfbench::percentile(v, 99), 99), "p99 of 1..100 is 99");
  expect(near(perfbench::percentile(v, 100), 100), "p100 is the max");
  expect(near(perfbench::percentile({7.0}, 99), 7), "single sample");
  expect(perfbench::percentile({}, 50) == 0, "empty set reads 0");

  // Highest percentile with at least ten samples beyond its rank.
  expect(!perfbench::highest_supported_percentile(19), "19 samples: none");
  expect(perfbench::highest_supported_percentile(20) == 50.0, "20: p50");
  expect(perfbench::highest_supported_percentile(99) == 50.0, "99: p50");
  expect(perfbench::highest_supported_percentile(100) == 90.0, "100: p90");
  expect(perfbench::highest_supported_percentile(999) == 90.0, "999: p90");
  expect(perfbench::highest_supported_percentile(1000) == 99.0, "1000: p99");
  expect(perfbench::highest_supported_percentile(10000) == 99.9,
         "10000: p99.9");
  expect(perfbench::percentile_supported(100, 90) &&
             !perfbench::percentile_supported(100, 99),
         "p90 but not p99 at 100 samples");
}

void test_open_loop() {
  // 1000 requests/s from t=10: request i is due at 10 + i ms.
  perfbench::OpenLoopSchedule s(10.0, 1000.0);
  expect(near(s.due(0), 10.0) && near(s.due(5), 10.005), "due times");
  // Request 0 stalls for 5 ms; 1..4 queue behind it and are sent late.
  s.record(0, 10.000, 10.005);
  s.record(1, 10.005, 10.0055);
  s.record(2, 10.0055, 10.006);
  s.record(3, 10.006, 10.0065);
  s.record(4, 10.0065, 10.007);
  s.record(5, 10.007, 10.0071);  // generator caught up (2 ms late)
  const std::vector<double>& lat = s.latencies_s();
  expect(lat.size() == 6 && s.recorded() == 6, "six samples");
  // Latency counts from the due time, so the stall shows on the queue.
  expect(near(lat[0], 0.005), "stalled request: 5 ms");
  expect(near(lat[1], 0.0045), "queued request 1: 4.5 ms from due");
  expect(near(lat[4], 0.003), "queued request 4: 3 ms from due");
  expect(near(lat[5], 0.0021), "request 5: 2.1 ms from due");
  // Generator lag: request 1 was sent 4 ms after it was due.
  expect(near(s.max_lag_s(), 0.004), "max generator lag 4 ms");

  perfbench::OpenLoopSchedule early(0.0, 100.0);
  early.record(0, -0.001, 0.002);  // sent before it was due: no lag
  expect(early.max_lag_s() == 0.0, "early send is not lag");
}

void test_archive_wrappers() {
  proxion::datagen::PopulationSpec spec;
  spec.seed = 7;
  spec.total_contracts = 400;
  const proxion::datagen::Population pop =
      proxion::datagen::PopulationGenerator().generate(spec);
  const proxion::chain::ArchiveNode base(*pop.chain);

  const perfbench::LatencyArchiveNode a(base, {42, 200'000, 5'000});
  const perfbench::LatencyArchiveNode b(base, {42, 200'000, 5'000});
  const perfbench::LatencyArchiveNode c(base, {43, 200'000, 5'000});
  const perfbench::LatencyArchiveNode zero(base, {42, 0, 0});
  const perfbench::CountingArchiveNode counting(zero);

  std::vector<std::uint64_t> seq_a;
  std::vector<std::uint64_t> seq_b;
  std::vector<std::uint64_t> seq_c;
  std::size_t answer_diffs = 0;
  std::size_t in_range = 0;
  std::vector<proxion::chain::StorageQuery> batch;
  for (std::size_t i = 0; i < pop.contracts.size(); ++i) {
    const auto& addr = pop.contracts[i].address;
    const proxion::evm::U256 slot{i % 4};
    const std::uint64_t h = pop.chain->height() - i % 50;
    seq_a.push_back(a.storage_delay_ns(addr, slot, h));
    seq_b.push_back(b.storage_delay_ns(addr, slot, h));
    seq_c.push_back(c.storage_delay_ns(addr, slot, h));
    seq_a.push_back(a.code_delay_ns(addr));
    seq_b.push_back(b.code_delay_ns(addr));
    seq_c.push_back(c.code_delay_ns(addr));
    in_range += seq_a.back() >= 100'000 && seq_a.back() < 300'000;
    answer_diffs += counting.get_storage_at(addr, slot, h) !=
                    base.get_storage_at(addr, slot, h);
    answer_diffs += counting.get_code(addr) != base.get_code(addr);
    batch.push_back({addr, slot, h});
  }
  answer_diffs += counting.get_storage_at_many(batch) !=
                  base.get_storage_at_many(batch);
  expect(seq_a == seq_b, "same seed, same delay sequence");
  expect(seq_a != seq_c, "another seed, another delay sequence");
  expect(in_range == pop.contracts.size(), "delays within [rtt/2, 3rtt/2)");
  expect(answer_diffs == 0, "answers bit-identical to chain::ArchiveNode");
  expect(a.batch_delay_ns(batch) >= 5'000 * batch.size() + 100'000,
         "batch cost grows per item");

  const auto n = counting.counts();
  expect(n.scalar_calls == pop.contracts.size(), "scalar round trips counted");
  expect(n.code_calls == pop.contracts.size(), "code round trips counted");
  expect(n.batch_calls == 1 && n.batch_items == batch.size(),
         "batched round trip counted with its items");
  expect(n.round_trips() == 2 * pop.contracts.size() + 1, "round trips");

  // A real (short) sleep: 20 scalar calls at 1 ms mean take ~20 ms.
  const perfbench::LatencyArchiveNode slow(base, {1, 1'000'000, 0});
  const double t0 = perfbench::now_s();
  for (int i = 0; i < 20; ++i) {
    (void)slow.get_storage_at(pop.contracts[0].address,
                              proxion::evm::U256{static_cast<unsigned>(i)},
                              pop.chain->height());
  }
  const double took = perfbench::now_s() - t0;
  expect(took >= slow.charged_ns() / 1e9 && slow.charged_ns() > 10'000'000,
         "latency model sleeps at least its charged delay");
}

void test_timing_vfs() {
  const std::string path = "perfbench_selftest.tmp";  // in the cwd
  perfbench::TimingVfs vfs;
  {
    auto f = vfs.open(path, proxion::util::Vfs::OpenMode::kTruncate, nullptr);
    expect(f != nullptr, "timing vfs opens a file");
    if (f) {
      const std::vector<std::uint8_t> bytes(100, 0xab);
      expect(static_cast<bool>(f->write(bytes)), "write ok");
      expect(static_cast<bool>(f->write(bytes)), "write ok");
      expect(static_cast<bool>(f->sync()), "sync ok");
    }
  }
  expect(static_cast<bool>(vfs.sync_dir(path)), "dir sync ok");
  const auto back = vfs.read_file(path);
  expect(back && back->size() == 200, "bytes reach the real filesystem");
  const auto n = vfs.counts();
  expect(n.write_calls == 2 && n.bytes_written == 200, "writes counted");
  expect(n.fsync_calls == 2, "file and directory fsyncs counted");
  vfs.set_enabled(false);
  {
    auto f = vfs.open(path, proxion::util::Vfs::OpenMode::kTruncate, nullptr);
    if (f) (void)f->write(std::vector<std::uint8_t>(10, 1));
  }
  expect(vfs.counts().write_calls == 2, "disabled vfs does not count");
  (void)vfs.remove(path);
}

/// Reports, without failing, a divergence this benchmark found: when a
/// proxy's implementation returns to an earlier value (X ... X), the
/// follower's row and a cold sweep of the same chain disagree on
/// upgrade_events. follow_serve's round-robin mix never builds such a
/// history, so this keeps the case visible until the program handles it.
void report_aba_divergence() {
  namespace datagen = proxion::datagen;
  proxion::datagen::PopulationSpec spec;
  spec.seed = 7;
  spec.total_contracts = 400;
  datagen::Population pop = datagen::PopulationGenerator().generate(spec);
  proxion::evm::Address proxy;
  std::vector<proxion::evm::Address> tokens;
  std::uint32_t prior_upgrades = 0;
  for (const auto& c : pop.contracts) {
    if (c.archetype == datagen::Archetype::kEip1967Proxy && proxy.is_zero()) {
      proxy = c.address;
      prior_upgrades = c.upgrades_truth;
    } else if (c.archetype == datagen::Archetype::kToken) {
      tokens.push_back(c.address);
    }
  }
  if (proxy.is_zero() || tokens.size() < 2) {
    expect(false, "ABA probe: population lacks an EIP-1967 proxy");
    return;
  }
  const std::string journal = "perfbench_selftest.journal";
  proxion::core::PipelineConfig config;
  config.threads = 1;
  proxion::core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  proxion::serve::QueryService query;
  proxion::store::DurableSweepConfig sweep_config;
  sweep_config.journal_path = journal;
  std::uint64_t followed = 0;
  std::uint64_t swept = 0;
  {
    proxion::serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources,
                                           sweep_config, query,
                                           pop.sweep_inputs());
    follower.poll();
    const proxion::evm::U256 slot =
        datagen::ContractFactory::eip1967_slot();
    // Seven upgrades 56 blocks apart; the last returns to the third's
    // implementation.
    for (const std::size_t k : {0, 1, 2, 3, 4, 5, 2}) {
      pop.chain->mine_until(pop.chain->height() + 55);
      pop.chain->set_storage(proxy, slot, tokens[k % tokens.size()].to_word());
      pop.chain->mine_block();
      follower.poll();
    }
    // The follower keeps the row it computed at the last upgrade; empty
    // blocks only fast-forward. Algorithm 1 bisects [0, head], so a cold
    // sweep at a later head can land both ends of a range on the repeated
    // implementation and skip the upgrades between them.
    for (int pad = 0; pad < 64 && followed == swept; ++pad) {
      pop.chain->mine_block();
      follower.poll();
      const auto snap = query.snapshot();
      followed = snap->rows[snap->by_address.at(proxy)].upgrade_events;
      proxion::core::AnalysisPipeline cold(*pop.chain, &pop.sources, config);
      for (const auto& a : cold.run(pop.sweep_inputs())) {
        if (a.address == proxy) swept = a.logic_history.upgrade_events;
      }
    }
  }
  std::printf("known divergence (an implementation returns to a proxy): follower "
              "upgrade_events=%llu, cold sweep=%llu, actual=%u: %s\n",
              static_cast<unsigned long long>(followed),
              static_cast<unsigned long long>(swept), prior_upgrades + 7,
              followed == swept ? "not reproduced" : "reproduced");
  (void)proxion::util::Vfs::real().remove(journal);
  (void)proxion::util::Vfs::real().remove(journal + ".manifest");
}

}  // namespace

int main() {
  test_percentile();
  test_open_loop();
  test_archive_wrappers();
  test_timing_vfs();
  report_aba_divergence();
  if (g_failures != 0) {
    std::printf("perfbench selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench selftest: OK\n");
  return 0;
}

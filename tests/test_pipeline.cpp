// The end-to-end analysis pipeline: dedup semantics, per-contract verdicts
// against ground truth, collision propagation, landscape aggregation, and
// thread-count invariance.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <thread>

#include "chain/blockchain.h"
#include "chain/fault_injection.h"
#include "core/pipeline.h"
#include "crypto/keccak.h"
#include "datagen/contract_factory.h"
#include "datagen/population.h"

namespace {

using namespace proxion;
using namespace proxion::core;
using datagen::Archetype;
using datagen::DeployedContract;
using datagen::Population;
using datagen::PopulationGenerator;
using datagen::PopulationSpec;

/// Archive backend that sleeps a fixed delay per query, as a remote node's
/// round trip would, and records the most calls it ever had in flight. A
/// zero delay makes it a pure counting wrapper that never blocks.
class SleepingArchiveNode final : public chain::IArchiveNode {
 public:
  SleepingArchiveNode(const chain::IArchiveNode& inner,
                      std::chrono::microseconds delay)
      : inner_(inner), delay_(delay) {}

  int high_water() const noexcept {
    return high_water_.load(std::memory_order_relaxed);
  }

  U256 get_storage_at(const Address& account, const U256& slot,
                      std::uint64_t block) const override {
    return call([&] { return inner_.get_storage_at(account, slot, block); });
  }
  std::vector<U256> get_storage_at_many(
      std::span<const chain::StorageQuery> queries) const override {
    return call([&] { return inner_.get_storage_at_many(queries); });
  }
  evm::Bytes get_code(const Address& account) const override {
    return call([&] { return inner_.get_code(account); });
  }
  std::uint64_t latest_block() const override { return inner_.latest_block(); }
  std::uint64_t get_storage_at_calls() const override {
    return inner_.get_storage_at_calls();
  }
  std::uint64_t get_code_calls() const override {
    return inner_.get_code_calls();
  }
  void reset_counters() const override { inner_.reset_counters(); }

 private:
  template <typename Fn>
  auto call(Fn&& fn) const -> decltype(fn()) {
    struct InFlight {
      explicit InFlight(const SleepingArchiveNode& n) : node(n) {
        const int now = node.in_flight_.fetch_add(1) + 1;
        int seen = node.high_water_.load();
        while (now > seen &&
               !node.high_water_.compare_exchange_weak(seen, now)) {
        }
      }
      ~InFlight() { node.in_flight_.fetch_sub(1); }
      const SleepingArchiveNode& node;
    } in_flight(*this);
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    return fn();
  }

  const chain::IArchiveNode& inner_;
  std::chrono::microseconds delay_;
  mutable std::atomic<int> in_flight_{0};
  mutable std::atomic<int> high_water_{0};
};

std::int64_t archive_inflight_gauge(const AnalysisPipeline& pipeline) {
  return pipeline.registry().snapshot().gauges.at("sweep.archive_inflight");
}

class PipelineTest : public ::testing::Test {
 protected:
  static Population make_population(std::uint32_t n) {
    PopulationSpec spec;
    spec.total_contracts = n;
    return PopulationGenerator().generate(spec);
  }
};

TEST_F(PipelineTest, VerdictsMatchGroundTruth) {
  Population pop = make_population(800);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());
  ASSERT_EQ(reports.size(), pop.contracts.size());

  int mismatches = 0;
  int diamonds_missed = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DeployedContract& truth = pop.contracts[i];
    const bool detected = reports[i].proxy.is_proxy();
    if (truth.archetype == Archetype::kDiamondProxy) {
      // §8.1: diamonds are the documented miss.
      if (!detected) ++diamonds_missed;
      continue;
    }
    if (detected != truth.is_proxy_truth) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GE(diamonds_missed, 0);
}

TEST_F(PipelineTest, DedupMarksClonesAndPreservesVerdicts) {
  Population pop = make_population(600);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());

  std::size_t deduplicated = 0;
  for (const auto& r : reports) {
    if (r.deduplicated) ++deduplicated;
  }
  // The clone-heavy population must reuse most verdicts (§6.1's speedup).
  EXPECT_GT(deduplicated, reports.size() / 4);
}

TEST_F(PipelineTest, DedupOffProducesSameVerdicts) {
  Population pop = make_population(250);
  PipelineConfig with_dedup;
  PipelineConfig without_dedup;
  without_dedup.dedup_by_code_hash = false;

  AnalysisPipeline p1(*pop.chain, &pop.sources, with_dedup);
  AnalysisPipeline p2(*pop.chain, &pop.sources, without_dedup);
  const auto r1 = p1.run(pop.sweep_inputs());
  const auto r2 = p2.run(pop.sweep_inputs());
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].proxy.is_proxy(), r2[i].proxy.is_proxy());
    EXPECT_EQ(r1[i].proxy.standard, r2[i].proxy.standard);
  }
}

TEST_F(PipelineTest, CloneLogicAddressesAreResolvedPerContract) {
  // Wyvern clones share bytecode but each stores its own logic pointer; the
  // dedup path must still report the correct per-contract logic address.
  Population pop = make_population(600);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());

  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DeployedContract& truth = pop.contracts[i];
    if (truth.archetype != Archetype::kWyvernCloneProxy) continue;
    EXPECT_EQ(reports[i].proxy.logic_address, truth.logic_truth);
  }
}

TEST_F(PipelineTest, CollisionsDetectedWhereInjected) {
  Population pop = make_population(1'000);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());

  int fn_truth = 0, fn_found = 0, st_truth = 0, st_found = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DeployedContract& truth = pop.contracts[i];
    if (truth.function_collision_truth) {
      ++fn_truth;
      if (reports[i].function_collision) ++fn_found;
    }
    if (truth.storage_collision_truth) {
      ++st_truth;
      if (reports[i].storage_collision) ++st_found;
    }
  }
  EXPECT_GT(fn_truth, 0);
  EXPECT_EQ(fn_found, fn_truth);  // every injected function collision found
  if (st_truth > 0) {
    EXPECT_EQ(st_found, st_truth);
  }
}

TEST_F(PipelineTest, StorageCollisionMatchesTruthForEveryArchetype) {
  // The default 12k population: storage_collision must agree with the
  // datagen label on every contract. Slot-0 custom proxies upgraded onto an
  // Audius-style logic are labelled collisions (§2.3), so they count as
  // true positives here, not as false positives.
  Population pop = make_population(12'000);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());
  ASSERT_EQ(reports.size(), pop.contracts.size());

  struct Confusion {
    int tp = 0, fp = 0, fn = 0;
  };
  std::map<std::string, Confusion> by_archetype;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DeployedContract& truth = pop.contracts[i];
    Confusion& c =
        by_archetype[std::string(datagen::to_string(truth.archetype))];
    const bool found = reports[i].storage_collision;
    if (found && truth.storage_collision_truth) ++c.tp;
    if (found && !truth.storage_collision_truth) ++c.fp;
    if (!found && truth.storage_collision_truth) ++c.fn;
  }
  for (const auto& [archetype, c] : by_archetype) {
    EXPECT_EQ(c.fp, 0) << archetype;
    EXPECT_EQ(c.fn, 0) << archetype;
  }
  EXPECT_GT(by_archetype["audius-proxy"].tp, 0);
  EXPECT_GT(by_archetype["custom-slot-proxy"].tp, 0);
}

TEST_F(PipelineTest, EveryVerdictFieldMatchesTruthExceptNamedMisses) {
  // All five verdict fields against the datagen labels on the default 12k
  // population (default seed), the same diff perfbench reports as
  // truth_mismatches. Misses are counted per (archetype, field). Only four
  // named buckets may hold any: beacon proxies report the beacon path's
  // logic (logic_address, and so function_collision), and EIP-2535
  // diamonds are the §8.1 miss (is_proxy, logic_address). Their sizes are
  // pinned, so a fix that shrinks one shows here.
  Population pop = make_population(12'000);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());
  ASSERT_EQ(reports.size(), pop.contracts.size());

  using Bucket = std::pair<std::string, std::string>;  // (archetype, field)
  std::map<Bucket, int> misses;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DeployedContract& truth = pop.contracts[i];
    const ContractAnalysis& got = reports[i];
    auto miss = [&](const char* field) {
      ++misses[{std::string(datagen::to_string(truth.archetype)), field}];
    };
    if (got.proxy.is_proxy() != truth.is_proxy_truth) miss("is_proxy");
    if (truth.is_proxy_truth && got.proxy.logic_address != truth.logic_truth) {
      miss("logic_address");
    }
    if (got.logic_history.upgrade_events != truth.upgrades_truth) {
      miss("upgrade_count");
    }
    if (got.function_collision != truth.function_collision_truth) {
      miss("function_collision");
    }
    if (got.storage_collision != truth.storage_collision_truth) {
      miss("storage_collision");
    }
  }
  const std::map<Bucket, int> named_misses = {
      {{"beacon-proxy", "function_collision"}, 52},
      {{"beacon-proxy", "logic_address"}, 45},
      {{"diamond-proxy", "is_proxy"}, 9},
      {{"diamond-proxy", "logic_address"}, 9},
  };
  EXPECT_EQ(misses, named_misses);
  for (const auto& [bucket, n] : misses) {
    EXPECT_TRUE(named_misses.count(bucket) != 0)
        << "unnamed miss: " << bucket.first << " " << bucket.second << " x"
        << n;
  }
}

TEST_F(PipelineTest, SummaryAggregatesConsistently) {
  Population pop = make_population(800);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());
  LandscapeStats stats = pipeline.summarize(reports);

  EXPECT_EQ(stats.total_contracts, reports.size());
  EXPECT_GT(stats.proxies, 0u);
  EXPECT_LT(stats.proxies, stats.total_contracts);
  EXPECT_GT(stats.hidden_proxies, 0u);
  EXPECT_LE(stats.unique_proxy_codehashes, stats.proxies);

  std::uint64_t by_standard_sum = 0;
  for (const auto& [standard, count] : stats.by_standard) {
    by_standard_sum += count;
  }
  EXPECT_EQ(by_standard_sum, stats.proxies);

  std::uint64_t by_year_sum = 0;
  for (const auto& [year, count] : stats.proxies_by_year) {
    by_year_sum += count;
  }
  EXPECT_EQ(by_year_sum, stats.proxies);

  // EIP-1167 dominates the standard mix (Table 4).
  EXPECT_GT(stats.by_standard[ProxyStandard::kEip1167],
            stats.proxies / 2);
}

TEST_F(PipelineTest, ThreadCountDoesNotChangeResults) {
  Population pop = make_population(300);
  PipelineConfig single;
  single.threads = 1;
  PipelineConfig many;
  many.threads = 8;

  AnalysisPipeline p1(*pop.chain, &pop.sources, single);
  AnalysisPipeline p8(*pop.chain, &pop.sources, many);
  const auto r1 = p1.run(pop.sweep_inputs());
  const auto r8 = p8.run(pop.sweep_inputs());
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].proxy.is_proxy(), r8[i].proxy.is_proxy());
    EXPECT_EQ(r1[i].function_collision, r8[i].function_collision);
    EXPECT_EQ(r1[i].storage_collision, r8[i].storage_collision);
    EXPECT_EQ(r1[i].logic_history.logic_addresses,
              r8[i].logic_history.logic_addresses);
  }
}

TEST_F(PipelineTest, ThreadCountProducesByteIdenticalAnalyses) {
  // Stronger than the field-wise check above: the entire ContractAnalysis
  // (proxy report, logic history, collision findings, dedup flags) must be
  // byte-for-byte identical regardless of worker count.
  Population pop = make_population(400);
  PipelineConfig single;
  single.threads = 1;
  PipelineConfig many;
  many.threads = 8;

  AnalysisPipeline p1(*pop.chain, &pop.sources, single);
  AnalysisPipeline p8(*pop.chain, &pop.sources, many);
  const auto r1 = p1.run(pop.sweep_inputs());
  const auto r8 = p8.run(pop.sweep_inputs());
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_TRUE(r1[i] == r8[i]) << "contract " << i << " diverged";
  }
}

TEST_F(PipelineTest, SummaryReportsPhaseTimingsAndCacheStats) {
  Population pop = make_population(300);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());
  const LandscapeStats stats = pipeline.summarize(reports);

  EXPECT_GE(stats.phase_fetch_ms, 0.0);
  EXPECT_GE(stats.phase_proxy_ms, 0.0);
  EXPECT_GE(stats.phase_pairs_ms, 0.0);
  // The clone-heavy population must produce artifact reuse...
  EXPECT_GT(stats.cache.hits(), 0u);
  EXPECT_GT(stats.cache.entries, 0u);
  // ...and pair-level reuse (every proxy/logic pair computed at most once).
  EXPECT_GT(stats.pair_cache_hits + stats.pair_cache_misses, 0u);
}

TEST_F(PipelineTest, EachDistinctLogicBlobIsHashedOnce) {
  // M clones of one proxy blob all pointing at one logic contract: the
  // marginal cost of an extra clone must be ONE keccak (its Phase 0 code
  // hash) — the seed also hashed the logic blob once per pair (twice: once
  // for the function detector, once for the storage detector).
  using datagen::ContractFactory;

  auto build = [](std::uint32_t proxies) {
    auto chain = std::make_unique<chain::Blockchain>();
    const Address deployer = Address::from_label("keccak-count-deployer");
    const Address logic =
        chain->deploy_runtime(deployer, ContractFactory::token_contract(99));
    std::vector<SweepInput> inputs;
    for (std::uint32_t i = 0; i < proxies; ++i) {
      const Address p =
          chain->deploy_runtime(deployer, ContractFactory::eip1967_proxy());
      chain->set_storage(p, ContractFactory::eip1967_slot(), logic.to_word());
      inputs.push_back({p, 2020, false, false});
    }
    return std::pair{std::move(chain), std::move(inputs)};
  };

  auto run_counting = [](chain::Blockchain& chain,
                         const std::vector<SweepInput>& inputs) {
    AnalysisPipeline pipeline(chain, nullptr);
    const std::uint64_t before = crypto::keccak_invocations();
    const auto reports = pipeline.run(inputs);
    const std::uint64_t spent = crypto::keccak_invocations() - before;
    EXPECT_EQ(reports.size(), inputs.size());
    for (const auto& r : reports) EXPECT_TRUE(r.proxy.is_proxy());
    return spent;
  };

  constexpr std::uint32_t kSmall = 4, kLarge = 36;
  auto [chain_small, inputs_small] = build(kSmall);
  auto [chain_large, inputs_large] = build(kLarge);
  const std::uint64_t small = run_counting(*chain_small, inputs_small);
  const std::uint64_t large = run_counting(*chain_large, inputs_large);

  // Both sweeps see the same two unique blobs, so per-blob work (probe
  // emulation, artifact extraction, the one logic-blob hash) cancels in the
  // difference; what remains is the per-contract cost.
  ASSERT_GT(large, small);
  const std::uint64_t marginal = (large - small) / (kLarge - kSmall);
  EXPECT_GE(marginal, 1u);  // Phase 0 must hash every contract
  EXPECT_LE(marginal, 2u) << "an extra clone re-hashed shared blobs";
}

TEST_F(PipelineTest, WarmRunRecomputesVerdictForNewSameHashAddress) {
  // Two EIP-1967 proxies share one bytecode but store different logic
  // pointers. Sweep A first, then B in a *second* (warm) run: B is its own
  // run's representative, so the cross-run verdict memo must not hand it
  // A's report (A's probe selector, A's slot read) — every field must match
  // what the cache-off pipeline computes fresh at B.
  using datagen::ContractFactory;
  chain::Blockchain chain;
  const Address deployer = Address::from_label("warm-same-hash-deployer");
  const Address logic1 =
      chain.deploy_runtime(deployer, ContractFactory::token_contract(1));
  const Address logic2 =
      chain.deploy_runtime(deployer, ContractFactory::token_contract(2));
  const Address a =
      chain.deploy_runtime(deployer, ContractFactory::eip1967_proxy());
  const Address b =
      chain.deploy_runtime(deployer, ContractFactory::eip1967_proxy());
  chain.set_storage(a, ContractFactory::eip1967_slot(), logic1.to_word());
  chain.set_storage(b, ContractFactory::eip1967_slot(), logic2.to_word());

  AnalysisPipeline cached(chain, nullptr);  // default config: cache ON
  PipelineConfig off;
  off.use_analysis_cache = false;
  AnalysisPipeline uncached(chain, nullptr, off);

  const std::vector<SweepInput> first{{a, 2020, false, false}};
  const std::vector<SweepInput> second{{b, 2021, false, false}};

  const auto c1 = cached.run(first);
  const auto u1 = uncached.run(first);
  ASSERT_EQ(c1.size(), 1u);
  EXPECT_TRUE(c1[0] == u1[0]);
  ASSERT_TRUE(c1[0].proxy.is_proxy());
  EXPECT_EQ(c1[0].proxy.logic_address, logic1);

  const auto c2 = cached.run(second);
  const auto u2 = uncached.run(second);
  ASSERT_EQ(c2.size(), 1u);
  EXPECT_TRUE(c2[0] == u2[0]) << "warm run inherited another address's state";
  ASSERT_TRUE(c2[0].proxy.is_proxy());
  EXPECT_EQ(c2[0].proxy.logic_address, logic2);
}

TEST_F(PipelineTest, ExploitVerdictDoesNotDependOnInputOrder) {
  // Two slot-0 proxies share one bytecode and an Audius-style logic in their
  // history, so they share the pair memo entry. Exploit verification reads
  // each proxy's own storage: `live` still delegates to the Audius logic,
  // whose initialize() runs again because the logic address's low byte
  // reads as initialized == false; `moved` was upgraded on to a token logic
  // that never writes slot 0. Neither verdict may depend on which proxy the
  // sweep reaches first.
  using datagen::ContractFactory;
  chain::Blockchain chain;
  const Address deployer = Address::from_label("exploit-order-deployer");
  const Address audius = Address::from_word(U256{0xa0d1'0500});
  chain.set_code(audius, ContractFactory::audius_style_logic());
  const Address token =
      chain.deploy_runtime(deployer, ContractFactory::token_contract(7));
  const Address live =
      chain.deploy_runtime(deployer, ContractFactory::slot_proxy(U256{0}));
  const Address moved =
      chain.deploy_runtime(deployer, ContractFactory::slot_proxy(U256{0}));
  chain.mine_until(10);
  chain.set_storage(live, U256{0}, audius.to_word());
  chain.set_storage(moved, U256{0}, audius.to_word());
  chain.mine_until(20);
  chain.set_storage(moved, U256{0}, token.to_word());
  chain.mine_until(30);

  auto sweep = [&](const std::vector<SweepInput>& inputs) {
    PipelineConfig config;
    config.threads = 1;
    AnalysisPipeline pipeline(chain, nullptr, config);
    std::map<Address, ContractAnalysis> by_address;
    for (const ContractAnalysis& r : pipeline.run(inputs)) {
      by_address[r.address] = r;
    }
    return by_address;
  };
  const SweepInput live_in{live, 2020, false, false};
  const SweepInput moved_in{moved, 2020, false, false};
  auto forward = sweep({live_in, moved_in});
  auto reverse = sweep({moved_in, live_in});

  for (const Address& a : {live, moved}) {
    ASSERT_TRUE(forward[a].proxy.is_proxy());
    EXPECT_TRUE(forward[a].storage_collision);
    EXPECT_EQ(forward[a].storage_collision, reverse[a].storage_collision);
    EXPECT_EQ(forward[a].storage_collision_exploitable,
              reverse[a].storage_collision_exploitable)
        << "verdict of " << a.to_hex() << " depends on input order";
  }
  EXPECT_EQ(forward[moved].logic_history.logic_addresses.size(), 2u);
  EXPECT_TRUE(forward[live].storage_collision_exploitable);
  EXPECT_FALSE(forward[moved].storage_collision_exploitable);
}

TEST_F(PipelineTest, WarmRerunOfSamePopulationIsBitIdentical) {
  // The advertised warm-sweep use case: re-running the same population on
  // one pipeline serves blobs/verdicts/artifacts from the persistent caches
  // and must reproduce the cold results byte for byte.
  Population pop = make_population(300);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto cold = pipeline.run(pop.sweep_inputs());
  const auto warm = pipeline.run(pop.sweep_inputs());
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_TRUE(cold[i] == warm[i]) << "contract " << i << " diverged warm";
  }
}

TEST_F(PipelineTest, CollisionDetectionCanBeDisabled) {
  Population pop = make_population(300);
  PipelineConfig config;
  config.detect_collisions = false;
  AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  const auto reports = pipeline.run(pop.sweep_inputs());
  for (const auto& r : reports) {
    EXPECT_FALSE(r.function_collision);
    EXPECT_FALSE(r.storage_collision);
  }
}

TEST_F(PipelineTest, EmptyInputYieldsEmptyStats) {
  Population pop = make_population(50);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run({});
  EXPECT_TRUE(reports.empty());
  const LandscapeStats stats = pipeline.summarize(reports);
  EXPECT_EQ(stats.total_contracts, 0u);
  EXPECT_EQ(stats.proxies, 0u);
}

TEST_F(PipelineTest, UpgradeHistogramMatchesTruth) {
  Population pop = make_population(2'000);
  AnalysisPipeline pipeline(*pop.chain, &pop.sources);
  const auto reports = pipeline.run(pop.sweep_inputs());

  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DeployedContract& truth = pop.contracts[i];
    if (!truth.is_proxy_truth || truth.upgrades_truth == 0) continue;
    if (truth.archetype == Archetype::kDiamondProxy) continue;
    EXPECT_EQ(reports[i].logic_history.upgrade_events, truth.upgrades_truth)
        << datagen::to_string(truth.archetype);
  }
}

// ---- archive fan-out -------------------------------------------------------

class ArchiveFanOutTest : public PipelineTest {
 protected:
  static std::vector<ContractAnalysis> reference(const Population& pop) {
    PipelineConfig config;
    config.threads = 1;
    AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
    return pipeline.run(pop.sweep_inputs());
  }
};

TEST_F(ArchiveFanOutTest, BlockingArchiveFansOutBitIdenticallyWithinTheCap) {
  Population pop = make_population(400);
  const auto expected = reference(pop);
  chain::ArchiveNode inner(*pop.chain);
  SleepingArchiveNode slow(inner, std::chrono::microseconds(100));
  obs::EventLog events;
  PipelineConfig config;
  config.threads = 2;
  config.archive_inflight = 8;
  config.archive_node = &slow;
  config.telemetry.event_log = &events;
  AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  const auto reports = pipeline.run(pop.sweep_inputs());

  ASSERT_EQ(reports.size(), expected.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_TRUE(reports[i] == expected[i]) << "contract " << i << " diverged";
  }
  EXPECT_GT(slow.high_water(), 2);
  EXPECT_LE(slow.high_water(), 8);
  EXPECT_EQ(archive_inflight_gauge(pipeline), 8);

  // The second run fans out too but does not repeat the event: a durable
  // sweep runs the pipeline once per shard.
  EXPECT_TRUE(pipeline.run(pop.sweep_inputs()) == expected);
  EXPECT_EQ(archive_inflight_gauge(pipeline), 8);
  const auto recent = events.recent();
  EXPECT_EQ(std::count_if(recent.begin(), recent.end(),
                          [](const obs::Event& e) {
                            return e.message.find("archive calls block") !=
                                   std::string::npos;
                          }),
            1);
}

TEST_F(ArchiveFanOutTest, NonBlockingArchiveStaysOnTheCpuPool) {
  Population pop = make_population(400);
  const auto expected = reference(pop);
  chain::ArchiveNode inner(*pop.chain);
  SleepingArchiveNode counting(inner, std::chrono::microseconds(0));
  PipelineConfig config;
  config.threads = 2;
  config.archive_inflight = 8;
  config.archive_node = &counting;
  AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  const auto reports = pipeline.run(pop.sweep_inputs());

  EXPECT_TRUE(reports == expected);
  EXPECT_GT(counting.high_water(), 0);
  EXPECT_LE(counting.high_water(), 2);
  EXPECT_EQ(archive_inflight_gauge(pipeline), 2);
}

// A retried call's backoff sleep is not archive latency: an in-process
// archive that faults on most get_code calls, with backoff sleeps long
// enough to look like round trips, stays on the CPU pool.
TEST_F(ArchiveFanOutTest, RetryBackoffDoesNotCountAsBlocking) {
  Population pop = make_population(200);
  const auto expected = reference(pop);
  chain::ArchiveNode inner(*pop.chain);
  chain::FaultProfile profile;
  profile.seed = 5;
  profile.transient_rate = 0.7;
  profile.fault_get_storage_at = false;
  chain::FaultInjectingArchiveNode faulty(inner, profile);
  PipelineConfig config;
  config.threads = 2;
  config.archive_inflight = 8;
  config.archive_node = &faulty;
  config.retry.base_delay_us = 200;
  config.retry.max_delay_us = 400;
  AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  const auto reports = pipeline.run(pop.sweep_inputs());

  EXPECT_GT(faulty.injected_faults(), 0u) << "fault injection never engaged";
  EXPECT_TRUE(reports == expected);
  EXPECT_EQ(archive_inflight_gauge(pipeline), 2);
}

TEST_F(ArchiveFanOutTest, InflightAtOrBelowThreadsNeverFansOut) {
  Population pop = make_population(200);
  const auto expected = reference(pop);
  chain::ArchiveNode inner(*pop.chain);
  for (unsigned inflight : {2u, 4u}) {
    SleepingArchiveNode slow(inner, std::chrono::microseconds(100));
    PipelineConfig config;
    config.threads = 4;
    config.archive_inflight = inflight;
    config.archive_node = &slow;
    AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
    const auto reports = pipeline.run(pop.sweep_inputs());

    EXPECT_TRUE(reports == expected) << "archive_inflight " << inflight;
    EXPECT_LE(slow.high_water(), 4) << "archive_inflight " << inflight;
    EXPECT_EQ(archive_inflight_gauge(pipeline), 4);
  }
}

TEST_F(ArchiveFanOutTest, TransientFaultsUnderFanOutMatchTheFaultFreeSweep) {
  Population pop = make_population(400);
  const auto expected = reference(pop);
  chain::ArchiveNode inner(*pop.chain);
  chain::FaultProfile profile;
  profile.seed = 77;
  profile.transient_rate = 0.10;
  chain::FaultInjectingArchiveNode faulty(inner, profile);
  SleepingArchiveNode slow(faulty, std::chrono::microseconds(100));
  PipelineConfig config;
  config.threads = 2;
  config.archive_inflight = 8;
  config.archive_node = &slow;
  config.retry.base_delay_us = 1;
  config.retry.max_delay_us = 20;
  AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  const auto reports = pipeline.run(pop.sweep_inputs());

  EXPECT_GT(faulty.injected_faults(), 0u) << "fault injection never engaged";
  EXPECT_EQ(archive_inflight_gauge(pipeline), 8);
  ASSERT_EQ(reports.size(), expected.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_TRUE(reports[i] == expected[i]) << "contract " << i << " diverged";
  }
}

// Algorithm 1 runs per group of contracts: groups of one on the CPU pool,
// larger when the archive blocks. Each group's find_many is one logic-search
// span whose `proxies` arg counts the proxies it searched.
TEST_F(ArchiveFanOutTest, BlockingArchiveSearchesProxiesInGroups) {
  Population pop = make_population(400);
  const auto expected = reference(pop);
  chain::ArchiveNode inner(*pop.chain);
  auto largest_group = [&](std::chrono::microseconds delay) {
    SleepingArchiveNode node(inner, delay);
    PipelineConfig config;
    config.threads = 2;
    config.archive_inflight = 8;
    config.archive_node = &node;
    config.telemetry.live_spans = true;
    AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
    EXPECT_TRUE(pipeline.run(pop.sweep_inputs()) == expected);
    std::int64_t largest = 0;
    for (const obs::SpanRecord& s : pipeline.tracer()->spans()) {
      if (std::string_view(s.name) == "logic-search") {
        largest = std::max(largest, s.arg);
      }
    }
    return largest;
  };
  EXPECT_EQ(largest_group(std::chrono::microseconds(0)), 1);
  EXPECT_GT(largest_group(std::chrono::microseconds(100)), 1);
}

// When the archive blocks, the pair phase batches Algorithm 1 across a group
// of proxies. A fault in a shared batch must still fail only the proxies
// whose own probes fail: the group falls back to one batch per proxy.
struct FaultSweep {
  std::vector<ContractAnalysis> reports;
  std::int64_t inflight = 0;
  LandscapeStats stats;
  std::uint64_t injected = 0;
};

FaultSweep fault_sweep(const Population& pop,
                       const chain::FaultProfile& profile,
                       unsigned archive_inflight) {
  chain::ArchiveNode inner(*pop.chain);
  chain::FaultInjectingArchiveNode faulty(inner, profile);
  SleepingArchiveNode slow(faulty, std::chrono::microseconds(100));
  PipelineConfig config;
  config.threads = 4;
  config.archive_inflight = archive_inflight;
  config.archive_node = &slow;
  config.retry.base_delay_us = 1;
  config.retry.max_delay_us = 20;
  AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  FaultSweep out;
  out.reports = pipeline.run(pop.sweep_inputs());
  out.inflight = archive_inflight_gauge(pipeline);
  out.stats = pipeline.summarize(out.reports);
  out.injected = faulty.injected_faults();
  return out;
}

TEST_F(ArchiveFanOutTest, PermanentFaultsInGroupedBatchesQuarantineAsTheNarrowRun) {
  Population pop = make_population(3'000);
  chain::FaultProfile profile;
  profile.seed = 41;
  profile.transient_rate = 0.10;
  profile.failures_per_fault = 1'000'000;  // outlasts every retry budget
  profile.fault_get_code = false;
  const FaultSweep narrow = fault_sweep(pop, profile, 4);  // == threads: never fans out
  const FaultSweep wide = fault_sweep(pop, profile, 16);

  EXPECT_EQ(narrow.inflight, 4);
  EXPECT_EQ(wide.inflight, 16);
  EXPECT_GT(wide.injected, 0u) << "fault injection never engaged";
  ASSERT_GT(narrow.stats.quarantined, 0u);
  EXPECT_EQ(wide.stats.quarantined, narrow.stats.quarantined);
  ASSERT_EQ(wide.reports.size(), narrow.reports.size());
  for (std::size_t i = 0; i < wide.reports.size(); ++i) {
    const ContractAnalysis& w = wide.reports[i];
    const ContractAnalysis& n = narrow.reports[i];
    ASSERT_EQ(w.quarantined(), n.quarantined()) << "contract " << i;
    if (n.quarantined()) {
      EXPECT_EQ(w.error->kind, n.error->kind) << "contract " << i;
      EXPECT_EQ(w.error->phase, n.error->phase) << "contract " << i;
    } else {
      EXPECT_TRUE(w == n) << "contract " << i << " diverged";
    }
  }
}

TEST_F(ArchiveFanOutTest, MixedTransientFaultsInGroupedBatchesMatchTheFaultFreeSweep) {
  Population pop = make_population(3'000);
  const auto expected = reference(pop);
  chain::FaultProfile profile;  // test_resilience's 10% mixed profile
  profile.seed = 1234;
  profile.transient_rate = 0.04;
  profile.timeout_rate = 0.03;
  profile.rate_limit_rate = 0.02;
  profile.stale_read_rate = 0.01;
  const FaultSweep wide = fault_sweep(pop, profile, 16);

  EXPECT_EQ(wide.inflight, 16);
  EXPECT_GT(wide.injected, 0u) << "fault injection never engaged";
  EXPECT_EQ(wide.stats.quarantined, 0u);
  EXPECT_EQ(wide.stats.rpc_giveups, 0u);
  EXPECT_EQ(wide.stats.breaker_trips, 0u);
  ASSERT_EQ(wide.reports.size(), expected.size());
  for (std::size_t i = 0; i < wide.reports.size(); ++i) {
    EXPECT_TRUE(wide.reports[i] == expected[i])
        << "contract " << i << " diverged";
  }
}

}  // namespace

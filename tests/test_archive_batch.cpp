// The batched archive-read path and the coalescing decorator: batch/scalar
// equivalence through every decorator, whole-batch abort semantics under
// injected faults (no partial results, nothing cached from a failed fetch),
// the sealed-height interval cache (head probes never cached, invalidation
// across slot rewrites), and a concurrent hammering pass that gives TSan a
// workout over the in-flight dedup machinery.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "chain/archive_node.h"
#include "chain/blockchain.h"
#include "chain/coalescing_node.h"
#include "chain/fault_injection.h"
#include "chain/resilient_node.h"
#include "datagen/contract_factory.h"
#include "util/resilience.h"

namespace {

using namespace proxion;
using chain::ArchiveNode;
using chain::Blockchain;
using chain::CoalescingArchiveNode;
using chain::FaultInjectingArchiveNode;
using chain::FaultProfile;
using chain::ResilientArchiveNode;
using chain::RpcError;
using chain::StorageQuery;
using datagen::ContractFactory;
using evm::Address;
using evm::U256;

/// A chain with two accounts whose slots change at known historical heights,
/// then plenty of sealed history on top.
class ArchiveBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    deployer_ = Address::from_label("batch.deployer");
    a_ = chain_.deploy_runtime(deployer_, ContractFactory::token_contract(1));
    b_ = chain_.deploy_runtime(deployer_, ContractFactory::token_contract(2));
    chain_.mine_until(100);
    chain_.set_storage(a_, kSlot, U256{0xaaaa});
    chain_.set_storage(b_, kSlot, U256{0xb0b0});
    chain_.mine_until(500);
    chain_.set_storage(a_, kSlot, U256{0xaaab});
    chain_.mine_until(1000);
  }

  /// Probes across both accounts at a spread of heights, duplicates included.
  std::vector<StorageQuery> mixed_queries() const {
    return {
        {a_, kSlot, 50},  {a_, kSlot, 100}, {a_, kSlot, 300},
        {a_, kSlot, 500}, {a_, kSlot, 999}, {b_, kSlot, 100},
        {b_, kSlot, 700}, {a_, kSlot, 300},  // duplicate of [2]
    };
  }

  static constexpr U256 kSlot{7};
  Blockchain chain_;
  Address deployer_, a_, b_;
};

TEST_F(ArchiveBatchTest, BatchMatchesScalarCallByCall) {
  ArchiveNode node(chain_);
  const auto queries = mixed_queries();
  const auto batched = node.get_storage_at_many(queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], node.get_storage_at(queries[i].account,
                                              queries[i].slot,
                                              queries[i].block))
        << "query " << i;
  }
}

TEST_F(ArchiveBatchTest, BatchCountsOneCallPerQuery) {
  ArchiveNode node(chain_);
  node.reset_counters();
  const auto queries = mixed_queries();
  (void)node.get_storage_at_many(queries);
  EXPECT_EQ(node.get_storage_at_calls(), queries.size());
}

TEST_F(ArchiveBatchTest, DefaultBatchImplEqualsScalarLoop) {
  // A backend that only implements the scalar call inherits a batch method
  // that must agree with it exactly.
  class ScalarOnlyNode final : public chain::IArchiveNode {
   public:
    explicit ScalarOnlyNode(const Blockchain& chain) : chain_(chain) {}
    U256 get_storage_at(const Address& account, const U256& slot,
                        std::uint64_t block) const override {
      return chain_.storage_at(account, slot, block);
    }
    evm::Bytes get_code(const Address& account) const override {
      return chain_.code_at(account);
    }
    std::uint64_t latest_block() const override { return chain_.height(); }
    std::uint64_t get_storage_at_calls() const override { return 0; }
    std::uint64_t get_code_calls() const override { return 0; }
    void reset_counters() const override {}

   private:
    const Blockchain& chain_;
  };

  ScalarOnlyNode node(chain_);
  ArchiveNode reference(chain_);
  const auto queries = mixed_queries();
  EXPECT_EQ(node.get_storage_at_many(queries),
            reference.get_storage_at_many(queries));
}

TEST_F(ArchiveBatchTest, MidBatchFaultAbortsWholeBatchThenHealsCleanly) {
  ArchiveNode inner(chain_);
  FaultProfile profile;
  profile.seed = 21;
  profile.transient_rate = 0.5;  // some — not all — queries draw a fault
  profile.failures_per_fault = 1;
  FaultInjectingArchiveNode faulty(inner, profile);

  const auto queries = mixed_queries();
  const auto expected = inner.get_storage_at_many(queries);

  // The faulted batch throws as a whole: no partial results to corrupt.
  EXPECT_THROW((void)faulty.get_storage_at_many(queries), RpcError);
  EXPECT_GT(faulty.injected_faults(), 0u);

  // One batch attempt consumes every armed key's fault budget (scalar
  // parity: one attempt per key), so with single-failure budgets the very
  // next retry succeeds — and its results are the true values, nothing
  // stale or shifted by the earlier abort.
  EXPECT_EQ(faulty.get_storage_at_many(queries), expected);
}

TEST_F(ArchiveBatchTest, ResilientNodeRetriesTheWholeBatch) {
  ArchiveNode inner(chain_);
  FaultProfile profile;
  profile.seed = 33;
  profile.transient_rate = 0.6;
  profile.failures_per_fault = 2;
  FaultInjectingArchiveNode faulty(inner, profile);

  // Every faulty key fails twice and each batch attempt burns one failure
  // per armed key, so the third attempt goes clean — comfortably inside
  // the default-sized retry ladder, exactly as the scalar path would be.
  util::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.base_delay_us = 1;
  retry.max_delay_us = 10;
  ResilientArchiveNode node(faulty, retry, {}, [](std::uint32_t) {});

  const auto queries = mixed_queries();
  EXPECT_EQ(node.get_storage_at_many(queries),
            inner.get_storage_at_many(queries));
  EXPECT_GT(node.retries(), 0u);
  EXPECT_EQ(node.giveups(), 0u);
}

// ---------------------------------------------------------------------------
// CoalescingArchiveNode
// ---------------------------------------------------------------------------

TEST_F(ArchiveBatchTest, CoalescerAnswersRepeatProbesFromCache) {
  ArchiveNode inner(chain_);
  CoalescingArchiveNode node(inner);

  const U256 first = node.get_storage_at(a_, kSlot, 300);
  const std::uint64_t backend_after_first = inner.get_storage_at_calls();
  const U256 second = node.get_storage_at(a_, kSlot, 300);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, chain_.storage_at(a_, kSlot, 300));
  EXPECT_EQ(inner.get_storage_at_calls(), backend_after_first)
      << "repeat probe hit the backend";
  EXPECT_GE(node.stats().exact_hits, 1u);
}

TEST_F(ArchiveBatchTest, CoalescerBridgesEqualValuedSealedPoints) {
  ArchiveNode inner(chain_);
  CoalescingArchiveNode node(inner);

  // Slot a/kSlot holds 0xaaaa throughout [100, 499]. Seal the endpoints...
  ASSERT_EQ(node.get_storage_at(a_, kSlot, 150), U256{0xaaaa});
  ASSERT_EQ(node.get_storage_at(a_, kSlot, 450), U256{0xaaaa});
  const std::uint64_t backend = inner.get_storage_at_calls();
  // ...and every probe strictly inside the interval is answered from cache.
  EXPECT_EQ(node.get_storage_at(a_, kSlot, 300), U256{0xaaaa});
  EXPECT_EQ(inner.get_storage_at_calls(), backend);
  EXPECT_GE(node.stats().interval_hits, 1u);

  // But a probe outside the interval (where the value differs) still goes to
  // the backend and returns the true value.
  EXPECT_EQ(node.get_storage_at(a_, kSlot, 600), U256{0xaaab});
  EXPECT_GT(inner.get_storage_at_calls(), backend);
}

TEST_F(ArchiveBatchTest, HeadProbesAreNeverCached) {
  ArchiveNode inner(chain_);
  CoalescingArchiveNode node(inner);

  const std::uint64_t head = node.latest_block();
  const U256 before = node.get_storage_at(a_, kSlot, head);
  EXPECT_EQ(node.cached_points(), 0u)
      << "an open-block observation was sealed into the cache";

  // The open block can still be rewritten; the coalescer must see it.
  chain_.set_storage(a_, kSlot, U256{0xfeed});
  const U256 after = node.get_storage_at(a_, kSlot, head);
  EXPECT_NE(before, after);
  EXPECT_EQ(after, U256{0xfeed});
}

TEST_F(ArchiveBatchTest, InvalidateDropsOneSlotClearDropsAll) {
  ArchiveNode inner(chain_);
  CoalescingArchiveNode node(inner);

  (void)node.get_storage_at(a_, kSlot, 200);
  (void)node.get_storage_at(b_, kSlot, 200);
  ASSERT_EQ(node.cached_points(), 2u);

  // Dropping a_'s timeline (e.g. after an impl-slot write the test harness
  // made underneath us) forces the next probe back to the backend.
  node.invalidate(a_, kSlot);
  EXPECT_EQ(node.cached_points(), 1u);
  const std::uint64_t backend = inner.get_storage_at_calls();
  EXPECT_EQ(node.get_storage_at(a_, kSlot, 200),
            chain_.storage_at(a_, kSlot, 200));
  EXPECT_GT(inner.get_storage_at_calls(), backend);

  node.clear();
  EXPECT_EQ(node.cached_points(), 0u);
}

TEST_F(ArchiveBatchTest, InvalidationSeesRewrittenHistoryAfterHarnessWrite) {
  // Simulated-chain tests rewrite storage between sweeps. A consumer that
  // invalidates (or clears) after such a write must observe the new history.
  ArchiveNode inner(chain_);
  CoalescingArchiveNode node(inner);

  const std::uint64_t h = chain_.height();
  ASSERT_EQ(node.get_storage_at(a_, kSlot, 999), U256{0xaaab});
  chain_.set_storage(a_, kSlot, U256{0xd00d});  // write at the open block
  chain_.mine_until(h + 10);                    // seal it
  node.invalidate(a_, kSlot);
  EXPECT_EQ(node.get_storage_at(a_, kSlot, h + 5), U256{0xd00d});
  EXPECT_EQ(node.get_storage_at(a_, kSlot, 999), U256{0xaaab});
}

TEST_F(ArchiveBatchTest, CoalescedBatchMatchesUncoalescedResults) {
  ArchiveNode plain(chain_);
  ArchiveNode backing(chain_);
  CoalescingArchiveNode node(backing);

  const auto queries = mixed_queries();
  const auto expected = plain.get_storage_at_many(queries);
  // Twice: the second pass is served (mostly) from cache and must still be
  // element-for-element identical.
  EXPECT_EQ(node.get_storage_at_many(queries), expected);
  EXPECT_EQ(node.get_storage_at_many(queries), expected);
  EXPECT_LT(backing.get_storage_at_calls(), 2 * queries.size());
}

TEST_F(ArchiveBatchTest, LargeBatchWithDuplicatesCountsEachDistinctProbeOnce) {
  // A batch the size of many proxies' bisection frontiers: 2,000 probes over
  // 500 distinct (account, height) pairs, each asked four times, scattered.
  ArchiveNode plain(chain_);
  ArchiveNode backing(chain_);
  CoalescingArchiveNode node(backing);

  std::vector<StorageQuery> queries;
  for (std::uint64_t k = 0; k < 2'000; ++k) {
    const std::uint64_t probe = (k * 7) % 500;
    queries.push_back({probe % 2 == 0 ? a_ : b_, kSlot, probe});
  }
  const auto expected = plain.get_storage_at_many(queries);
  EXPECT_EQ(node.get_storage_at_many(queries), expected);

  const auto s = node.stats();
  EXPECT_EQ(s.misses, 500u);
  EXPECT_EQ(s.exact_hits + s.interval_hits, 0u);
  EXPECT_EQ(backing.get_storage_at_calls(), 500u);
}

TEST_F(ArchiveBatchTest, FailedFetchCachesNothing) {
  ArchiveNode inner(chain_);
  FaultProfile profile;
  profile.seed = 77;
  profile.transient_rate = 1.0;
  profile.failures_per_fault = 1;
  FaultInjectingArchiveNode faulty(inner, profile);
  CoalescingArchiveNode node(faulty);

  const auto queries = mixed_queries();
  EXPECT_THROW((void)node.get_storage_at_many(queries), RpcError);
  EXPECT_EQ(node.cached_points(), 0u)
      << "a failed batch leaked observations into the cache";

  // The failed attempt consumed every key's single-failure budget, so the
  // same batch now succeeds with true values.
  const auto expected = inner.get_storage_at_many(queries);
  EXPECT_EQ(node.get_storage_at_many(queries), expected);
}

TEST_F(ArchiveBatchTest, ConcurrentProbesShareBackendFetches) {
  ArchiveNode inner(chain_);
  CoalescingArchiveNode node(inner, /*shards=*/4);

  // Every thread probes the same probe set; TSan patrols the shard locks,
  // the condition-variable waits, and the in-flight ownership handoff.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kHeights[] = {100, 250, 250, 500, 750, 999};
  std::vector<std::vector<U256>> seen(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (const std::uint64_t h : kHeights) {
          seen[static_cast<std::size_t>(t)].push_back(
              node.get_storage_at(a_, kSlot, h));
        }
      });
    }
    for (auto& th : threads) th.join();
  }

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(seen[static_cast<std::size_t>(t)].size(), std::size(kHeights));
    for (std::size_t i = 0; i < std::size(kHeights); ++i) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t)][i],
                chain_.storage_at(a_, kSlot, kHeights[i]))
          << "thread " << t << " height " << kHeights[i];
    }
  }
  // Coalescing must have collapsed most of the 48 probes; the backend can
  // have been asked at most once per distinct height per race window, and
  // with 8 threads over 5 distinct heights anything close to 48 means the
  // cache never engaged.
  const auto s = node.stats();
  EXPECT_EQ(s.exact_hits + s.interval_hits + s.misses,
            static_cast<std::uint64_t>(kThreads) * std::size(kHeights));
  EXPECT_LT(s.misses, static_cast<std::uint64_t>(kThreads) *
                          std::size(kHeights) / 2);
}

}  // namespace

// The always-on service layer: chain follower + lock-free query plane.
// Covers bit-identity of the followed snapshot against a cold batch sweep
// at the same head, fast-forward on empty blocks, quarantine healing
// through an impl-slot write, same-block deploy+upgrade, concurrent
// scrapes during snapshot swaps (the TSan leg), the /v1 JSON schemas from
// docs/QUERY_API.md, and HTTP prefix routing over a real loopback socket.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/report.h"
#include "datagen/contract_factory.h"
#include "datagen/population.h"
#include "obs/export.h"
#include "obs/http.h"
#include "serve/follower.h"
#include "serve/query_service.h"
#include "store/durable_sweep.h"
#include "store/journal.h"
#include "store/records.h"

namespace {

using namespace proxion;

namespace fs = std::filesystem;

std::string temp_journal(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "proxion_serve_tests";
  fs::create_directories(dir);
  const fs::path p = dir / name;
  fs::remove(p);
  fs::remove(store::manifest_path_for(p.string()));
  return p.string();
}

datagen::Population make_population(std::uint32_t n = 500) {
  datagen::PopulationSpec spec;
  spec.total_contracts = n;
  return datagen::PopulationGenerator().generate(spec);
}

int year_of_block(std::uint64_t block) {
  const std::uint64_t year = datagen::PopulationGenerator::kFirstYear +
                             block / datagen::PopulationGenerator::kBlocksPerYear;
  return static_cast<int>(std::min<std::uint64_t>(
      year, datagen::PopulationGenerator::kLastYear));
}

serve::ChainFollowerConfig follower_config(obs::SweepStatus* status = nullptr) {
  serve::ChainFollowerConfig config;
  config.year_of_block = year_of_block;
  config.status = status;
  return config;
}

evm::Address find_archetype(const datagen::Population& pop,
                            datagen::Archetype a, std::size_t skip = 0) {
  for (const auto& c : pop.contracts) {
    if (c.archetype != a) continue;
    if (skip > 0) {
      --skip;
      continue;
    }
    return c.address;
  }
  return {};
}

std::vector<core::VerdictRow> sorted_rows(const serve::Snapshot& snap) {
  std::vector<core::VerdictRow> rows = snap.rows;
  std::sort(rows.begin(), rows.end(),
            [](const core::VerdictRow& a, const core::VerdictRow& b) {
              return a.address < b.address;
            });
  return rows;
}

/// Absorb the population generator's open-block tail: one empty block plus a
/// poll so later polls see only the blocks the test itself mines.
void settle(datagen::Population& pop, serve::ChainFollower& follower) {
  follower.poll();
  pop.chain->mine_block();
  follower.poll();
}

// Blocking one-shot GET against 127.0.0.1:port; returns the full response
// (status line + headers + body) or "" on connect failure.
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

// ---------------------------------------------------------------------------
// VulnClass names.

TEST(VulnClassTest, NamesRoundTrip) {
  for (std::size_t i = 0; i < serve::kVulnClassCount; ++i) {
    const auto c = static_cast<serve::VulnClass>(i);
    const auto parsed = serve::vuln_class_from_name(serve::to_string(c));
    ASSERT_TRUE(parsed.has_value()) << serve::to_string(c);
    EXPECT_EQ(*parsed, c);
  }
  EXPECT_FALSE(serve::vuln_class_from_name("bogus").has_value());
  EXPECT_FALSE(serve::vuln_class_from_name("").has_value());
}

TEST(VulnClassTest, LogicSourceNames) {
  EXPECT_EQ(core::to_string(core::LogicSource::kNone), "none");
  EXPECT_EQ(core::to_string(core::LogicSource::kHardcoded), "hardcoded");
  EXPECT_EQ(core::to_string(core::LogicSource::kStorageSlot), "storage-slot");
  EXPECT_EQ(core::to_string(core::LogicSource::kComputed), "computed");
}

// ---------------------------------------------------------------------------
// Follower vs cold batch sweep: bit identity at the same head.

TEST(ChainFollower, SnapshotMatchesColdBatchAfterFollowedMutations) {
  datagen::Population pop = make_population();
  core::PipelineConfig config;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("identity.journal");
  sc.shard_size = 200;
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);

  // Mixed workload: a deploy, an upgrade, an empty block, and a
  // deploy+same-block-upgrade, each sealed and absorbed before the next.
  const evm::Address deployer = evm::Address::from_label("identity-deployer");
  const evm::Address proxy =
      find_archetype(pop, datagen::Archetype::kEip1967Proxy);
  const evm::Address logic = find_archetype(pop, datagen::Archetype::kToken);
  ASSERT_FALSE(proxy.is_zero());
  ASSERT_FALSE(logic.is_zero());
  const evm::U256 slot = datagen::ContractFactory::eip1967_slot();

  pop.chain->deploy_runtime(deployer,
                            datagen::ContractFactory::token_contract(77));
  pop.chain->mine_block();
  follower.poll();

  pop.chain->set_storage(proxy, slot, logic.to_word());
  pop.chain->mine_block();
  follower.poll();

  pop.chain->mine_block();  // empty
  follower.poll();

  const evm::Address late_proxy = pop.chain->deploy_runtime(
      deployer, datagen::ContractFactory::eip1967_proxy());
  pop.chain->set_storage(late_proxy, slot, logic.to_word());
  pop.chain->mine_block();
  follower.poll();

  const std::uint64_t head = pop.chain->height();
  const std::shared_ptr<const serve::Snapshot> live = query.snapshot();
  EXPECT_EQ(live->head_block, head);

  // Cold: a fresh pipeline + sweep over the follower's own input list at the
  // same head must produce bit-identical verdict rows.
  const std::vector<core::SweepInput> inputs = follower.inputs();
  core::AnalysisPipeline cold_pipe(*pop.chain, &pop.sources, config);
  serve::QueryService cold_query;
  store::DurableSweepConfig cold_sc;
  cold_sc.journal_path = temp_journal("identity_cold.journal");
  cold_sc.shard_size = 200;
  cold_sc.record_sink = [&](std::span<const store::ContractRecord> records) {
    cold_query.apply_records(records);
  };
  store::DurableSweep cold(cold_pipe, *pop.chain, &pop.sources, cold_sc);
  const store::DurableSweepResult result = cold.run(inputs);
  ASSERT_TRUE(result.error.empty()) << result.error;
  cold_query.publish(head);
  const std::shared_ptr<const serve::Snapshot> batch = cold_query.snapshot();

  ASSERT_EQ(live->rows.size(), batch->rows.size());
  EXPECT_EQ(live->proxies, batch->proxies);
  EXPECT_EQ(live->quarantined, batch->quarantined);
  const std::vector<core::VerdictRow> a = sorted_rows(*live);
  const std::vector<core::VerdictRow> b = sorted_rows(*batch);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "row " << i << " (" << a[i].address.to_hex()
                          << ") diverges from the cold batch sweep";
  }
}

TEST(ChainFollower, EmptyBlockFastForwardsWithoutResweep) {
  datagen::Population pop = make_population(300);
  core::PipelineConfig config;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("ff.journal");
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);

  const std::uint64_t laps = follower.stats().laps.load();
  const std::uint64_t ffs = follower.stats().fast_forwards.load();
  const std::uint64_t version = query.snapshot()->version;

  pop.chain->mine_block();  // nothing deployed, nothing written
  EXPECT_EQ(follower.poll(), 1u);

  EXPECT_EQ(follower.stats().laps.load(), laps) << "empty block caused a lap";
  EXPECT_EQ(follower.stats().fast_forwards.load(), ffs + 1);
  const std::shared_ptr<const serve::Snapshot> snap = query.snapshot();
  EXPECT_EQ(snap->head_block, pop.chain->height());
  EXPECT_GT(snap->version, version);  // stamp advanced without a resweep
}

TEST(ChainFollower, FollowerEventsAreCountersAndLevelsGauges) {
  // Laps, fast-forwards and absorbed blocks are events: counters that track
  // FollowerStats one for one. Head and snapshot facts are levels: gauges.
  datagen::Population pop = make_population(300);
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, {});
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("counters.journal");
  serve::QueryService query;
  obs::Registry reg;
  serve::ChainFollowerConfig fc = follower_config();
  fc.registry = &reg;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), fc);
  settle(pop, follower);
  pop.chain->mine_block();
  follower.poll();  // an empty block: a fast-forward

  const serve::FollowerStats& stats = follower.stats();
  ASSERT_GT(stats.laps.load(), 0u);
  ASSERT_GT(stats.fast_forwards.load(), 0u);
  const obs::Registry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("sweep.follower.laps"), stats.laps.load());
  EXPECT_EQ(snap.counters.at("sweep.follower.fast_forwards"),
            stats.fast_forwards.load());
  EXPECT_EQ(snap.counters.at("sweep.follower.blocks_processed"),
            stats.blocks_processed.load());
  for (const char* event :
       {"sweep.follower.laps", "sweep.follower.fast_forwards",
        "sweep.follower.blocks_processed"}) {
    EXPECT_EQ(snap.gauges.count(event), 0u) << event << " is also a gauge";
  }
  EXPECT_EQ(snap.gauges.at("sweep.follower.head"),
            static_cast<std::int64_t>(pop.chain->height()));
  EXPECT_EQ(snap.gauges.at("sweep.follower.staleness_blocks"), 0);
  EXPECT_EQ(snap.gauges.at("sweep.follower.snapshot_entries"),
            static_cast<std::int64_t>(stats.snapshot_entries.load()));
}

TEST(ChainFollower, ImplSlotWriteToQuarantinedContractHeals) {
  datagen::Population pop = make_population();
  core::PipelineConfig config;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("heal.journal");
  sc.shard_size = 200;
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);

  const evm::Address victim =
      find_archetype(pop, datagen::Archetype::kEip1967Proxy);
  const evm::Address new_logic =
      find_archetype(pop, datagen::Archetype::kToken);
  ASSERT_FALSE(victim.is_zero());
  ASSERT_FALSE(new_logic.is_zero());

  // Quarantine the victim in the journal, as a crash-adjacent RPC outage
  // would have: last-wins, so it supersedes the healthy record.
  const auto replay = store::read_journal(sc.journal_path);
  ASSERT_TRUE(replay.has_value());
  std::optional<store::ContractRecord> injected;
  for (const auto& frame : replay->frames) {
    if (frame.type != store::RecordType::kContract) continue;
    auto rec = store::decode_contract_record(frame.payload);
    ASSERT_TRUE(rec.has_value());
    if (rec->analysis.address == victim) injected = std::move(*rec);
  }
  ASSERT_TRUE(injected.has_value());
  injected->analysis.error = core::ErrorRecord{core::ErrorKind::kRpcExhausted,
                                               "pairs", "injected outage"};
  {
    auto writer = store::JournalWriter::open_append(sc.journal_path);
    ASSERT_TRUE(writer.has_value());
    ASSERT_TRUE(writer->append(store::RecordType::kContract,
                               store::encode_contract_record(*injected)));
    ASSERT_TRUE(writer->sync());
  }

  // The very contract the journal now quarantines gets an impl-slot write:
  // the next lap must recompute it, not replay the poisoned record.
  pop.chain->set_storage(victim, datagen::ContractFactory::eip1967_slot(),
                         new_logic.to_word());
  pop.chain->mine_block();
  follower.poll();
  EXPECT_EQ(follower.last_error(), "");

  const std::shared_ptr<const serve::Snapshot> snap = query.snapshot();
  const auto it = snap->by_address.find(victim);
  ASSERT_NE(it, snap->by_address.end());
  const core::VerdictRow& row = snap->rows[it->second];
  EXPECT_FALSE(row.quarantined);
  EXPECT_EQ(row.verdict, core::ProxyVerdict::kProxy);
  EXPECT_EQ(row.logic_address, new_logic);
  EXPECT_EQ(row.logic_source, core::LogicSource::kStorageSlot);
}

TEST(ChainFollower, DeployAndSameBlockUpgradeServesPostUpgradeImpl) {
  datagen::Population pop = make_population(300);
  core::PipelineConfig config;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("sameblock.journal");
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);

  const evm::Address impl = find_archetype(pop, datagen::Archetype::kToken);
  ASSERT_FALSE(impl.is_zero());
  const evm::Address deployer = evm::Address::from_label("sameblock-deployer");
  const evm::Address proxy = pop.chain->deploy_runtime(
      deployer, datagen::ContractFactory::eip1967_proxy());
  pop.chain->set_storage(proxy, datagen::ContractFactory::eip1967_slot(),
                         impl.to_word());
  pop.chain->mine_block();
  const std::uint64_t discovered_before =
      follower.stats().contracts_discovered.load();
  follower.poll();

  EXPECT_EQ(follower.stats().contracts_discovered.load(),
            discovered_before + 1);
  const std::shared_ptr<const serve::Snapshot> snap = query.snapshot();
  const auto it = snap->by_address.find(proxy);
  ASSERT_NE(it, snap->by_address.end());
  const core::VerdictRow& row = snap->rows[it->second];
  EXPECT_EQ(row.verdict, core::ProxyVerdict::kProxy);
  EXPECT_EQ(row.standard, core::ProxyStandard::kEip1967);
  EXPECT_EQ(row.logic_address, impl);
}

// The TSan leg: readers hammer the snapshot and the JSON renderers while
// the follower's background thread publishes new snapshots.
TEST(ChainFollower, ConcurrentScrapeDuringSnapshotSwap) {
  datagen::Population pop = make_population(300);
  core::PipelineConfig config;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("swap.journal");
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);

  const evm::Address proxy =
      find_archetype(pop, datagen::Archetype::kEip1967Proxy);
  ASSERT_FALSE(proxy.is_zero());
  const std::string proxy_hex = proxy.to_hex();

  follower.start();
  // Fence the catch-up poll start() schedules before mutating the chain —
  // the single-writer contract from serve/follower.h.
  ASSERT_TRUE(follower.wait_synced(pop.chain->height()));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<const serve::Snapshot> snap = query.snapshot();
        ASSERT_NE(snap, nullptr);
        ASSERT_EQ(snap->rows.size(), snap->by_address.size());
        const obs::HttpResponse r = query.contract_endpoint(proxy_hex);
        ASSERT_EQ(r.status, 200);
        const obs::HttpResponse s = follower.status_endpoint();
        ASSERT_EQ(s.status, 200);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::size_t wave = 0; wave < 6; ++wave) {
    const evm::Address impl =
        find_archetype(pop, datagen::Archetype::kToken, wave);
    ASSERT_FALSE(impl.is_zero());
    pop.chain->set_storage(proxy, datagen::ContractFactory::eip1967_slot(),
                           impl.to_word());
    pop.chain->mine_block();
    ASSERT_TRUE(follower.wait_synced(pop.chain->height()));
  }

  stop.store(true);
  for (std::thread& t : readers) t.join();
  follower.stop();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GE(follower.stats().laps.load(), 6u);
}

// ---------------------------------------------------------------------------
// /v1 JSON schemas — the normative shapes from docs/QUERY_API.md.

class QueryApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pop_ = make_population();
    pipeline_.emplace(*pop_->chain, &pop_->sources, config_);
    sc_.journal_path = temp_journal("api.journal");
    follower_.emplace(*pipeline_, *pop_->chain, &pop_->sources, sc_, query_,
                      pop_->sweep_inputs(), follower_config());
    settle(*pop_, *follower_);
  }

  std::optional<datagen::Population> pop_;
  core::PipelineConfig config_;
  std::optional<core::AnalysisPipeline> pipeline_;
  store::DurableSweepConfig sc_;
  serve::QueryService query_;
  std::optional<serve::ChainFollower> follower_;
};

TEST_F(QueryApiTest, ContractResponseCarriesEveryDocumentedField) {
  const evm::Address proxy =
      find_archetype(*pop_, datagen::Archetype::kEip1967Proxy);
  const obs::HttpResponse r = query_.contract_endpoint(proxy.to_hex());
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "application/json");
  for (const char* field :
       {"\"head_block\":", "\"snapshot_version\":", "\"address\":",
        "\"code_hash\":", "\"year\":", "\"verdict\":", "\"standard\":",
        "\"hidden\":", "\"has_source\":", "\"has_tx\":", "\"deduplicated\":",
        "\"quarantined\":", "\"error_kind\":", "\"logic\":", "\"source\":",
        "\"logic_address\":", "\"slot\":", "\"upgrade_events\":", "\"vulns\":",
        "\"function_collision\":", "\"storage_collision\":",
        "\"storage_collision_exploitable\":", "\"family_collision\":"}) {
    EXPECT_NE(r.body.find(field), std::string::npos) << field;
  }
  EXPECT_NE(r.body.find("\"verdict\":\"proxy\""), std::string::npos);
  EXPECT_NE(r.body.find("\"standard\":\"EIP-1967\""), std::string::npos);
  EXPECT_NE(r.body.find("\"source\":\"storage-slot\""), std::string::npos);
  EXPECT_NE(r.body.find("\"error_kind\":null"), std::string::npos);
}

TEST_F(QueryApiTest, CodehashResponseListsCloneFamily) {
  const evm::Address proxy =
      find_archetype(*pop_, datagen::Archetype::kMinimalProxy);
  const std::shared_ptr<const serve::Snapshot> snap = query_.snapshot();
  const auto it = snap->by_address.find(proxy);
  ASSERT_NE(it, snap->by_address.end());
  const std::string hash_hex =
      "0x" + crypto::to_hex(snap->rows[it->second].code_hash);

  const obs::HttpResponse r = query_.codehash_endpoint(hash_hex);
  ASSERT_EQ(r.status, 200);
  for (const char* field : {"\"head_block\":", "\"snapshot_version\":",
                            "\"code_hash\":", "\"count\":", "\"truncated\":",
                            "\"addresses\":"}) {
    EXPECT_NE(r.body.find(field), std::string::npos) << field;
  }
  EXPECT_NE(r.body.find(proxy.to_hex()), std::string::npos);
}

TEST_F(QueryApiTest, VulnsResponseFiltersByClass) {
  const obs::HttpResponse r = query_.vulns_endpoint("class=function_collision");
  ASSERT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"class\":\"function_collision\""),
            std::string::npos);
  for (const char* field :
       {"\"head_block\":", "\"count\":", "\"truncated\":", "\"addresses\":"}) {
    EXPECT_NE(r.body.find(field), std::string::npos) << field;
  }
  // Every listed address really carries the flag in the snapshot.
  const std::shared_ptr<const serve::Snapshot> snap = query_.snapshot();
  for (const std::uint32_t index :
       snap->by_vuln[static_cast<std::size_t>(
           serve::VulnClass::kFunctionCollision)]) {
    EXPECT_TRUE(snap->rows[index].function_collision);
  }
}

TEST_F(QueryApiTest, TruncationReportsFullCount) {
  const std::shared_ptr<const serve::Snapshot> snap = query_.snapshot();
  std::size_t vulnerable = 0;
  for (const core::VerdictRow& row : snap->rows) {
    vulnerable += row.function_collision ? 1 : 0;
  }
  ASSERT_GT(vulnerable, 2u) << "population lost its collision family";

  // The default cap is generous enough for the whole family...
  const obs::HttpResponse full =
      query_.vulns_endpoint("class=function_collision");
  ASSERT_EQ(full.status, 200);
  EXPECT_NE(full.body.find("\"truncated\":false"), std::string::npos);
  EXPECT_NE(full.body.find("\"count\":" + std::to_string(vulnerable)),
            std::string::npos);

  // ...a capped service (fed the same records, replayed from the journal)
  // truncates the list but still reports the full count.
  serve::QueryServiceConfig small;
  small.max_results = 2;
  serve::QueryService capped(small);
  const auto replay = store::read_journal(sc_.journal_path);
  ASSERT_TRUE(replay.has_value());
  for (const auto& frame : replay->frames) {
    if (frame.type != store::RecordType::kContract) continue;
    auto rec = store::decode_contract_record(frame.payload);
    ASSERT_TRUE(rec.has_value());
    capped.apply_records({&*rec, 1});
  }
  capped.publish(snap->head_block);
  const obs::HttpResponse r = capped.vulns_endpoint("class=function_collision");
  ASSERT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"truncated\":true"), std::string::npos);
  EXPECT_NE(r.body.find("\"count\":" + std::to_string(vulnerable)),
            std::string::npos);
}

TEST_F(QueryApiTest, ErrorShapesAreUniform) {
  struct Case {
    obs::HttpResponse resp;
    int status;
    const char* code;
  };
  const Case cases[] = {
      {query_.contract_endpoint("0x1234"), 400, "bad_address"},
      {query_.contract_endpoint(evm::Address{}.to_hex()), 404, "not_found"},
      {query_.codehash_endpoint("zz"), 400, "bad_hash"},
      {query_.codehash_endpoint(std::string(64, '0')), 404, "not_found"},
      {query_.vulns_endpoint(""), 400, "missing_class"},
      {query_.vulns_endpoint("class=bogus"), 400, "unknown_class"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.resp.status, c.status) << c.code;
    EXPECT_NE(c.resp.body.find(std::string("\"error\":\"") + c.code + "\""),
              std::string::npos)
        << c.resp.body;
    EXPECT_NE(c.resp.body.find("\"detail\":"), std::string::npos) << c.code;
  }
}

TEST_F(QueryApiTest, StatusReportsFollowerCounters) {
  const obs::HttpResponse r = follower_->status_endpoint();
  ASSERT_EQ(r.status, 200);
  for (const char* field :
       {"\"following\":", "\"chain_head\":", "\"snapshot_head\":",
        "\"staleness_blocks\":", "\"snapshot_version\":",
        "\"snapshot_entries\":", "\"laps\":", "\"fast_forwards\":",
        "\"blocks_processed\":", "\"contracts_discovered\":",
        "\"last_lap_us\":", "\"degraded\":", "\"last_error\":"}) {
    EXPECT_NE(r.body.find(field), std::string::npos) << field;
  }
  EXPECT_NE(r.body.find("\"staleness_blocks\":0"), std::string::npos);
  EXPECT_NE(r.body.find("\"last_error\":\"\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// The /healthz phase between laps, and HTTP routing over a real socket.

TEST(ChainFollower, HealthzReportsFollowingPhaseBetweenLaps) {
  datagen::Population pop = make_population(300);
  obs::SweepStatus status;
  core::PipelineConfig config;
  config.telemetry.status = &status;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("phase.journal");
  sc.status = &status;
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config(&status));
  follower.poll();

  // Between laps the process is live-following, not stuck in the last batch
  // phase the sweep happened to end on.
  EXPECT_EQ(status.get_phase(), obs::SweepPhase::kFollowing);
  obs::Registry reg;
  obs::ExporterConfig exp_config;
  exp_config.interval_ms = 0;
  exp_config.clock = [] { return std::uint64_t{1}; };
  obs::Exporter exporter({&reg}, exp_config);
  const std::string json = exporter.render_healthz(&status);
  EXPECT_NE(json.find("\"phase\":\"following\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
}

TEST(QueryHttp, PrefixRoutingServesV1OverLoopback) {
  datagen::Population pop = make_population(300);
  core::PipelineConfig config;
  core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
  store::DurableSweepConfig sc;
  sc.journal_path = temp_journal("http.journal");
  serve::QueryService query;
  serve::ChainFollower follower(pipeline, *pop.chain, &pop.sources, sc, query,
                                pop.sweep_inputs(), follower_config());
  settle(pop, follower);

  obs::HttpServer server;
  query.register_endpoints(server);
  follower.register_status_endpoint(server);
  ASSERT_TRUE(server.start(0));

  const evm::Address proxy =
      find_archetype(pop, datagen::Archetype::kEip1967Proxy);
  const std::string ok =
      http_get(server.port(), "/v1/contract/" + proxy.to_hex());
  EXPECT_NE(ok.find("200"), std::string::npos);
  EXPECT_NE(ok.find("\"verdict\":\"proxy\""), std::string::npos);

  const std::string status = http_get(server.port(), "/v1/status");
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_NE(status.find("\"staleness_blocks\":"), std::string::npos);

  const std::string vulns =
      http_get(server.port(), "/v1/vulns?class=storage_collision");
  EXPECT_NE(vulns.find("200"), std::string::npos);
  EXPECT_NE(vulns.find("\"class\":\"storage_collision\""), std::string::npos);

  const std::string bad = http_get(server.port(), "/v1/contract/nope");
  EXPECT_NE(bad.find("400"), std::string::npos);
  EXPECT_NE(bad.find("bad_address"), std::string::npos);

  const std::string missing = http_get(server.port(), "/v1/unknown");
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.stop();
}

}  // namespace

#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>

#include <malloc.h>
#include <unistd.h>

#include "chain/archive_node.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "crypto/keccak.h"
#include "datagen/contract_factory.h"
#include "datagen/population.h"
#include "evm/types.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "replay.h"
#include "serve/follower.h"
#include "serve/query_service.h"
#include "store/durable_sweep.h"

namespace perfbench {

namespace chain = proxion::chain;
namespace core = proxion::core;
namespace crypto = proxion::crypto;
namespace datagen = proxion::datagen;
namespace evm = proxion::evm;
namespace obs = proxion::obs;
namespace serve = proxion::serve;
namespace store = proxion::store;

namespace {

// ---- workload shapes ----------------------------------------------------------

constexpr std::uint32_t kColdPopulation = 100'000;
constexpr std::uint32_t kRttPopulation = 12'000;
constexpr std::uint32_t kFollowPopulation = 3'000;
/// Archive round-trip model of sweep_rtt.
constexpr std::uint64_t kRttNs = 200'000;
constexpr std::uint64_t kPerItemNs = 5'000;
/// Set-ups per run (setup_s is their median): at least kMinSetups, and more
/// while they have taken under kMinSetupS in total. The same set-up's CPU
/// time moves by up to half between repeats on a shared host, so a 0.1 s
/// set-up gets a median over some 50 samples spread across 5 s.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 80;
constexpr double kMinSetupS = 5.0;
/// Open-loop /v1 request rate (per second) of the single client thread.
constexpr double kRequestRate = 800.0;
/// follow_serve block cadence.
constexpr double kBlockPeriodS = 0.05;
constexpr int kSyncTimeoutMs = 30'000;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

bool more_setups(const std::vector<double>& done) {
  double total = 0;
  for (const double t : done) total += t;
  const int n = static_cast<int>(done.size());
  return n < kMinSetups || (n < kMaxSetups && total < kMinSetupS);
}

/// Hardware threads: the sweeps' pool size and follow_serve's thread budget.
unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void print_setups(const std::vector<double>& setup_s) {
  std::printf("setup: %zu set-ups, s min %.4f p25 %.4f median %.4f p75 %.4f "
              "max %.4f\n",
              setup_s.size(), percentile(setup_s, 0), percentile(setup_s, 25),
              median(setup_s), percentile(setup_s, 75),
              percentile(setup_s, 100));
}

void sleep_until(double t) {
  const double dt = t - now_s();
  if (dt > 0) std::this_thread::sleep_for(std::chrono::duration<double>(dt));
}

std::uint64_t global_counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

std::string hash_hex(const crypto::Hash256& h) {
  return "0x" + crypto::to_hex(h);
}

/// Named per-unit samples (one value per sweep or per lap), reduced to
/// their median when reported.
class Samples {
 public:
  void add(const std::string& name, double v) { s_[name].push_back(v); }
  double median_of(const std::string& name) const {
    const auto it = s_.find(name);
    return it == s_.end() ? 0.0 : median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> s_;
};

datagen::Population generate(std::uint64_t seed, std::uint32_t size) {
  datagen::PopulationSpec spec;
  spec.seed = seed;
  spec.total_contracts = size;
  return datagen::PopulationGenerator().generate(spec);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// ---- ground truth -------------------------------------------------------------

/// One contract's verdict as the fields datagen labels.
struct Verdict {
  bool is_proxy = false;
  evm::Address logic;
  std::uint64_t upgrades = 0;
  bool function_collision = false;
  bool storage_collision = false;
};

Verdict verdict_of(const core::ContractAnalysis& a) {
  return {a.proxy.is_proxy(), a.proxy.logic_address,
          a.logic_history.upgrade_events, a.function_collision,
          a.storage_collision};
}

Verdict verdict_of(const core::VerdictRow& r) {
  return {r.verdict == core::ProxyVerdict::kProxy, r.logic_address,
          r.upgrade_events, r.function_collision, r.storage_collision};
}

/// Misses the program is known to make today. They are reported like every
/// other miss and counted in truth_mismatches; the label only names them.
const char* known_miss(datagen::Archetype a, const std::string& field) {
  if (a == datagen::Archetype::kDiamondProxy) {
    return "known miss: EIP-2535 diamonds (paper 8.1)";
  }
  if (a == datagen::Archetype::kBeaconProxy &&
      (field == "logic_address" || field == "function_collision")) {
    return "known miss: beacon proxies report the beacon path's logic";
  }
  return nullptr;
}

struct TruthDiff {
  std::uint64_t total = 0;
  std::uint64_t compared = 0;
  std::map<std::string, std::uint64_t> by_field;
  std::map<std::pair<std::string, std::string>, std::uint64_t> by_archetype;
};

TruthDiff diff_truth(const std::vector<datagen::DeployedContract>& truth,
                     const std::vector<Verdict>& got) {
  TruthDiff d;
  auto miss = [&](const datagen::DeployedContract& c, const char* field) {
    ++d.total;
    ++d.by_field[field];
    const std::pair<std::string, std::string> key{
        std::string(datagen::to_string(c.archetype)), field};
    ++d.by_archetype[key];
  };
  for (std::size_t i = 0; i < truth.size() && i < got.size(); ++i) {
    const datagen::DeployedContract& c = truth[i];
    const Verdict& v = got[i];
    d.compared += 5;
    if (v.is_proxy != c.is_proxy_truth) miss(c, "is_proxy");
    if (c.is_proxy_truth && v.logic != c.logic_truth) miss(c, "logic_address");
    if (v.upgrades != c.upgrades_truth) miss(c, "upgrade_count");
    if (v.function_collision != c.function_collision_truth) {
      miss(c, "function_collision");
    }
    if (v.storage_collision != c.storage_collision_truth) {
      miss(c, "storage_collision");
    }
  }
  return d;
}

void print_truth(const TruthDiff& d,
                 const std::vector<datagen::DeployedContract>& truth) {
  std::map<std::string, datagen::Archetype> arch_by_name;
  for (const auto& c : truth) {
    arch_by_name.emplace(std::string(datagen::to_string(c.archetype)),
                         c.archetype);
  }
  std::printf("truth_mismatches = %llu count (of %llu (contract, field) "
              "verdicts against datagen ground truth)\n",
              static_cast<unsigned long long>(d.total),
              static_cast<unsigned long long>(d.compared));
  for (const auto& [field, n] : d.by_field) {
    std::printf("truth:   field %-20s %8llu\n", field.c_str(),
                static_cast<unsigned long long>(n));
  }
  for (const auto& [key, n] : d.by_archetype) {
    const char* label = known_miss(arch_by_name[key.first], key.second);
    std::printf("truth:   %-20s %-20s %8llu  %s\n", key.first.c_str(),
                key.second.c_str(), static_cast<unsigned long long>(n),
                label != nullptr ? label : "NOT a known miss");
  }
}

// ---- open-loop /v1 client -------------------------------------------------------

struct ClientTally {
  explicit ClientTally(double start, double rate) : schedule(start, rate) {}
  OpenLoopSchedule schedule;
  std::vector<double> connect_s;
  std::vector<double> ttfb_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Requests for a just-changed address that the snapshot did not hold yet.
  std::uint64_t not_yet_visible = 0;
  std::vector<std::string> errors;  // first few failures, for the report

  void note_failure(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

/// Sends requests open-loop, one at a time from this thread: request i is
/// due at start + i/rate and is timed from then, so the thread's wake-up
/// latency is charged to the request (its timer slack is cut to 1 ns to
/// keep that small). `pick(i)` names the target; `judge(target, result,
/// done_s)` returns false for a failed answer. Stops at `end_s` or when
/// `stop` turns true.
template <class Pick, class Judge>
void run_client(std::uint16_t port, double end_s, const std::atomic<bool>* stop,
                ClientTally& tally, Pick pick, Judge judge) {
  use_precise_timers();
  for (std::uint64_t i = 0;; ++i) {
    const double due = tally.schedule.due(i);
    if (due >= end_s) break;
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    sleep_until(due);
    const std::string target = pick(i);
    const double sent = now_s();
    const HttpResult r = http_get(port, target);
    const double done = now_s();
    tally.schedule.record(i, sent, done);
    ++tally.attempted;
    tally.connect_s.push_back(r.connect_s);
    tally.ttfb_s.push_back(r.ttfb_s);
    if (!r.ok) {
      tally.note_failure(target + ": " + r.error);
    } else if (!judge(target, r, done)) {
      tally.note_failure(target + ": status " + std::to_string(r.status));
    }
  }
}

void add_client_layers(Samples& s, const ClientTally& t,
                       std::uint64_t served) {
  s.add("obs.http_connect_us_p50", percentile(t.connect_s, 50) * 1e6);
  s.add("obs.http_ttfb_us_p99", percentile(t.ttfb_s, 99) * 1e6);
  s.add("obs.http_served", static_cast<double>(served));
  s.add("obs.generator_lag_ms_max", t.schedule.max_lag_s() * 1e3);
}

void print_client(const ClientTally& t) {
  const std::size_t n = t.schedule.recorded();
  const std::optional<double> p = highest_supported_percentile(n);
  const std::vector<double>& lat = t.schedule.latencies_s();
  std::printf("v1: %llu requests (%.0f/s open loop), %llu failed, %llu "
              "not-yet-visible; highest supported percentile: %s\n",
              static_cast<unsigned long long>(t.attempted), kRequestRate,
              static_cast<unsigned long long>(t.failed),
              static_cast<unsigned long long>(t.not_yet_visible),
              p ? ("p" + fmt(*p)).c_str() : "none");
  std::printf("also: v1_latency_us_p50 = %.6g us; v1_latency_us_p90 = %.6g us;"
              " v1_latency_us_p99 = %.6g us; generator lag max %.6g ms\n",
              percentile(lat, 50) * 1e6, percentile(lat, 90) * 1e6,
              percentile(lat, 99) * 1e6,
              t.schedule.max_lag_s() * 1e3);
  for (const std::string& e : t.errors) std::printf("v1: failure %s\n", e.c_str());
}

const char* vuln_class(std::uint64_t i) {
  static const char* kClasses[] = {"function_collision", "storage_collision",
                                   "storage_collision_exploitable",
                                   "family_collision"};
  return kClasses[i % 4];
}

/// `"logic_address":...` as /v1/contract renders it for this verdict.
std::string logic_snippet(core::LogicSource source, const evm::Address& a) {
  return source == core::LogicSource::kNone
             ? std::string("\"logic_address\":null")
             : "\"logic_address\":\"" + a.to_hex() + "\"";
}

std::uint64_t head_block_of(const std::string& body) {
  const std::size_t at = body.find("\"head_block\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + 13, nullptr, 10);
}

// ---- the sweep workloads ----------------------------------------------------------

/// Names the first report that differs from the reference and the fields
/// that differ, for the failure message.
std::string first_difference(const std::vector<core::ContractAnalysis>& got,
                             const std::vector<core::ContractAnalysis>& want,
                             const std::vector<datagen::DeployedContract>& c) {
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    const core::ContractAnalysis& a = got[i];
    const core::ContractAnalysis& b = want[i];
    if (a == b) continue;
    std::string fields;
    auto field = [&](bool same, const char* name) {
      if (!same) fields += std::string(fields.empty() ? "" : ",") + name;
    };
    field(a.proxy == b.proxy, "proxy");
    field(a.logic_history == b.logic_history, "logic_history");
    field(a.deduplicated == b.deduplicated, "deduplicated");
    field(a.function_collision == b.function_collision, "function_collision");
    field(a.storage_collision == b.storage_collision, "storage_collision");
    field(a.storage_collision_exploitable == b.storage_collision_exploitable,
          "storage_collision_exploitable");
    field(a.family_collision == b.family_collision, "family_collision");
    field(a.error == b.error, "error");
    return a.address.to_hex() + " (" +
           std::string(i < c.size() ? datagen::to_string(c[i].archetype) : "") +
           ": " + (fields.empty() ? "other fields" : fields) + ")";
  }
  return got.size() == want.size() ? "none" : "report count";
}

/// Per-run samples from the pipeline's own LandscapeStats perf fields (what
/// annotate_run_stats() fills in).
void sample_run_stats(Samples& s, const core::LandscapeStats& st) {
  s.add("evm.emulation_steps", st.emulation_steps.sum);
  s.add("evm.emulation_steps_p99", st.emulation_steps.p99);
  s.add("core.fetch_ms", st.phase_fetch_ms);
  s.add("core.proxy_ms", st.phase_proxy_ms);
  s.add("core.pairs_ms", st.phase_pairs_ms);
  s.add("core.artifact_hit_ratio",
        ratio(static_cast<double>(st.cache.hits()),
              static_cast<double>(st.cache.hits() + st.cache.misses())));
  s.add("core.pair_hit_ratio",
        ratio(static_cast<double>(st.pair_cache_hits),
              static_cast<double>(st.pair_cache_hits + st.pair_cache_misses)));
  s.add("core.contract_latency_us_p99", st.contract_latency_ns.p99 / 1e3);
}

/// Static-tier skips over all triaged unique blobs.
double skip_ratio(const core::LandscapeStats& st) {
  const double skipped = static_cast<double>(st.static_skipped_absent +
                                             st.static_skipped_dead +
                                             st.static_skipped_minimal);
  return ratio(skipped, skipped + static_cast<double>(st.static_emulated));
}

/// Per-sweep per-layer samples from the program's public outputs and the
/// counting archive wrapper.
void sample_sweep_layers(Samples& s, const core::AnalysisPipeline& pipeline,
                         const core::LandscapeStats& st,
                         const CountingArchiveNode::Counts& rpc,
                         std::uint64_t keccak, std::uint64_t tasks,
                         std::uint64_t steals, double wall_s, double cpu_s,
                         unsigned threads) {
  const double storage_trips =
      static_cast<double>(rpc.scalar_calls + rpc.batch_calls);
  s.add("chain.round_trips", static_cast<double>(rpc.round_trips()));
  s.add("chain.storage_reads", static_cast<double>(rpc.storage_reads()));
  s.add("chain.code_fetches", static_cast<double>(rpc.code_calls));
  s.add("chain.storage_reads_per_proxy",
        ratio(static_cast<double>(rpc.storage_reads()),
              static_cast<double>(st.proxies)));
  s.add("chain.batch_items_mean",
        ratio(static_cast<double>(rpc.storage_reads()), storage_trips));
  s.add("chain.rpc_wait_ms", static_cast<double>(rpc.wait_ns) / 1e6);
  s.add("chain.rpc_wait_share",
        ratio(static_cast<double>(rpc.wait_ns) / 1e9, wall_s * threads));
  if (const chain::CoalescingArchiveNode* c = pipeline.coalescing_node()) {
    const auto cs = c->stats();
    const double hits = static_cast<double>(cs.exact_hits + cs.interval_hits);
    s.add("chain.coalescer_hit_ratio",
          ratio(hits, hits + static_cast<double>(cs.misses)));
  }
  s.add("crypto.keccak_calls", static_cast<double>(keccak));
  sample_run_stats(s, st);
  s.add("static.skip_ratio", skip_ratio(st));
  s.add("core.cpu_s", cpu_s);
  s.add("core.cpu_utilization", ratio(cpu_s, wall_s * threads));
  s.add("util.pool_tasks", static_cast<double>(tasks));
  s.add("util.pool_steals", static_cast<double>(steals));
}

/// The per-layer metrics every workload prints, in one fixed order.
void emit_layers(MetricSet& m, const Samples& s, const ReplayTimes& rp) {
  auto med = [&](const char* name, const char* unit) {
    m.add(name, s.median_of(name), unit);
  };
  med("chain.round_trips", "count");
  med("chain.storage_reads", "count");
  med("chain.code_fetches", "count");
  med("chain.storage_reads_per_proxy", "count");
  med("chain.batch_items_mean", "count");
  med("chain.rpc_wait_ms", "ms");
  med("chain.rpc_wait_share", "ratio");
  med("chain.coalescer_hit_ratio", "ratio");
  med("crypto.keccak_calls", "count");
  m.add("crypto.code_hash_ms", rp.code_hash_ms, "ms");
  m.add("evm.disassemble_ms", rp.disassemble_ms, "ms");
  med("evm.emulation_steps", "count");
  med("evm.emulation_steps_p99", "count");
  m.add("static.triage_ms", rp.triage_ms, "ms");
  m.add("static.layout_ms", rp.layout_ms, "ms");
  med("static.skip_ratio", "ratio");
  med("core.fetch_ms", "ms");
  med("core.proxy_ms", "ms");
  med("core.pairs_ms", "ms");
  m.add("core.detect_ms", rp.detect_ms, "ms");
  m.add("core.logic_finder_ms", rp.logic_finder_ms, "ms");
  m.add("core.collision_ms", rp.collision_ms, "ms");
  med("core.artifact_hit_ratio", "ratio");
  med("core.pair_hit_ratio", "ratio");
  med("core.contract_latency_us_p99", "us");
  med("core.cpu_s", "s");
  med("core.cpu_utilization", "ratio");
  med("util.pool_tasks", "count");
  med("util.pool_steals", "count");
  med("store.write_calls", "count");
  med("store.write_ms", "ms");
  med("store.fsync_calls", "count");
  med("store.fsync_ms", "ms");
  med("store.bytes_written", "B");
  med("store.recomputed_per_lap", "count");
  med("store.seed_sweep_s", "s");
  med("serve.lap_ms_p50", "ms");
  med("serve.lap_ms_p90", "ms");
  med("serve.laps", "count");
  med("serve.fast_forwards", "count");
  m.add("serve.publish_ms", rp.publish_ms, "ms");
  m.add("serve.render_us_p50", rp.render_us_p50, "us");
  med("obs.http_connect_us_p50", "us");
  med("obs.http_ttfb_us_p99", "us");
  med("obs.http_served", "count");
  med("obs.server_cpu_ms", "ms");
  med("obs.generator_lag_ms_max", "ms");
}

/// `busy_s` is the replay's layer time for one unit of work (a sweep or a
/// lap), `cpu_s` the program's CPU time for the same unit.
void emit_replay_summary(MetricSet& m, const ReplayTimes& rp, double busy_s,
                         double cpu_s, const char* unit) {
  m.add("replay.busy_s", busy_s, "s");
  m.add("replay.unaccounted_share", 1.0 - ratio(busy_s, cpu_s), "ratio");
  std::printf("replay: %zu contracts, %zu unique blobs, %zu proxies, %zu "
              "unique pairs; layer busy %.4g s vs core.cpu_s %.4g s per %s\n",
              rp.contracts, rp.unique_blobs, rp.proxies, rp.unique_pairs,
              busy_s, cpu_s, unit);
}

}  // namespace

Outcome run_sweep(const Options& opt, bool rtt) {
  Outcome out;
  const std::uint32_t size = rtt ? kRttPopulation : kColdPopulation;
  const unsigned threads = hardware_threads();

  // ---- set-up: generate the population several times, keep the last -----
  std::vector<double> setup_s;
  datagen::Population pop;
  while (more_setups(setup_s)) {
    pop = datagen::Population{};
    const double t0 = now_s();
    pop = generate(opt.seed, size);
    setup_s.push_back(now_s() - t0);
  }
  print_setups(setup_s);
  const std::vector<core::SweepInput> inputs = pop.sweep_inputs();
  out.facts.push_back({"population", std::to_string(inputs.size())});
  out.facts.push_back({"pool_threads", std::to_string(threads)});
  if (rtt) {
    out.facts.push_back({"archive_rtt_us", fmt(kRttNs / 1e3)});
    out.facts.push_back({"archive_per_item_us", fmt(kPerItemNs / 1e3)});
  }

  // ---- reference sweep on one thread, in-process archive ------------------
  std::vector<core::ContractAnalysis> reference;
  {
    core::PipelineConfig config;
    config.threads = 1;
    core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
    reference = pipeline.run(inputs);
  }
  std::vector<Verdict> verdicts;
  for (const auto& a : reference) verdicts.push_back(verdict_of(a));
  const TruthDiff truth = diff_truth(pop.contracts, verdicts);
  print_truth(truth, pop.contracts);

  const chain::ArchiveNode base(*pop.chain);
  LatencyArchiveNode model(base, {opt.seed, kRttNs, kPerItemNs});
  const chain::IArchiveNode& backend =
      rtt ? static_cast<const chain::IArchiveNode&>(model) : base;
  CountingArchiveNode counting(backend);

  // ---- timed sweeps: a fresh pipeline each -------------------------------
  // Traced runs alternate untraced and traced sweeps, so both legs see the
  // same machine state and their gap is the tracing overhead.
  const double sweep_end = now_s() + opt.seconds;
  std::vector<double> wall_untraced;
  std::vector<double> wall_traced;
  Samples layers;
  int differing_sweeps = 0;
  std::string first_diff;
  for (int k = 0;; ++k) {
    const bool traced = opt.trace && k % 2 == 1;
    const std::size_t done = wall_untraced.size() + wall_traced.size();
    if (done >= (opt.trace ? 4u : 3u) && now_s() >= sweep_end) break;
    {
      core::PipelineConfig config;
      config.threads = threads;
      if (traced) {
        config.archive_node = &counting;
      } else if (rtt) {
        config.archive_node = &model;
      }
      core::AnalysisPipeline pipeline(*pop.chain, &pop.sources, config);
      const CountingArchiveNode::Counts rpc0 = counting.counts();
      const std::uint64_t keccak0 = crypto::keccak_invocations();
      const std::uint64_t tasks0 = global_counter("threadpool.tasks_executed");
      const std::uint64_t steals0 = global_counter("threadpool.steals");
      const double cpu0 = process_cpu_s();
      const double t0 = now_s();
      const std::vector<core::ContractAnalysis> reports = pipeline.run(inputs);
      const double wall = now_s() - t0;
      const double cpu = process_cpu_s() - cpu0;
      (traced ? wall_traced : wall_untraced).push_back(wall);
      if (traced) {
        const core::LandscapeStats st = pipeline.summarize(reports);
        sample_sweep_layers(
            layers, pipeline, st, counting.counts() - rpc0,
            crypto::keccak_invocations() - keccak0,
            global_counter("threadpool.tasks_executed") - tasks0,
            global_counter("threadpool.steals") - steals0, wall, cpu, threads);
      }
      if (reports != reference && differing_sweeps++ == 0) {
        first_diff = first_difference(reports, reference, pop.contracts);
      }
      for (const auto& a : reports) out.failed += a.quarantined() ? 1 : 0;
      out.attempted += reports.size();
    }
    // Hand the dead pipeline's arenas back, so peak RSS tracks live data
    // rather than how allocation happened to interleave across threads.
    ::malloc_trim(0);
  }

  if (differing_sweeps != 0) {
    out.fail(std::to_string(differing_sweeps) + " of " +
             std::to_string(wall_untraced.size() + wall_traced.size()) +
             " sweeps differ from the 1-thread reference sweep; first: " +
             first_diff);
  }

  // ---- report ---------------------------------------------------------------
  const std::vector<double>& walls = wall_untraced;
  const double wall_med = median(walls);
  std::printf("sweeps: %zu untraced, %zu traced; untraced wall ms min %.1f "
              "p25 %.1f median %.1f p75 %.1f max %.1f\n",
              wall_untraced.size(), wall_traced.size(),
              percentile(walls, 0) * 1e3, percentile(walls, 25) * 1e3,
              wall_med * 1e3, percentile(walls, 75) * 1e3,
              percentile(walls, 100) * 1e3);
  MetricSet& e2e = out.end_to_end;
  e2e.add("setup_s", median(setup_s), "s");
  e2e.add("contracts_per_s", ratio(static_cast<double>(inputs.size()), wall_med),
          "1/s");
  e2e.add("seal_to_visible_ms_p50", percentile(walls, 50) * 1e3, "ms");
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("also: seal_to_visible_ms_p90 = %.6g ms over %zu sweeps (p90 "
              "%s); failed_share = %.6g\n",
              percentile(walls, 90) * 1e3, walls.size(),
              percentile_supported(walls.size(), 90) ? "supported"
                                                     : "below 10 samples "
                                                       "beyond",
              ratio(static_cast<double>(out.failed),
                    static_cast<double>(out.attempted)));

  if (opt.trace) {
    ReplayTimes rp;
    replay_sweep_layers(rp, *pop.chain, &pop.sources, inputs, reference);
    replay_serve_layers(rp, *pop.chain, inputs, reference);
    MetricSet& m = out.per_layer;
    emit_layers(m, layers, rp);
    const double overhead =
        (ratio(median(wall_traced), wall_med) - 1.0) * 100.0;
    m.add("trace.overhead_pct", overhead, "%");
    emit_replay_summary(m, rp, rp.sweep_busy_s(),
                        layers.median_of("core.cpu_s"), "sweep");
    std::printf("trace: overhead %.2f%% (median traced sweep %.1f ms vs "
                "untraced %.1f ms)\n",
                overhead, median(wall_traced) * 1e3, wall_med * 1e3);
  }
  return out;
}

// ---- follow_serve -----------------------------------------------------------------

namespace {

/// One block's verdict change, as the writer made it.
struct Change {
  evm::Address address;
  bool deploy = false;        // a new contract (404 until visible)
  bool expect_proxy = false;  // expected: logic_address == impl
  evm::Address impl;
  std::uint64_t block = 0;    // the block the change was made in
  double sealed_s = 0;
  bool traced = false;  // made in a traced cycle
  bool seen = false;

  bool shown_by(const std::string& body) const {
    return expect_proxy
               ? body.find(logic_snippet(core::LogicSource::kStorageSlot,
                                         impl)) != std::string::npos
               : body.find("\"verdict\":\"not-proxy\"") != std::string::npos;
  }
};

/// Writer <-> client hand-off: pending changes and each address's history.
struct ChangeBoard {
  std::mutex mu;
  std::vector<Change> changes;
  std::deque<std::size_t> pending;  // unseen changes, oldest first
  std::unordered_map<std::string, std::vector<std::size_t>> by_address;
  std::vector<std::string> changed_hex;
  std::vector<double> visible_ms_untraced;
  std::vector<double> visible_ms_traced;

  void post(Change c) {
    std::lock_guard<std::mutex> lock(mu);
    const std::string hex = c.address.to_hex();
    // A newer change to the same address supersedes an unseen older one.
    for (auto it = pending.begin(); it != pending.end();) {
      if (changes[*it].address == c.address) {
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    changes.push_back(c);
    pending.push_back(changes.size() - 1);
    auto& hist = by_address[hex];
    if (hist.empty()) changed_hex.push_back(hex);
    hist.push_back(changes.size() - 1);
  }

  /// Checks one /v1/contract answer for contract `hex`, answered at
  /// `done_s`; `asked` is the pending change the request targeted, or
  /// kNone. Records the change's visibility when the answer first shows it.
  /// False for a wrong answer.
  static constexpr std::size_t kNone = ~std::size_t{0};
  bool check_answer(std::size_t asked, const std::string& hex,
                    const HttpResult& r, double done_s,
                    std::uint64_t& not_yet_visible) {
    std::lock_guard<std::mutex> lock(mu);
    const auto hist = by_address.find(hex);
    if (hist == by_address.end()) return r.status == 200;
    if (asked != kNone && !changes[asked].seen && r.status == 200 &&
        changes[asked].shown_by(r.body)) {
      Change& c = changes[asked];
      c.seen = true;
      (c.traced ? visible_ms_traced : visible_ms_untraced)
          .push_back((done_s - c.sealed_s) * 1e3);
      pending.erase(std::find(pending.begin(), pending.end(), asked));
    }
    const std::vector<std::size_t>& h = hist->second;
    if (r.status == 404) {
      // Expected only for a deployment no answer has shown yet.
      const Change& first = changes[h.front()];
      if (first.deploy && !first.seen) {
        ++not_yet_visible;
        return true;
      }
      return false;
    }
    if (r.status != 200) return false;
    // Once the snapshot is complete through a change's block, every answer
    // must show it, or a later change to the same contract (rows may run
    // ahead of the snapshot's stamp, never behind it).
    const std::uint64_t head = head_block_of(r.body);
    std::size_t first_due = h.size();
    for (std::size_t k = 0; k < h.size(); ++k) {
      if (changes[h[k]].block + 1 <= head) first_due = k;
    }
    if (first_due == h.size()) return true;
    for (std::size_t k = first_due; k < h.size(); ++k) {
      if (changes[h[k]].shown_by(r.body)) return true;
    }
    return false;
  }
};

/// Everything one follow_serve set-up owns, destroyed in reverse order.
struct FollowRig {
  datagen::Population pop;
  std::unique_ptr<chain::ArchiveNode> base;
  std::unique_ptr<CountingArchiveNode> counting;
  std::unique_ptr<TimingVfs> vfs;
  std::unique_ptr<core::AnalysisPipeline> pipeline;
  std::unique_ptr<serve::QueryService> query;
  std::unique_ptr<serve::ChainFollower> follower;
};

int year_of_block(std::uint64_t block) {
  const std::uint64_t year = datagen::PopulationGenerator::kFirstYear +
                             block / datagen::PopulationGenerator::kBlocksPerYear;
  return static_cast<int>(
      std::min<std::uint64_t>(year, datagen::PopulationGenerator::kLastYear));
}

}  // namespace

Outcome run_follow_serve(const Options& opt) {
  Outcome out;
  // Pool + HTTP server + client thread stay within the hardware threads.
  const unsigned hw_threads = hardware_threads();
  const unsigned pool_threads = hw_threads > 2 ? hw_threads - 2 : 1;
  const std::filesystem::path dir =
      std::filesystem::path(opt.work_dir) /
      ("follow-" + std::to_string(::getpid()));
  struct RemoveOnExit {
    const std::filesystem::path& dir;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } remove_dir{dir};

  // ---- set-up: population + seed sweep, several times; keep the last -----
  std::vector<double> setup_s;
  std::vector<double> seed_sweep_s;
  auto rig = std::make_unique<FollowRig>();
  while (more_setups(setup_s)) {
    rig = std::make_unique<FollowRig>();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const double t0 = now_s();
    rig->pop = generate(opt.seed, kFollowPopulation);
    core::PipelineConfig config;
    config.threads = pool_threads;
    store::DurableSweepConfig sweep_config;
    sweep_config.journal_path = (dir / "follow.journal").string();
    if (opt.trace) {
      rig->base = std::make_unique<chain::ArchiveNode>(*rig->pop.chain);
      rig->counting = std::make_unique<CountingArchiveNode>(*rig->base);
      rig->counting->set_enabled(false);
      rig->vfs = std::make_unique<TimingVfs>();
      rig->vfs->set_enabled(false);
      config.archive_node = rig->counting.get();
      sweep_config.vfs = rig->vfs.get();
    }
    rig->pipeline = std::make_unique<core::AnalysisPipeline>(
        *rig->pop.chain, &rig->pop.sources, config);
    rig->query = std::make_unique<serve::QueryService>();
    serve::ChainFollowerConfig follower_config;
    follower_config.year_of_block = year_of_block;
    rig->follower = std::make_unique<serve::ChainFollower>(
        *rig->pipeline, *rig->pop.chain, &rig->pop.sources, sweep_config,
        *rig->query, rig->pop.sweep_inputs(), follower_config);
    const double t1 = now_s();
    rig->follower->poll();
    const double t2 = now_s();
    setup_s.push_back(t2 - t0);
    seed_sweep_s.push_back(t2 - t1);
  }
  print_setups(setup_s);
  datagen::Population& pop = rig->pop;
  chain::Blockchain& bc = *pop.chain;
  serve::ChainFollower& follower = *rig->follower;
  serve::QueryService& query = *rig->query;
  core::AnalysisPipeline& pipeline = *rig->pipeline;
  out.facts.push_back({"population", std::to_string(pop.contracts.size())});
  out.facts.push_back({"pool_threads", std::to_string(pool_threads)});
  out.facts.push_back({"server_threads", "1"});
  out.facts.push_back({"client_threads", "1"});
  out.facts.push_back({"block_period_ms", fmt(kBlockPeriodS * 1e3)});
  out.facts.push_back({"journal_fs", filesystem_of(dir.string())});

  // Ground truth over the seed snapshot, before any block is mined.
  std::vector<Verdict> verdicts;
  {
    const auto snap = query.snapshot();
    for (const auto& c : pop.contracts) {
      const auto it = snap->by_address.find(c.address);
      verdicts.push_back(it == snap->by_address.end()
                             ? Verdict{}
                             : verdict_of(snap->rows[it->second]));
    }
  }
  const TruthDiff truth = diff_truth(pop.contracts, verdicts);
  print_truth(truth, pop.contracts);

  // Upgrade material: EIP-1967 proxies repoint at token contracts.
  std::vector<evm::Address> proxies;
  std::vector<evm::Address> logic_pool;
  std::vector<std::string> known_hex;
  std::vector<crypto::Hash256> known_hash;
  for (const auto& c : pop.contracts) {
    if (c.archetype == datagen::Archetype::kEip1967Proxy) {
      proxies.push_back(c.address);
    } else if (c.archetype == datagen::Archetype::kToken) {
      logic_pool.push_back(c.address);
    }
    known_hex.push_back(c.address.to_hex());
  }
  for (const auto& row : query.snapshot()->rows) {
    known_hash.push_back(row.code_hash);
  }
  if (proxies.empty() || logic_pool.empty() || known_hash.empty()) {
    out.fail("population too small for the follow workload");
    return out;
  }

  // ---- serving plane + follower ----------------------------------------------
  obs::HttpServer server;
  query.register_endpoints(server);
  follower.register_status_endpoint(server);
  const std::vector<int> threads_before = thread_ids();
  if (!server.start(0)) {
    out.fail("cannot bind a loopback port for /v1");
    return out;
  }
  // The server's accept thread (it answers requests inline), found as the
  // one thread start() added, so its CPU time can be told apart.
  int server_tid = 0;
  for (const int tid : thread_ids()) {
    if (!std::binary_search(threads_before.begin(), threads_before.end(),
                            tid)) {
      server_tid = server_tid == 0 ? tid : -1;
    }
  }
  if (server_tid < 0) server_tid = 0;
  follower.start();
  if (!follower.wait_synced(bc.height(), kSyncTimeoutMs)) {
    out.fail("follower did not sync after start");
    follower.stop();
    return out;
  }

  ChangeBoard board;
  const double start = now_s() + 0.05;
  const double end = start + opt.seconds;
  ClientTally client(start, kRequestRate);
  const std::uint64_t served0 = server.requests_served();

  // Open-loop client: every other request goes to the oldest unseen change
  // while one is pending; the rest is the /v1 mix.
  // Joined on every path out of this function, before what it uses dies.
  struct ClientThread {
    std::atomic<bool> stop{false};
    std::atomic<int> tid{0};
    std::thread thread;
    void join() {
      stop.store(true, std::memory_order_release);
      if (thread.joinable()) thread.join();
    }
    ~ClientThread() { join(); }
  } client_thread;
  client_thread.thread = std::thread([&] {
    client_thread.tid.store(current_tid(), std::memory_order_release);
    std::mt19937_64 rng(opt.seed ^ 0xc11e);
    std::size_t asked = ChangeBoard::kNone;  // change the request targets
    run_client(
        server.port(), 1e300, &client_thread.stop, client,
        [&](std::uint64_t i) -> std::string {
          asked = ChangeBoard::kNone;
          {
            std::lock_guard<std::mutex> lock(board.mu);
            if (!board.pending.empty() && i % 2 == 0) {
              asked = board.pending.front();
              return "/v1/contract/" + board.changes[asked].address.to_hex();
            }
            const std::uint64_t roll = rng() % 20;
            if (roll < 2 && !board.changed_hex.empty()) {
              return "/v1/contract/" +
                     board.changed_hex[rng() % board.changed_hex.size()];
            }
            if (roll == 2) {
              return "/v1/codehash/" +
                     hash_hex(known_hash[rng() % known_hash.size()]);
            }
            if (roll == 3) return std::string("/v1/vulns?class=") + vuln_class(i);
          }
          return "/v1/contract/" + known_hex[rng() % known_hex.size()];
        },
        [&](const std::string& target, const HttpResult& r, double done) {
          if (target.rfind("/v1/contract/", 0) != 0) return r.status == 200;
          return board.check_answer(asked, target.substr(13), r, done,
                                    client.not_yet_visible);
        });
  });

  while (client_thread.tid.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  // CPU time of the threads that are not the program's lap workers: this
  // (writer) thread, the client, and the server's accept thread.
  const int writer_tid = current_tid();
  const int client_tid = client_thread.tid.load();
  auto harness_cpu_s = [&] {
    return thread_cpu_s(writer_tid) + thread_cpu_s(client_tid);
  };
  auto server_cpu_s = [&] {
    return server_tid != 0 ? thread_cpu_s(server_tid) : 0.0;
  };

  // ---- writer: one block per period, fenced by wait_synced ----------------
  const evm::Address deployer = evm::Address::from_label("perfbench-deployer");
  const evm::U256 impl_slot = datagen::ContractFactory::eip1967_slot();
  std::mt19937_64 wrng(opt.seed ^ 0xb10c);
  std::vector<double> lateness_ms;
  std::vector<double> lap_ms;
  std::vector<double> lap_rate;
  Samples layers;
  // Traced runs alternate untraced and traced 4-block cycles (the block mix
  // repeats every 4 blocks), with the wrappers on only in traced cycles, so
  // both legs see the same journal length and machine state.
  struct TracedTally {
    std::uint64_t keccak = 0, tasks = 0, steals = 0, contracts = 0;
    std::uint64_t laps = 0, blocks = 0;
    double cpu_s = 0, lap_s = 0;
    double harness_cpu_s = 0, server_cpu_s = 0;
  } traced;
  const std::uint64_t laps0 = follower.stats().laps.load();
  const std::uint64_t ff0 = follower.stats().fast_forwards.load();
  auto contracts_counter = [&] {
    return pipeline.registry().snapshot().counters["sweep.contracts"];
  };
  std::uint64_t laps_seen = laps0;
  std::uint64_t salt = 0x100000 + (opt.seed & 0xffff) * 0x10000;
  std::uint64_t blocks = 0;
  // The landscape_survey --follow mix: proxies and implementations are taken
  // round-robin, so within a run an implementation never returns to a proxy
  // it already served (see README.md on what happens when one does).
  std::size_t next_proxy = 0;
  std::size_t next_logic = 0;
  for (std::uint64_t i = 0;; ++i) {
    // A seeded offset inside one client polling interval keeps seals from
    // phase-locking to the request grid, which would quantise
    // seal_to_visible to multiples of the polling interval.
    const double dither =
        std::uniform_real_distribution<double>(0, 2.0 / kRequestRate)(wrng);
    const double due = start + static_cast<double>(i) * kBlockPeriodS + dither;
    if (due + kBlockPeriodS > end) break;
    sleep_until(due);
    lateness_ms.push_back(std::max(0.0, now_s() - due) * 1e3);
    const bool trace_block = opt.trace && (i / 4) % 2 == 1;
    TracedTally before;
    if (opt.trace) {
      rig->counting->set_enabled(trace_block);
      rig->vfs->set_enabled(trace_block);
    }
    before.contracts = contracts_counter();
    if (trace_block) {
      before.keccak = crypto::keccak_invocations();
      before.tasks = global_counter("threadpool.tasks_executed");
      before.steals = global_counter("threadpool.steals");
      before.cpu_s = process_cpu_s();
      before.harness_cpu_s = harness_cpu_s();
      before.server_cpu_s = server_cpu_s();
    }
    const std::uint64_t block = bc.height();
    Change c;
    c.block = block;
    c.traced = trace_block;
    bool changed = true;
    switch (i % 4) {
      case 0:  // plain deployment: a discovery lap
        c.deploy = true;
        c.address = bc.deploy_runtime(
            deployer, datagen::ContractFactory::token_contract(salt++));
        break;
      case 1:  // upgrade: implementation-slot write on a known proxy
        c.expect_proxy = true;
        c.address = proxies[next_proxy++ % proxies.size()];
        c.impl = logic_pool[next_logic++ % logic_pool.size()];
        bc.set_storage(c.address, impl_slot, c.impl.to_word());
        break;
      case 2:  // empty block: a fast-forward, no lap
        changed = false;
        break;
      default:  // deployment + same-block upgrade of the new proxy
        c.deploy = true;
        c.expect_proxy = true;
        c.address = bc.deploy_runtime(deployer,
                                      datagen::ContractFactory::eip1967_proxy());
        c.impl = logic_pool[next_logic++ % logic_pool.size()];
        bc.set_storage(c.address, impl_slot, c.impl.to_word());
        break;
    }
    bc.mine_block();
    c.sealed_s = now_s();
    if (changed) board.post(c);
    ++blocks;
    // The chain is single-writer: fence the next mutation on the follower
    // having absorbed this block (serve/follower.h).
    if (!follower.wait_synced(bc.height(), kSyncTimeoutMs)) {
      out.fail("follower did not sync block " + std::to_string(block) + ": " +
               follower.last_error());
      break;
    }
    const std::uint64_t laps = follower.stats().laps.load();
    const std::uint64_t recomputed = contracts_counter() - before.contracts;
    if (laps > laps_seen) {
      laps_seen = laps;
      const double ms =
          static_cast<double>(follower.stats().last_lap_us.load()) / 1e3;
      lap_ms.push_back(ms);
      lap_rate.push_back(ratio(static_cast<double>(recomputed), ms / 1e3));
      if (trace_block) {
        ++traced.laps;
        traced.lap_s += ms / 1e3;
        // The poll thread is parked (wait_synced), so reading the
        // pipeline's last-run fields is serialised with its laps.
        core::LandscapeStats st;
        pipeline.annotate_run_stats(st);
        sample_run_stats(layers, st);
      }
    }
    if (trace_block) {
      ++traced.blocks;
      traced.keccak += crypto::keccak_invocations() - before.keccak;
      traced.tasks += global_counter("threadpool.tasks_executed") - before.tasks;
      traced.steals += global_counter("threadpool.steals") - before.steals;
      traced.contracts += recomputed;
      const double process = process_cpu_s() - before.cpu_s;
      const double harness = harness_cpu_s() - before.harness_cpu_s;
      const double server = server_cpu_s() - before.server_cpu_s;
      traced.cpu_s += process - harness - server;
      traced.harness_cpu_s += harness;
      traced.server_cpu_s += server;
    }
  }
  if (opt.trace) {
    rig->counting->set_enabled(false);
    rig->vfs->set_enabled(false);
  }
  // Let the client observe the last changes, then stop it.
  const double drain_end = now_s() + 3.0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(board.mu);
      if (board.pending.empty()) break;
    }
    if (now_s() > drain_end) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  client_thread.join();
  const std::uint64_t served = server.requests_served() - served0;
  follower.stop();
  server.stop();
  print_client(client);
  if (!board.pending.empty()) {
    out.fail(std::to_string(board.pending.size()) +
             " change(s) never became visible over /v1");
  }
  if (client.failed != 0) out.fail("/v1 answers failed or were wrong");

  // ---- the final snapshot must equal a cold sweep of the final chain ------
  const std::vector<core::SweepInput> final_inputs = follower.inputs();
  std::vector<core::ContractAnalysis> cold;
  core::LandscapeStats cold_stats;
  {
    core::PipelineConfig config;
    config.threads = pool_threads;
    core::AnalysisPipeline check(bc, &pop.sources, config);
    cold = check.run(final_inputs);
    cold_stats = check.summarize(cold);
  }
  const auto snap = query.snapshot();
  std::uint64_t snapshot_diffs = 0;
  std::string first_diff;
  for (std::size_t i = 0; i < final_inputs.size(); ++i) {
    const core::VerdictRow want = core::extract_verdict(
        cold[i], evm::code_hash(bc.code_at(final_inputs[i].address)));
    const auto it = snap->by_address.find(final_inputs[i].address);
    if (it == snap->by_address.end() || !(snap->rows[it->second] == want)) {
      if (snapshot_diffs++ == 0) first_diff = want.address.to_hex();
    }
  }
  if (snapshot_diffs != 0 || snap->rows.size() != final_inputs.size()) {
    out.fail(std::to_string(snapshot_diffs) +
             " snapshot row(s) differ from a cold sweep of the final chain "
             "(first: " + first_diff + ")");
  }
  if (snap->head_block != bc.height()) {
    out.fail("final snapshot head " + std::to_string(snap->head_block) +
             " != chain height " + std::to_string(bc.height()));
  }
  out.attempted = snap->rows.size() + client.attempted;
  out.failed = snap->quarantined + client.failed;

  // ---- report ---------------------------------------------------------------
  std::vector<double> visible = board.visible_ms_untraced;
  visible.insert(visible.end(), board.visible_ms_traced.begin(),
                 board.visible_ms_traced.end());
  const std::uint64_t laps = follower.stats().laps.load() - laps0;
  std::printf("follow: %llu blocks, %llu laps, %llu fast-forwards, %zu "
              "changes seen, max block lateness %.2f ms, final snapshot %zu "
              "rows\n",
              static_cast<unsigned long long>(blocks),
              static_cast<unsigned long long>(laps),
              static_cast<unsigned long long>(
                  follower.stats().fast_forwards.load() - ff0),
              visible.size(),
              lateness_ms.empty()
                  ? 0.0
                  : *std::max_element(lateness_ms.begin(), lateness_ms.end()),
              snap->rows.size());
  MetricSet& e2e = out.end_to_end;
  e2e.add("setup_s", median(setup_s), "s");
  e2e.add("contracts_per_s", median(lap_rate), "1/s");
  e2e.add("seal_to_visible_ms_p50", percentile(visible, 50), "ms");
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("also: seal_to_visible_ms_p90 = %.6g ms over %zu blocks (p90 %s);"
              " failed_share = %.6g\n",
              percentile(visible, 90), visible.size(),
              percentile_supported(visible.size(), 90)
                  ? "supported"
                  : "below 10 samples beyond",
              ratio(static_cast<double>(out.failed),
                    static_cast<double>(out.attempted)));

  if (opt.trace) {
    // The wrappers only counted while a traced cycle ran.
    const CountingArchiveNode::Counts rpc = rig->counting->counts();
    const TimingVfs::Counts io = rig->vfs->counts();
    const double laps_t = static_cast<double>(traced.laps);
    auto per_lap = [&](double v) { return ratio(v, laps_t); };
    layers.add("chain.round_trips",
               per_lap(static_cast<double>(rpc.round_trips())));
    layers.add("chain.storage_reads",
               per_lap(static_cast<double>(rpc.storage_reads())));
    layers.add("chain.code_fetches",
               per_lap(static_cast<double>(rpc.code_calls)));
    layers.add("chain.storage_reads_per_proxy",
               ratio(static_cast<double>(rpc.storage_reads()),
                     static_cast<double>(traced.contracts)));
    layers.add("chain.batch_items_mean",
               ratio(static_cast<double>(rpc.storage_reads()),
                     static_cast<double>(rpc.scalar_calls + rpc.batch_calls)));
    layers.add("chain.rpc_wait_ms",
               per_lap(static_cast<double>(rpc.wait_ns) / 1e6));
    layers.add("chain.rpc_wait_share",
               ratio(static_cast<double>(rpc.wait_ns) / 1e9,
                     traced.lap_s * pool_threads));
    if (const chain::CoalescingArchiveNode* co = pipeline.coalescing_node()) {
      const auto cs = co->stats();
      const double hits = static_cast<double>(cs.exact_hits + cs.interval_hits);
      layers.add("chain.coalescer_hit_ratio",
                 ratio(hits, hits + static_cast<double>(cs.misses)));
    }
    layers.add("crypto.keccak_calls",
               per_lap(static_cast<double>(traced.keccak)));
    // Triage counts come from the reports, which laps do not expose; the
    // check sweep of the final chain has them.
    layers.add("static.skip_ratio", skip_ratio(cold_stats));
    // Program CPU only: the writer, client and server threads are left out
    // (the server's share is obs.server_cpu_ms).
    layers.add("core.cpu_s", per_lap(traced.cpu_s));
    layers.add("core.cpu_utilization",
               ratio(traced.cpu_s, static_cast<double>(traced.blocks) *
                                       kBlockPeriodS * pool_threads));
    layers.add("util.pool_tasks", per_lap(static_cast<double>(traced.tasks)));
    layers.add("util.pool_steals", per_lap(static_cast<double>(traced.steals)));
    layers.add("store.write_calls", per_lap(static_cast<double>(io.write_calls)));
    layers.add("store.write_ms", per_lap(static_cast<double>(io.write_ns) / 1e6));
    layers.add("store.fsync_calls", per_lap(static_cast<double>(io.fsync_calls)));
    layers.add("store.fsync_ms", per_lap(static_cast<double>(io.fsync_ns) / 1e6));
    layers.add("store.bytes_written",
               per_lap(static_cast<double>(io.bytes_written)));
    layers.add("store.recomputed_per_lap",
               per_lap(static_cast<double>(traced.contracts)));
    layers.add("store.seed_sweep_s", median(seed_sweep_s));
    layers.add("serve.lap_ms_p50", percentile(lap_ms, 50));
    layers.add("serve.lap_ms_p90", percentile(lap_ms, 90));
    layers.add("serve.laps", static_cast<double>(laps));
    layers.add("serve.fast_forwards",
               static_cast<double>(follower.stats().fast_forwards.load() - ff0));

    layers.add("obs.server_cpu_ms", per_lap(traced.server_cpu_s * 1e3));
    add_client_layers(layers, client, served);
    std::printf("cpu: per traced lap, program %.4g ms, /v1 server thread "
                "%.4g ms, writer + client threads %.4g ms\n",
                per_lap(traced.cpu_s) * 1e3, per_lap(traced.server_cpu_s) * 1e3,
                per_lap(traced.harness_cpu_s) * 1e3);

    // A lap recomputes the contracts its block changed and publishes a
    // snapshot of the whole population. So the sweep-side replay covers the
    // changed contracts, scaled to the contracts recomputed per lap, and the
    // serve replay the whole final snapshot.
    std::vector<core::SweepInput> changed_inputs;
    std::vector<core::ContractAnalysis> changed_reports;
    {
      std::lock_guard<std::mutex> lock(board.mu);
      for (std::size_t i = 0; i < final_inputs.size(); ++i) {
        if (board.by_address.count(final_inputs[i].address.to_hex()) != 0) {
          changed_inputs.push_back(final_inputs[i]);
          changed_reports.push_back(cold[i]);
        }
      }
    }
    ReplayTimes rp;
    replay_sweep_layers(rp, bc, &pop.sources, changed_inputs, changed_reports);
    rp.scale_sweep(ratio(per_lap(static_cast<double>(traced.contracts)),
                         static_cast<double>(changed_inputs.size())));
    replay_serve_layers(rp, bc, final_inputs, cold);
    MetricSet& m = out.per_layer;
    emit_layers(m, layers, rp);
    const double vis_untraced = percentile(board.visible_ms_untraced, 50);
    const double vis_traced = percentile(board.visible_ms_traced, 50);
    const double overhead = (ratio(vis_traced, vis_untraced) - 1.0) * 100.0;
    m.add("trace.overhead_pct", overhead, "%");
    emit_replay_summary(m, rp, rp.sweep_busy_s() + rp.publish_ms / 1e3,
                        layers.median_of("core.cpu_s"), "lap");
    std::printf("trace: overhead %.2f%% (seal_to_visible p50 traced cycles "
                "%.3f ms vs untraced %.3f ms); lap p50 %.3f ms is %.0f%% of "
                "seal_to_visible p50\n",
                overhead, vis_traced, vis_untraced, percentile(lap_ms, 50),
                100.0 * ratio(percentile(lap_ms, 50), percentile(visible, 50)));
  }
  return out;
}

}  // namespace perfbench

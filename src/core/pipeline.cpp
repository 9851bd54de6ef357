#include "core/pipeline.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <ctime>
#include <stdexcept>
#include <thread>

#include "core/report.h"
#include "crypto/keccak.h"

namespace proxion::core {

namespace {

/// Lock stripes of every striped memo the pipeline owns (analysis cache,
/// verdict/pair/blob once-maps) and of the coalescer's tables.
constexpr unsigned kShards = 16;

/// Debug-mode enforcement of the external-serialization contract: entering
/// run()/summarize() while another is in flight on the same
/// pipeline trips the assert. Release builds compile this to nothing.
class ReentrancyGuard {
 public:
  explicit ReentrancyGuard(std::atomic<bool>& busy) : busy_(busy) {
#ifndef NDEBUG
    const bool was_busy = busy_.exchange(true, std::memory_order_acquire);
    assert(!was_busy &&
           "AnalysisPipeline::run/summarize must be externally "
           "serialized per instance");
#endif
  }
  ~ReentrancyGuard() {
#ifndef NDEBUG
    busy_.store(false, std::memory_order_release);
#endif
  }

  ReentrancyGuard(const ReentrancyGuard&) = delete;
  ReentrancyGuard& operator=(const ReentrancyGuard&) = delete;

 private:
  [[maybe_unused]] std::atomic<bool>& busy_;
};

std::string hash_key(const crypto::Hash256& h) {
  return std::string(reinterpret_cast<const char*>(h.data()), h.size());
}

// Cross-run verdict reuse is only sound at the exact address the verdict was
// computed for: the crafted probe selector is seeded from the address, and a
// slot-proxy's logic target is read from that address's storage. Keying the
// memo by (code hash, representative address) makes a warm sweep whose
// representative for a hash changed recompute at the new address — exactly
// what the cache-off pipeline would do — instead of inheriting another
// address's report.
std::string verdict_key(const std::string& code_key, const Address& a) {
  std::string k = code_key;
  k.append(reinterpret_cast<const char*>(a.bytes.data()), a.bytes.size());
  return k;
}

unsigned thread_count(unsigned configured) {
  if (configured != 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Wall and calling-thread CPU time of one archive call. Untimed = the blob
/// was memoized, the call threw, or some call retried meanwhile (a backoff
/// sleep is not archive latency).
struct CallTiming {
  bool timed = false;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
};

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Off-CPU time a call needs before it can count as blocking. An in-process
/// call takes about a microsecond, so a preemption or a contended lock can
/// put it past half its wall time; a network round trip is far longer.
constexpr std::uint64_t kMinBlockedNs = 20'000;

/// Did the median timed call spend more than half its wall time, and at
/// least kMinBlockedNs, off-CPU, i.e. asleep waiting on the archive? Empty
/// when no call was timed.
std::optional<bool> median_call_blocks(const std::vector<CallTiming>& calls) {
  std::size_t timed = 0;
  std::size_t blocked = 0;
  for (const CallTiming& c : calls) {
    if (!c.timed) continue;
    ++timed;
    if (2 * c.cpu_ns < c.wall_ns && c.wall_ns - c.cpu_ns >= kMinBlockedNs) {
      ++blocked;
    }
  }
  if (timed == 0) return std::nullopt;
  return 2 * blocked > timed;
}

ErrorKind classify_rpc(const chain::RpcError& e) noexcept {
  switch (e.kind()) {
    case chain::RpcErrorKind::kExhausted:
    case chain::RpcErrorKind::kCircuitOpen:
      return ErrorKind::kRpcExhausted;
    default:
      return ErrorKind::kRpcTransient;
  }
}

ErrorRecord record_of(const chain::RpcError& e, const char* phase) {
  return ErrorRecord{classify_rpc(e), phase, e.what()};
}

}  // namespace

std::string_view to_string(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kRpcTransient: return "rpc_transient";
    case ErrorKind::kRpcExhausted: return "rpc_exhausted";
    case ErrorKind::kEmulationLimit: return "emulation_limit";
    case ErrorKind::kInternal: return "internal";
    case ErrorKind::kDiskIo: return "disk_io";
  }
  return "unknown";
}

AnalysisPipeline::AnalysisPipeline(chain::Blockchain& chain,
                                   const sourcemeta::SourceRepository* sources,
                                   PipelineConfig config)
    : chain_(chain), node_(chain), sources_(sources), config_(config) {
  backend_ = config_.archive_node != nullptr ? config_.archive_node : &node_;

  clock_ = config_.telemetry.clock
               ? config_.telemetry.clock
               : obs::TraceClock(&obs::steady_now_ns);
  if (config_.telemetry.enabled) {
    h_contract_ = &registry_.histogram("sweep.contract_latency_ns");
    h_rpc_ = &registry_.histogram("sweep.rpc_latency_ns");
    h_steps_ = &registry_.histogram("sweep.emulation_steps");
    c_contracts_ = &registry_.counter("sweep.contracts");
    if (!config_.telemetry.trace_path.empty() ||
        !config_.telemetry.events_path.empty() ||
        config_.telemetry.live_spans) {
      tracer_ = std::make_unique<obs::Tracer>(clock_);
    }
  }

  // Archive decorator stack, innermost out: backend -> tracing -> resilient
  // -> coalescing. Tracing sits under the retry layer so every *attempt*
  // (including the ones a retry absorbs) is a latency sample and a span; the
  // coalescer sits outermost so its cache hits skip the retry ladder, the
  // trace spans, and the backend call counters entirely — what the counters
  // report is true backend probe volume.
  const chain::IArchiveNode* wire = backend_;
  if (h_rpc_ != nullptr || tracer_ != nullptr) {
    tracing_node_ = std::make_unique<chain::TracingArchiveNode>(
        *backend_, h_rpc_, tracer_.get(), clock_);
    wire = tracing_node_.get();
  }
  if (config_.enable_retries) {
    resilient_ = std::make_unique<chain::ResilientArchiveNode>(
        *wire, config_.retry, config_.breaker);
    wire = resilient_.get();
    // Publish breaker flips to the introspection plane. The listener fires
    // outside the breaker's lock (see CircuitBreaker::set_state_listener),
    // so emitting an event from it cannot deadlock against RPC traffic.
    obs::EventLog* log = config_.telemetry.event_log;
    obs::SweepStatus* status = config_.telemetry.status;
    if (log != nullptr || status != nullptr) {
      if (status != nullptr) {
        status->breaker_state.store(
            static_cast<std::uint8_t>(resilient_->breaker().state()),
            std::memory_order_relaxed);
      }
      resilient_->breaker().set_state_listener(
          [log, status](util::CircuitBreaker::State s) {
            if (status != nullptr) {
              status->breaker_state.store(static_cast<std::uint8_t>(s),
                                          std::memory_order_relaxed);
            }
            if (log != nullptr) {
              using State = util::CircuitBreaker::State;
              const char* name = s == State::kOpen       ? "open"
                                 : s == State::kHalfOpen ? "half-open"
                                                         : "closed";
              log->emit(s == State::kOpen ? obs::Severity::kWarn
                                          : obs::Severity::kInfo,
                        "chain.breaker",
                        std::string("circuit breaker ") + name);
            }
          });
    }
  }
  if (config_.coalesce_archive_reads) {
    coalescer_ = std::make_unique<chain::CoalescingArchiveNode>(*wire, kShards);
  }
  if (config_.use_analysis_cache) {
    cache_ = std::make_unique<AnalysisCache>(kShards);
    if (config_.dedup_by_code_hash) {
      verdict_cache_ =
          std::make_unique<StripedOnceMap<std::string, ProxyReport>>(kShards);
    }
    blob_cache_ = std::make_unique<CodeBlobMap>(kShards);
  }
}

AnalysisPipeline::~AnalysisPipeline() = default;

util::ThreadPool& AnalysisPipeline::pool() {
  if (!pool_) {
    pool_ = std::make_unique<util::ThreadPool>(thread_count(config_.threads));
  }
  return *pool_;
}

util::ThreadPool& AnalysisPipeline::io_pool() {
  if (!io_pool_) {
    io_pool_ = std::make_unique<util::ThreadPool>(config_.archive_inflight);
  }
  return *io_pool_;
}

std::vector<ContractAnalysis> AnalysisPipeline::run(
    const std::vector<SweepInput>& inputs) {
  ReentrancyGuard guard(busy_);
  const auto t_start = std::chrono::steady_clock::now();
  util::ThreadPool& workers = pool();

  // Live-introspection publishing: phase and progress land in the shared
  // status block as they happen; operational events go to the event log.
  // Both are optional and borrowed — null means no publishing.
  obs::EventLog* const event_log = config_.telemetry.event_log;
  obs::SweepStatus* const status = config_.telemetry.status;
  if (status != nullptr) {
    status->sweeps_started.fetch_add(1, std::memory_order_relaxed);
    status->contracts_total.store(inputs.size(), std::memory_order_relaxed);
    status->contracts_done.store(0, std::memory_order_relaxed);
    status->set_phase(obs::SweepPhase::kFetch);
  }
  if (event_log != nullptr) {
    event_log->emit(obs::Severity::kInfo, "pipeline",
                    "sweep started over " + std::to_string(inputs.size()) +
                        " contracts");
  }

  // Each run entry asserts the backend is worth talking to again; a breaker
  // left open by a previous run's outage must not fast-fail a retry.
  if (resilient_) resilient_->breaker().reset();
  // The archive and resilience counters never reset; annotate_run_stats
  // reports what they gained since here.
  run_start_rpc_ = rpc_totals();

  // Telemetry scope is one run: the histograms behind the LandscapeStats
  // summaries and the trace rings restart here (the workers are parked
  // between runs, so this reset happens at quiescence).
  if (h_contract_ != nullptr) {
    h_contract_->reset();
    h_rpc_->reset();
    h_steps_->reset();
  }
  if (tracer_) tracer_->clear();

  // The pair memo never outlives a run, with or without the analysis cache:
  // a PairOutcome depends on run-local state — the §7.1 donor map is built
  // from *this* run's population — so a cross-run hit could silently reuse a
  // result that a fresh computation would no longer produce. Only the pure
  // per-bytecode artifacts (AnalysisCache), the immutable code blobs, and
  // the address-keyed proxy verdicts persist across runs.
  pair_cache_ =
      std::make_unique<StripedOnceMap<std::string, PairOutcome>>(kShards);

  std::vector<ContractAnalysis> out(inputs.size());

  // ---- fetch code and hash it ------------------------------------------
  // Each distinct address is fetched (through the fault-tolerant archive
  // seam) and keccak'd exactly once — per run when the analysis cache is off
  // (seed semantics), ever when it is on (deployed code is immutable, so a
  // warm sweep skips this phase's work). A failed fetch quarantines only its
  // own contract: the once-map clears the in-flight marker on throw, so a
  // later retry recomputes instead of caching the failure.
  CodeBlobMap run_local_blobs(kShards);
  CodeBlobMap& blob_map = blob_cache_ ? *blob_cache_ : run_local_blobs;
  // `timing` non-null = time the get_code on the wall and thread CPU clocks
  // (the fetch phase's first wave, which decides the fan-out below).
  auto retries = [&] { return resilient_ ? resilient_->retries() : 0; };
  auto fetch_blob = [&](const Address& address, CallTiming* timing) {
    return blob_map.get_or_compute(address, [&] {
      auto b = std::make_shared<CodeBlob>();
      if (timing == nullptr) {
        b->code = rpc().get_code(address);
      } else {
        const std::uint64_t retries0 = retries();
        const std::uint64_t cpu0 = thread_cpu_ns();
        const std::uint64_t wall0 = obs::steady_now_ns();
        b->code = rpc().get_code(address);
        timing->wall_ns = obs::steady_now_ns() - wall0;
        timing->cpu_ns = thread_cpu_ns() - cpu0;
        timing->timed = retries() == retries0;
      }
      b->hash = evm::code_hash(b->code);
      b->key = hash_key(b->hash);
      return std::shared_ptr<const CodeBlob>(std::move(b));
    });
  };

  // Archive concurrency, decided per run from what the backend does, not
  // from which backend was injected: the first wave (4 addresses per CPU
  // worker) runs on the CPU pool with every get_code timed. If the median
  // call slept through more than half its wall time (and at least
  // kMinBlockedNs), the archive blocks, and the rest of the fetch phase and
  // the whole pair phase (Algorithm 1 probes, logic-code fetches) move to
  // the I/O pool so up to archive_inflight requests overlap. An in-process
  // archive never blocks, so its sweeps stay on the CPU pool alone.
  std::vector<std::shared_ptr<const CodeBlob>> blobs(inputs.size());
  util::ThreadPool* archive_workers = &workers;
  {
    obs::Span phase_span(tracer_.get(), "phase:fetch");
    auto fetch_input = [&](std::size_t i, CallTiming* timing) {
      try {
        blobs[i] = fetch_blob(inputs[i].address, timing);
      } catch (const chain::RpcError& e) {
        out[i].error = record_of(e, "fetch");
      } catch (const std::exception& e) {
        out[i].error = ErrorRecord{ErrorKind::kInternal, "fetch", e.what()};
      }
    };
    const std::size_t first_wave =
        std::min(inputs.size(), std::size_t{4} * workers.size());
    std::vector<CallTiming> timings(first_wave);
    workers.parallel_for(first_wave, [&](std::size_t i) {
      fetch_input(i, &timings[i]);
    });
    const bool blocked_before = archive_blocks_;
    if (const std::optional<bool> blocks = median_call_blocks(timings)) {
      archive_blocks_ = *blocks;
    }
    const bool can_fan_out = config_.archive_inflight > workers.size();
    if (archive_blocks_ && can_fan_out) archive_workers = &io_pool();
    // One event when the fan-out starts or stops, not one per run: a
    // durable sweep runs the pipeline once per shard.
    if (can_fan_out && archive_blocks_ != blocked_before &&
        event_log != nullptr) {
      event_log->emit(
          obs::Severity::kInfo, "pipeline",
          archive_blocks_
              ? "archive calls block: fetch and pair phases run " +
                    std::to_string(config_.archive_inflight) +
                    " archive requests in flight"
              : "archive calls no longer block: fetch and pair phases "
                "run on the " +
                    std::to_string(workers.size()) + " CPU workers");
    }
    if (config_.telemetry.enabled) {
      registry_.gauge("sweep.archive_inflight")
          .set(static_cast<std::int64_t>(archive_workers->size()));
    }
    archive_workers->parallel_for(
        inputs.size() - first_wave,
        [&](std::size_t k) { fetch_input(first_wave + k, nullptr); });
  }
  auto key_of = [&](std::size_t i) -> const std::string& {
    return blobs[i]->key;
  };
  const auto t_fetch = std::chrono::steady_clock::now();

  // ---- §7.1 source propagation: first verified address per code hash ----
  // The donor overlay (sharded sweeps) replaces the run-local construction:
  // a shard sees only its member contracts, but the donor for a code hash is
  // defined over the whole population, so the driver precomputes the global
  // map once and injects it here.
  std::unordered_map<std::string, Address> run_local_donor;
  if (donor_overlay_.empty() && sources_ != nullptr) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (!blobs[i]) continue;
      if (sources_->has_source(inputs[i].address)) {
        run_local_donor.emplace(key_of(i), inputs[i].address);
      }
    }
  }
  const std::unordered_map<std::string, Address>& source_donor =
      donor_overlay_.empty() ? run_local_donor : donor_overlay_;
  auto with_source_donor = [&](const std::string& hash,
                               const Address& original) {
    if (sources_ != nullptr && sources_->has_source(original)) {
      return original;
    }
    const auto it = source_donor.find(hash);
    return it == source_donor.end() ? original : it->second;
  };

  // ---- pick one representative per unique code blob ---------------------
  std::unordered_map<std::string, std::size_t> representative;
  std::vector<std::size_t> unique_indices;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!blobs[i]) continue;  // fetch failed; quarantined above
    if (!config_.dedup_by_code_hash) {
      unique_indices.push_back(i);
      continue;
    }
    if (representative.emplace(key_of(i), i).second) {
      unique_indices.push_back(i);
    }
  }

  // ---- Phase A: proxy detection per unique blob (parallel) ---------------
  // Detection emulates against in-process state (no archive RPCs) and its
  // step fuse turns adversarial bytecode into a kEmulationError verdict, so
  // failures here are internal bugs — contained per blob all the same.
  std::vector<ProxyReport> unique_reports(unique_indices.size());
  std::vector<std::optional<ErrorRecord>> unique_errors(unique_indices.size());
  if (status != nullptr) status->set_phase(obs::SweepPhase::kProxy);
  {
    obs::Span phase_span(tracer_.get(), "phase:proxy");
    workers.parallel_for(unique_indices.size(), [&](std::size_t u) {
      const std::size_t i = unique_indices[u];
      obs::Span contract_span(tracer_.get(), "contract");
      contract_span.arg("index", static_cast<std::int64_t>(i));
      try {
        auto analyze = [&] {
          // Spanned inside the verdict memo: a cross-run cache hit reuses
          // the verdict without emulating, so it rightly shows no
          // proxy-detect span.
          obs::Span detect_span(tracer_.get(), "proxy-detect");
          ProxyDetectorConfig detector_config;
          detector_config.step_limit = config_.emulation_step_limit;
          detector_config.static_tier = config_.static_tier;
          ProxyDetector detector(chain_, detector_config, cache_.get());
          return detector.analyze_code(inputs[i].address, blobs[i]->code,
                                       blobs[i]->hash);
        };
        unique_reports[u] =
            verdict_cache_
                ? verdict_cache_->get_or_compute(
                      verdict_key(key_of(i), inputs[i].address), analyze)
                : analyze();
        if (h_steps_ != nullptr &&
            unique_reports[u].has_delegatecall_opcode) {
          // Deterministic per (address, code), so cached verdicts replay
          // the same sample the original emulation produced.
          h_steps_->record(unique_reports[u].emulation_steps);
        }
      } catch (const chain::RpcError& e) {
        unique_errors[u] = record_of(e, "proxy");
      } catch (const std::exception& e) {
        unique_errors[u] = ErrorRecord{ErrorKind::kInternal, "proxy", e.what()};
      }
    });
  }
  std::unordered_map<std::string, const ProxyReport*> verdicts;
  std::unordered_map<std::string, ErrorRecord> failed_keys;
  verdicts.reserve(unique_indices.size());
  for (std::size_t u = 0; u < unique_indices.size(); ++u) {
    const std::size_t i = unique_indices[u];
    if (unique_errors[u]) {
      out[i].error = *unique_errors[u];
      failed_keys.emplace(key_of(i), *unique_errors[u]);
    } else {
      verdicts.emplace(key_of(i), &unique_reports[u]);
    }
  }
  const auto t_proxy = std::chrono::steady_clock::now();

  // ---- Phase B: per-contract results (parallel) ---------------------------
  // Logic blobs go through the same once-map as the sweep inputs: each
  // distinct logic address is fetched and hashed at most once, however many
  // proxies delegate to it (the seed re-hashed per pair). Every contract is
  // its own failure domain: an RPC giving up mid-history or a watchdog
  // expiry quarantines this contract and the sweep moves on.
  //
  // The phase runs over contiguous groups of contracts. A group first runs
  // Algorithm 1 for all its proxies at once (LogicFinder::find_many: one
  // archive batch per bisection round across the group), then finishes each
  // contract on its own. On the CPU pool a group is one contract: the
  // archive answers in process, and batching there only adds work. When the
  // archive blocks, a group is inputs / (4 * archive_inflight) contracts:
  // each round trip then carries the frontiers of a group's proxies, and
  // four groups per I/O worker keep the workers evenly loaded. One finder
  // serves the whole phase, so once a shared batch fails, the rest of the
  // run sends one batch per proxy (LogicFinder::find_many).
  const std::size_t group_size =
      archive_workers == &workers
          ? 1
          : std::max<std::size_t>(
                1, inputs.size() / (4 * archive_workers->size()));
  const std::size_t groups = (inputs.size() + group_size - 1) / group_size;

  // Verdict and identity of contract i; true when it still needs the pair
  // phase's work (it is not quarantined already).
  auto take_verdict = [&](std::size_t i) {
    ContractAnalysis& a = out[i];
    a.address = inputs[i].address;
    a.year = inputs[i].year;
    a.has_source = inputs[i].has_source;
    a.has_tx = inputs[i].has_tx;
    if (a.error) return false;  // fetch or Phase A already quarantined it

    const auto vit = verdicts.find(key_of(i));
    if (vit == verdicts.end()) {
      // Our representative's Phase A failed; inherit its quarantine record.
      a.error = failed_keys.at(key_of(i));
      return false;
    }
    a.proxy = *vit->second;
    a.deduplicated =
        config_.dedup_by_code_hash && representative.at(key_of(i)) != i;
    // A deduplicated slot-proxy verdict carries the representative's logic
    // address; re-read this contract's slot for its own logic target.
    if (a.deduplicated && a.proxy.is_proxy() &&
        a.proxy.logic_source == LogicSource::kStorageSlot) {
      const U256 word = chain_.get_storage(a.address, a.proxy.logic_slot) &
                        ((U256{1} << U256{160}) - U256{1});
      a.proxy.logic_address = Address::from_word(word);
    }
    return true;
  };

  // The rest of contract i's pair phase, given its Algorithm 1 outcome
  // (`job`, null unless it is a proxy and logic history is on).
  auto finish = [&](std::size_t i, LogicJob* job) {
    ContractAnalysis& a = out[i];
    util::Watchdog watchdog(config_.contract_wall_budget_ms);
    try {
      if (!a.proxy.is_proxy()) {
        if (config_.probe_diamonds && a.proxy.has_delegatecall_opcode &&
            a.proxy.verdict == ProxyVerdict::kNotProxy) {
          DiamondProber prober(chain_, {}, cache_.get());
          a.diamond = prober.probe(a.address, a.proxy);
        }
        return;
      }

      watchdog.check("logic-history");
      if (job != nullptr) {
        if (job->error) std::rethrow_exception(job->error);
        a.logic_history = std::move(job->history);
      } else if (!a.proxy.logic_address.is_zero()) {
        a.logic_history.logic_addresses.push_back(a.proxy.logic_address);
      }

      if (!config_.detect_collisions) return;
      for (const Address& logic : a.logic_history.logic_addresses) {
        watchdog.check("pair-collisions");
        const std::shared_ptr<const CodeBlob> blob = fetch_blob(logic, nullptr);
        if (blob->code.empty()) continue;
        a.logic_has_source =
            a.logic_has_source ||
            (sources_ != nullptr && sources_->has_source(logic));

        const PairOutcome outcome = pair_cache_->get_or_compute(
            key_of(i) + blob->key, [&] {
              // Spanned inside the pair memo: a hit reuses the outcome
              // without running the detectors, so it shows no
              // collision-check span.
              obs::Span pair_span(tracer_.get(), "collision-check");
              PairOutcome o;
              FunctionCollisionDetector fn_detector(sources_, cache_.get());
              // Source-mode lookups go through same-bytecode donors (§7.1):
              // a clone of a verified contract is analyzed as if verified
              // itself.
              const Address proxy_lookup =
                  with_source_donor(key_of(i), a.address);
              const Address logic_lookup = with_source_donor(blob->key, logic);
              o.function_collision =
                  fn_detector
                      .detect(proxy_lookup, blobs[i]->code, &blobs[i]->hash,
                              logic_lookup, blob->code, &blob->hash)
                      .has_collision();
              StorageCollisionConfig st_config;
              st_config.attempt_verification = false;
              st_config.compare_families = config_.static_tier.infer_layout;
              StorageCollisionDetector st_detector(chain_, st_config,
                                                   cache_.get(), sources_);
              const StorageCollisionResult st = st_detector.detect(
                  a.address, blobs[i]->code, &blobs[i]->hash, logic,
                  blob->code, &blob->hash, &proxy_lookup, &logic_lookup);
              o.storage_collision = st.has_collision();
              for (const StorageCollisionFinding& f : st.findings) {
                if (f.exploitable) o.exploitable.push_back(f);
              }
              o.family_collision = st.has_family_collision();
              o.family_checked = st.family_checked;
              o.family_source_free = st.family_source_free;
              return o;
            });
        a.function_collision |= outcome.function_collision;
        a.storage_collision |= outcome.storage_collision;
        // Verification reads this contract's own storage, so it runs here,
        // per contract, never through the code-hash-keyed memo.
        if (!a.storage_collision_exploitable && !outcome.exploitable.empty()) {
          const StorageCollisionDetector verifier(chain_, {}, cache_.get());
          for (StorageCollisionFinding f : outcome.exploitable) {
            if (verifier.verify(a.address, blobs[i]->code, logic, blob->code,
                                &blob->hash, f)) {
              a.storage_collision_exploitable = true;
              break;
            }
          }
        }
        a.family_collision |= outcome.family_collision;
        if (outcome.family_checked) ++a.collision_pairs_family_checked;
        if (outcome.family_source_free) ++a.collision_pairs_source_free;
      }
    } catch (const chain::RpcError& e) {
      a.error = record_of(e, "pairs");
    } catch (const util::WatchdogExpired& e) {
      a.error = ErrorRecord{ErrorKind::kEmulationLimit, "pairs", e.what()};
    } catch (const std::exception& e) {
      a.error = ErrorRecord{ErrorKind::kInternal, "pairs", e.what()};
    }
  };

  if (status != nullptr) status->set_phase(obs::SweepPhase::kPairs);
  const LogicFinder finder(rpc(), &attempt_rpc());
  {
    obs::Span phase_span(tracer_.get(), "phase:pairs");
    archive_workers->parallel_for(groups, [&](std::size_t g) {
      const std::size_t begin = g * group_size;
      const std::size_t end = std::min(inputs.size(), begin + group_size);

      // Algorithm 1 for the group's proxies, in one find_many call.
      std::vector<LogicJob> jobs;  // in input order
      for (std::size_t i = begin; i < end; ++i) {
        if (!take_verdict(i)) continue;
        if (config_.find_logic_history && out[i].proxy.is_proxy()) {
          jobs.push_back({out[i].address, &out[i].proxy, {}, nullptr});
        }
      }
      if (!jobs.empty()) {
        obs::Span logic_span(tracer_.get(), "logic-search");
        try {
          finder.find_many(jobs);
        } catch (const std::exception&) {
          for (LogicJob& job : jobs) job.error = std::current_exception();
        }
        std::int64_t items = 0;
        for (const LogicJob& job : jobs) {
          items += static_cast<std::int64_t>(job.history.api_calls);
        }
        logic_span.arg("proxies", static_cast<std::int64_t>(jobs.size()));
        logic_span.arg("items", items);
      }

      std::size_t next_job = 0;
      for (std::size_t i = begin; i < end; ++i) {
        // Per-contract latency stopwatch and trace span around the rest of
        // this contract's pair phase.
        const std::uint64_t t0 = h_contract_ != nullptr ? clock_() : 0;
        {
          obs::Span contract_span(tracer_.get(), "contract");
          contract_span.arg("index", static_cast<std::int64_t>(i));
          LogicJob* job =
              next_job < jobs.size() && jobs[next_job].report == &out[i].proxy
                  ? &jobs[next_job++]
                  : nullptr;
          if (!out[i].error) finish(i, job);
        }
        if (h_contract_ != nullptr) h_contract_->record(clock_() - t0);
        if (c_contracts_ != nullptr) c_contracts_->add();
        if (status != nullptr) {
          status->contracts_done.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  const auto t_end = std::chrono::steady_clock::now();
  last_run_ms_ = ms_between(t_start, t_end);
  last_fetch_ms_ = ms_between(t_start, t_fetch);
  last_proxy_ms_ = ms_between(t_fetch, t_proxy);
  last_pairs_ms_ = ms_between(t_proxy, t_end);

  // Trace files are written after t_end so export cost never pollutes the
  // phase timings; the parallel_for joins above provide the quiescence the
  // tracer's bulk read requires.
  if (tracer_) {
    if (!config_.telemetry.trace_path.empty()) {
      tracer_->write_chrome_trace(config_.telemetry.trace_path);
    }
    if (!config_.telemetry.events_path.empty()) {
      tracer_->write_ndjson(config_.telemetry.events_path);
    }
  }

  // Quarantine accounting + run-completion event. One event per quarantined
  // contract (correlated by address), which is rare by construction — the
  // happy path emits exactly one completion event per run.
  std::uint64_t quarantined_now = 0;
  for (const ContractAnalysis& a : out) {
    if (!a.error) continue;
    ++quarantined_now;
    if (event_log != nullptr) {
      event_log->emit(obs::Severity::kWarn, "pipeline",
                      std::string("quarantined in ") + a.error->phase + ": " +
                          std::string(to_string(a.error->kind)),
                      a.address.to_hex());
    }
  }
  // The run's events, added once: counters are cumulative across runs and
  // never reset, so a scrape after any number of runs or shards reads the
  // totals.
  if (config_.telemetry.enabled) {
    registry_.counter("sweep.quarantined").add(quarantined_now);
    registry_.counter("sweep.pair_cache.hits").add(pair_cache_->hits());
    registry_.counter("sweep.pair_cache.misses").add(pair_cache_->misses());
    registry_.counter("sweep.pair_cache.waits").add(pair_cache_->waits());
  }
  if (status != nullptr) {
    status->quarantined.fetch_add(quarantined_now, std::memory_order_relaxed);
    status->sweeps_completed.fetch_add(1, std::memory_order_relaxed);
    status->set_phase(obs::SweepPhase::kDone);
  }
  if (event_log != nullptr) {
    event_log->emit(obs::Severity::kInfo, "pipeline",
                    "sweep completed: " + std::to_string(out.size()) +
                        " contracts, " + std::to_string(quarantined_now) +
                        " quarantined");
  }
  return out;
}

LandscapeStats AnalysisPipeline::summarize(
    const std::vector<ContractAnalysis>& reports) const {
  ReentrancyGuard guard(busy_);
  LandscapeAccumulator acc;
  for (const ContractAnalysis& a : reports) acc.add(a);
  LandscapeStats stats = acc.take();
  annotate_run_stats(stats);
  return stats;
}

AnalysisPipeline::RpcTotals AnalysisPipeline::rpc_totals() const {
  RpcTotals t;
  t.storage_calls = rpc().get_storage_at_calls();
  if (resilient_) {
    t.retries = resilient_->retries();
    t.faults = resilient_->faults_seen();
    t.giveups = resilient_->giveups();
    t.breaker_trips = resilient_->breaker().trips();
  }
  return t;
}

void AnalysisPipeline::annotate_run_stats(LandscapeStats& stats) const {
  const RpcTotals now = rpc_totals();
  stats.get_storage_at_calls = now.storage_calls - run_start_rpc_.storage_calls;
  stats.rpc_retries = now.retries - run_start_rpc_.retries;
  stats.rpc_faults = now.faults - run_start_rpc_.faults;
  stats.rpc_giveups = now.giveups - run_start_rpc_.giveups;
  stats.breaker_trips = now.breaker_trips - run_start_rpc_.breaker_trips;
  if (stats.total_contracts > 0) {
    stats.ms_per_contract =
        last_run_ms_ / static_cast<double>(stats.total_contracts);
  }
  stats.phase_fetch_ms = last_fetch_ms_;
  stats.phase_proxy_ms = last_proxy_ms_;
  stats.phase_pairs_ms = last_pairs_ms_;
  if (cache_) stats.cache = cache_->stats();
  if (pair_cache_) {
    stats.pair_cache_hits = pair_cache_->hits();
    stats.pair_cache_misses = pair_cache_->misses();
    stats.pair_cache_waits = pair_cache_->waits();
  }
  if (h_contract_ != nullptr) {
    stats.contract_latency_ns = h_contract_->summary();
    stats.rpc_latency_ns = h_rpc_->summary();
    stats.emulation_steps = h_steps_->summary();
  }
  if (tracer_) {
    stats.trace_spans_recorded = tracer_->recorded();
    stats.trace_spans_dropped = tracer_->dropped();
  }
}

void AnalysisPipeline::shed_cross_run_state() {
  if (blob_cache_) blob_cache_->clear();
  if (verdict_cache_) verdict_cache_->clear();
  // Dropping whole AnalysisCache entries also sheds the memoized
  // StorageLayout side table — a later lap must re-infer layouts so its
  // reports stay bit-identical with a cold run over the same population.
  if (cache_) cache_->clear();
  // The coalescer's sealed observations assume the chain was not mutated;
  // shedding is exactly the moment that assumption is surrendered (the
  // durable driver may feed a mutated chain into the next pass).
  if (coalescer_) coalescer_->clear();
}

bool AnalysisPipeline::seed_verdict(const crypto::Hash256& code_hash,
                                    const Address& representative,
                                    const ProxyReport& report) {
  if (!verdict_cache_) return false;
  verdict_cache_->get_or_compute(
      verdict_key(hash_key(code_hash), representative), [&] { return report; });
  return true;
}

void AnalysisPipeline::set_source_donor_overlay(
    std::vector<std::pair<crypto::Hash256, Address>> donors) {
  donor_overlay_.clear();
  for (const auto& [hash, address] : donors) {
    donor_overlay_.emplace(hash_key(hash), address);
  }
}

}  // namespace proxion::core

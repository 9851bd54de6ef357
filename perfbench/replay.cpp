#include "replay.h"

#include <string>
#include <unordered_map>

#include "chain/archive_node.h"
#include "core/analysis_cache.h"
#include "core/function_collision.h"
#include "core/logic_finder.h"
#include "core/proxy_detector.h"
#include "core/report.h"
#include "core/storage_collision.h"
#include "crypto/keccak.h"
#include "harness.h"
#include "serve/query_service.h"
#include "store/records.h"

namespace perfbench {

namespace core = proxion::core;
namespace crypto = proxion::crypto;
namespace evm = proxion::evm;

namespace {

std::string hash_key(const crypto::Hash256& h) {
  return std::string(reinterpret_cast<const char*>(h.data()), h.size());
}

/// Accumulates the wall time of the calls it brackets.
class Busy {
 public:
  explicit Busy(double& total_ms) : total_ms_(total_ms), t0_(now_s()) {}
  ~Busy() { total_ms_ += (now_s() - t0_) * 1000.0; }
  Busy(const Busy&) = delete;
  Busy& operator=(const Busy&) = delete;

 private:
  double& total_ms_;
  double t0_;
};

}  // namespace

void ReplayTimes::scale_sweep(double f) noexcept {
  for (double* v : {&code_hash_ms, &disassemble_ms, &triage_ms, &layout_ms,
                    &detect_ms, &logic_finder_ms, &collision_ms}) {
    *v *= f;
  }
}

void replay_sweep_layers(ReplayTimes& t, proxion::chain::Blockchain& chain,
                         const proxion::sourcemeta::SourceRepository* sources,
                         const std::vector<core::SweepInput>& inputs,
                         const std::vector<core::ContractAnalysis>& reports) {
  t.contracts = inputs.size();

  // ---- fetch (untimed) + code hashing, one blob per distinct address ------
  std::vector<evm::Bytes> code(inputs.size());
  std::vector<crypto::Hash256> hash(inputs.size());
  std::unordered_map<std::string, std::size_t> first_of_hash;
  std::vector<std::size_t> unique;  // representative input index per hash
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    code[i] = chain.code_at(inputs[i].address);
    {
      Busy b(t.code_hash_ms);
      hash[i] = crypto::keccak256(code[i]);
    }
    if (first_of_hash.emplace(hash_key(hash[i]), i).second) {
      unique.push_back(i);
    }
  }
  t.unique_blobs = unique.size();

  // ---- per unique blob: disassembly, static triage, layout, detection -----
  core::AnalysisCache cache;
  // The detector configuration a default pipeline uses.
  const core::PipelineConfig pipeline_defaults;
  core::ProxyDetectorConfig detector_config;
  detector_config.step_limit = pipeline_defaults.emulation_step_limit;
  detector_config.static_tier = pipeline_defaults.static_tier;
  core::ProxyDetector detector(chain, detector_config, &cache);
  for (const std::size_t i : unique) {
    {
      Busy b(t.disassemble_ms);
      (void)cache.disassembly(hash[i], code[i]);
    }
    {
      Busy b(t.triage_ms);
      (void)cache.static_report(hash[i], code[i]);
    }
    {
      Busy b(t.layout_ms);
      (void)cache.layout(hash[i], code[i]);
    }
    {
      Busy b(t.detect_ms);
      (void)detector.analyze_code(inputs[i].address, code[i], hash[i]);
    }
  }

  // ---- per proxy: Algorithm 1; per unique (proxy, logic) pair: collisions --
  proxion::chain::ArchiveNode node(chain);
  core::LogicFinder finder(node);
  core::FunctionCollisionDetector fn_detector(sources, &cache);
  core::StorageCollisionConfig st_config;
  st_config.compare_families = true;
  core::StorageCollisionDetector st_detector(chain, st_config, &cache,
                                             sources);
  std::unordered_map<std::string, bool> pairs_seen;
  for (std::size_t i = 0; i < reports.size() && i < inputs.size(); ++i) {
    const core::ContractAnalysis& a = reports[i];
    if (!a.proxy.is_proxy()) continue;
    ++t.proxies;
    {
      Busy b(t.logic_finder_ms);
      (void)finder.find(a.address, a.proxy);
    }
    for (const evm::Address& logic : a.logic_history.logic_addresses) {
      const evm::Bytes logic_code = chain.code_at(logic);
      if (logic_code.empty()) continue;
      const crypto::Hash256 logic_hash = crypto::keccak256(logic_code);
      if (!pairs_seen.emplace(hash_key(hash[i]) + hash_key(logic_hash), true)
               .second) {
        continue;
      }
      ++t.unique_pairs;
      Busy b(t.collision_ms);
      (void)fn_detector.detect(a.address, code[i], &hash[i], logic,
                               logic_code, &logic_hash);
      (void)st_detector.detect(a.address, code[i], &hash[i], logic,
                               logic_code, &logic_hash, &a.address, &logic);
    }
  }
}

void replay_serve_layers(ReplayTimes& t, proxion::chain::Blockchain& chain,
                         const std::vector<core::SweepInput>& inputs,
                         const std::vector<core::ContractAnalysis>& reports) {
  std::vector<proxion::store::ContractRecord> records;
  records.reserve(reports.size());
  for (std::size_t i = 0; i < reports.size() && i < inputs.size(); ++i) {
    records.push_back(
        {reports[i], crypto::keccak256(chain.code_at(inputs[i].address))});
  }
  proxion::serve::QueryService query;
  {
    Busy b(t.publish_ms);
    query.apply_records(records);
    (void)query.publish(chain.height());
  }
  const std::size_t samples = std::min<std::size_t>(2000, inputs.size());
  std::vector<double> render_us;
  render_us.reserve(samples);
  for (std::size_t k = 0; k < samples; ++k) {
    const std::string target =
        inputs[k * inputs.size() / samples].address.to_hex();
    const double t0 = now_s();
    const proxion::obs::HttpResponse r = query.contract_endpoint(target);
    render_us.push_back((now_s() - t0) * 1e6);
    (void)r;
  }
  t.render_us_p50 = percentile(render_us, 50);
}

}  // namespace perfbench

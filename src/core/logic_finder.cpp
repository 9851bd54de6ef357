#include "core/logic_finder.h"

#include <algorithm>
#include <map>
#include <span>
#include <utility>

namespace proxion::core {

namespace {

LogicHistory summarize(std::vector<std::pair<std::uint64_t, U256>> values,
                       std::uint64_t api_calls) {
  std::sort(values.begin(), values.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  LogicHistory history;
  history.api_calls = api_calls;
  U256 previous;
  bool have_previous = false;
  for (const auto& [block, value] : values) {
    if (have_previous && value == previous) continue;
    if (have_previous && !previous.is_zero() && !value.is_zero()) {
      ++history.upgrade_events;
    }
    previous = value;
    have_previous = true;
    if (value.is_zero()) continue;
    const Address logic = Address::from_word(value);
    if (std::find(history.logic_addresses.begin(),
                  history.logic_addresses.end(),
                  logic) == history.logic_addresses.end()) {
      history.logic_addresses.push_back(logic);
    }
  }
  return history;
}

/// Algorithm 1's state for one proxy, advanced one breadth-first round at a
/// time. The ranges visited, the heights probed, and api_calls are exactly
/// those of the recursive formulation: endpoints are memoized in `cache`
/// just as the recursive client memoized re-visited endpoints.
struct Search {
  LogicJob* job = nullptr;
  std::map<std::uint64_t, U256> cache;
  std::uint64_t api_calls = 0;
  std::vector<std::pair<std::uint64_t, U256>> values;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> open;
  /// This round's probe frontier: the uncached endpoints of every open
  /// range, sorted and distinct.
  std::vector<std::uint64_t> need;

  void plan_round() {
    need.clear();
    for (const auto& [lo, hi] : open) {
      if (cache.find(lo) == cache.end()) need.push_back(lo);
      if (cache.find(hi) == cache.end()) need.push_back(hi);
    }
    std::sort(need.begin(), need.end());
    need.erase(std::unique(need.begin(), need.end()), need.end());
  }

  void append_probes(std::vector<chain::StorageQuery>& batch) const {
    for (const std::uint64_t b : need) {
      batch.push_back({job->proxy, job->report->logic_slot, b});
    }
  }

  void accept(std::span<const U256> fetched) {
    for (std::size_t i = 0; i < need.size(); ++i) {
      cache.emplace(need[i], fetched[i]);
    }
    // Paper semantics: api_calls counts distinct heights the search needed
    // (§6.1's ~26 per proxy), independent of how the archive stack
    // coalesces or batches them.
    api_calls += need.size();
  }

  /// Settles or splits every open range on its fetched endpoints.
  void advance() {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> next;
    for (const auto& [lo, hi] : open) {
      const U256& v_lo = cache.at(lo);
      const U256& v_hi = cache.at(hi);
      if (v_lo == v_hi) {
        // Algorithm 1's core assumption: logic addresses are unique through
        // history, so equal endpoint values mean no change inside the range.
        values.emplace_back(lo, v_lo);
      } else if (hi == lo + 1) {
        values.emplace_back(lo, v_lo);
        values.emplace_back(hi, v_hi);
      } else {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        next.emplace_back(lo, mid);
        next.emplace_back(mid + 1, hi);
      }
    }
    open = std::move(next);
  }
};

}  // namespace

LogicHistory LogicFinder::find(const Address& proxy,
                               const ProxyReport& report) const {
  LogicJob job{proxy, &report, {}, nullptr};
  find_many(std::span<LogicJob>(&job, 1));
  if (job.error) std::rethrow_exception(job.error);
  return std::move(job.history);
}

void LogicFinder::find_many(std::span<LogicJob> jobs) const {
  std::vector<Search> searches;
  for (LogicJob& job : jobs) {
    job.history = {};
    job.error = nullptr;
    const ProxyReport& report = *job.report;
    if (!report.is_proxy()) continue;
    if (report.logic_source != LogicSource::kStorageSlot) {
      // Hard-coded (EIP-1167) or computed targets: one fixed logic contract,
      // no archive queries needed (§4.3).
      if (!report.logic_address.is_zero()) {
        job.history.logic_addresses.push_back(report.logic_address);
      }
      continue;
    }
    searches.emplace_back().job = &job;
  }
  if (searches.empty()) return;
  const std::uint64_t head = node_.latest_block();
  for (Search& s : searches) s.open = {{0, head}};

  std::vector<chain::StorageQuery> batch;
  // One batch per proxy: what a lone frontier sends, and the fallback after
  // a shared batch failed. Its failure is this proxy's own.
  auto fetch_alone = [&](Search& s) {
    batch.clear();
    s.append_probes(batch);
    try {
      s.accept(node_.get_storage_at_many(batch));
    } catch (const chain::RpcError&) {
      s.job->error = std::current_exception();
    }
  };
  // One batch for the frontiers of `group`, sent once to shared_. If it
  // fails, some probe in it is faulty: each proxy in it re-sends its own
  // batch through node_, and this finder stops sharing batches.
  auto fetch = [&](std::span<Search* const> group) {
    if (group.size() == 1 || !share_.load()) {
      for (Search* s : group) fetch_alone(*s);
      return;
    }
    batch.clear();
    for (const Search* s : group) s->append_probes(batch);
    std::vector<U256> fetched;
    try {
      fetched = shared_.get_storage_at_many(batch);
    } catch (const chain::RpcError&) {
      share_.store(false);
      for (Search* s : group) fetch_alone(*s);
      return;
    }
    std::span<const U256> rest(fetched);
    for (Search* s : group) {
      s->accept(rest.first(s->need.size()));
      rest = rest.subspan(s->need.size());
    }
  };

  std::vector<Search*> group;
  while (!searches.empty()) {
    // Whole frontiers, in job order, packed into batches of at most
    // kMaxStorageBatch probes; a frontier above the cap rides alone.
    group.clear();
    std::size_t items = 0;
    for (Search& s : searches) {
      s.plan_round();
      if (s.need.empty()) continue;
      if (!group.empty() && items + s.need.size() > kMaxStorageBatch) {
        fetch(group);
        group.clear();
        items = 0;
      }
      group.push_back(&s);
      items += s.need.size();
    }
    if (!group.empty()) fetch(group);

    for (Search& s : searches) {
      if (s.job->error) continue;
      s.advance();
      if (s.open.empty()) {
        s.job->history = summarize(std::move(s.values), s.api_calls);
      }
    }
    std::erase_if(searches, [](const Search& s) {
      return s.job->error != nullptr || s.open.empty();
    });
  }
}

LogicHistory LogicFinder::find_naive(const Address& proxy,
                                     const U256& slot) const {
  std::vector<std::pair<std::uint64_t, U256>> values;
  const std::uint64_t latest = node_.latest_block();
  for (std::uint64_t b = 0; b <= latest; ++b) {
    values.emplace_back(b, node_.get_storage_at(proxy, slot, b));
  }
  return summarize(std::move(values), latest + 1);
}

}  // namespace proxion::core

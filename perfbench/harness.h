// Benchmark-owned plumbing shared by the workloads and the self-test:
// percentile and open-loop accounting, the archive-node wrappers (a
// counting/timing pass-through and a seeded round-trip latency model), a
// timing filesystem over the real one, a minimal loopback HTTP client, and
// the result/provenance printers. Everything here talks to the program
// under test only through its public seams (chain::IArchiveNode, util::Vfs,
// the /v1 HTTP plane).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chain/archive_node.h"
#include "util/vfs.h"

namespace perfbench {

// ---- clocks ---------------------------------------------------------------

/// Monotonic seconds (steady clock).
double now_s();
/// Process CPU seconds (user + system, all threads).
double process_cpu_s();
/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Kernel id of the calling thread.
int current_tid();
/// Kernel ids of every thread of this process.
std::vector<int> thread_ids();
/// CPU seconds (user + system) of thread `tid` of this process; 0 when the
/// thread has ended.
double thread_cpu_s(int tid);
/// Asks the kernel to fire the calling thread's timers on time (1 ns slack
/// instead of the default 50 us).
void use_precise_timers();

// ---- percentiles ------------------------------------------------------------

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

/// The highest of {99.9, 99, 90, 50} that leaves at least ten samples above
/// its nearest rank in a set of `n`; nullopt below 20 samples, where even the
/// median has fewer than ten samples beyond it.
std::optional<double> highest_supported_percentile(std::size_t n);

/// True when percentile `p` of `n` samples has at least ten samples beyond it.
bool percentile_supported(std::size_t n, double p);

// ---- open-loop request accounting -----------------------------------------

/// Due-time bookkeeping for an open-loop generator: request i is due at
/// start + i / rate whatever happened to earlier requests, and is timed from
/// that due time, so a stall also charges the wait it imposes on every
/// request queued behind it. The lag is how late the generator itself sent
/// a request (sent - due, never negative).
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double start_s, double rate_per_s);

  double due(std::uint64_t i) const;
  /// Records request i, sent at `sent_s` and answered at `done_s`.
  void record(std::uint64_t i, double sent_s, double done_s);

  const std::vector<double>& latencies_s() const noexcept { return lat_; }
  double max_lag_s() const noexcept { return max_lag_; }
  std::uint64_t recorded() const noexcept { return lat_.size(); }

 private:
  double start_;
  double rate_;
  std::vector<double> lat_;
  double max_lag_ = 0.0;
};

// ---- archive-node wrappers --------------------------------------------------

/// Counts and times every call that reaches the wrapped backend. Placed
/// under the pipeline's own decorators (via PipelineConfig::archive_node), it
/// sees exactly the round trips a remote archive node would serve.
class CountingArchiveNode final : public proxion::chain::IArchiveNode {
 public:
  struct Counts {
    std::uint64_t scalar_calls = 0;   // eth_getStorageAt round trips
    std::uint64_t batch_calls = 0;    // batched round trips
    std::uint64_t batch_items = 0;    // slots read by batched round trips
    std::uint64_t code_calls = 0;     // eth_getCode round trips
    std::uint64_t wait_ns = 0;        // summed over all callers
    std::uint64_t round_trips() const noexcept {
      return scalar_calls + batch_calls + code_calls;
    }
    std::uint64_t storage_reads() const noexcept {
      return scalar_calls + batch_items;
    }
    Counts operator-(const Counts& o) const noexcept;
  };

  explicit CountingArchiveNode(const proxion::chain::IArchiveNode& inner)
      : inner_(inner) {}

  /// Off, calls pass straight through uncounted (one relaxed load each).
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  Counts counts() const noexcept;

  proxion::chain::U256 get_storage_at(const proxion::chain::Address& account,
                                      const proxion::chain::U256& slot,
                                      std::uint64_t block) const override;
  std::vector<proxion::chain::U256> get_storage_at_many(
      std::span<const proxion::chain::StorageQuery> queries) const override;
  proxion::chain::Bytes get_code(
      const proxion::chain::Address& account) const override;
  std::uint64_t latest_block() const override { return inner_.latest_block(); }
  std::uint64_t get_storage_at_calls() const override {
    return inner_.get_storage_at_calls();
  }
  std::uint64_t get_code_calls() const override {
    return inner_.get_code_calls();
  }
  void reset_counters() const override { inner_.reset_counters(); }

 private:
  const proxion::chain::IArchiveNode& inner_;
  std::atomic<bool> enabled_{true};
  mutable std::atomic<std::uint64_t> scalar_{0};
  mutable std::atomic<std::uint64_t> batch_{0};
  mutable std::atomic<std::uint64_t> items_{0};
  mutable std::atomic<std::uint64_t> code_{0};
  mutable std::atomic<std::uint64_t> wait_ns_{0};
};

/// Round-trip cost model of a remote archive node.
struct LatencyModel {
  std::uint64_t seed = 1;
  /// Mean cost of one round trip; each call draws uniformly from
  /// [rtt/2, 3*rtt/2) with a generator keyed by (seed, call content), so
  /// the delay of a given call does not depend on thread interleaving.
  std::uint64_t rtt_ns = 200'000;
  /// Added per slot of a batched read (server-side work per item).
  std::uint64_t per_item_ns = 5'000;
};

/// Pass-through to an inner archive node that sleeps each round trip (scalar
/// read, batched read or get_code) for the model's seeded delay. Answers are
/// the inner node's, untouched.
class LatencyArchiveNode final : public proxion::chain::IArchiveNode {
 public:
  LatencyArchiveNode(const proxion::chain::IArchiveNode& inner,
                     LatencyModel model)
      : inner_(inner), model_(model) {}

  /// Delay the model charges for each call kind (exposed for the checks).
  std::uint64_t storage_delay_ns(const proxion::chain::Address& account,
                                 const proxion::chain::U256& slot,
                                 std::uint64_t block) const noexcept;
  std::uint64_t batch_delay_ns(
      std::span<const proxion::chain::StorageQuery> queries) const noexcept;
  std::uint64_t code_delay_ns(
      const proxion::chain::Address& account) const noexcept;
  /// Total delay charged so far (all threads).
  std::uint64_t charged_ns() const noexcept {
    return charged_ns_.load(std::memory_order_relaxed);
  }

  proxion::chain::U256 get_storage_at(const proxion::chain::Address& account,
                                      const proxion::chain::U256& slot,
                                      std::uint64_t block) const override;
  std::vector<proxion::chain::U256> get_storage_at_many(
      std::span<const proxion::chain::StorageQuery> queries) const override;
  proxion::chain::Bytes get_code(
      const proxion::chain::Address& account) const override;
  std::uint64_t latest_block() const override { return inner_.latest_block(); }
  std::uint64_t get_storage_at_calls() const override {
    return inner_.get_storage_at_calls();
  }
  std::uint64_t get_code_calls() const override {
    return inner_.get_code_calls();
  }
  void reset_counters() const override { inner_.reset_counters(); }

 private:
  void wait(std::uint64_t ns) const;

  const proxion::chain::IArchiveNode& inner_;
  LatencyModel model_;
  mutable std::atomic<std::uint64_t> charged_ns_{0};
};

// ---- timing filesystem ------------------------------------------------------

/// util::Vfs over the real filesystem that counts and times writes and
/// fsyncs (file and directory). Feeds the store.* metrics.
class TimingVfs final : public proxion::util::Vfs {
 public:
  struct Counts {
    std::uint64_t write_calls = 0;
    std::uint64_t write_ns = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t fsync_calls = 0;
    std::uint64_t fsync_ns = 0;
    Counts operator-(const Counts& o) const noexcept;
  };
  struct Cells {
    std::atomic<bool> enabled{true};
    std::atomic<std::uint64_t> write_calls{0};
    std::atomic<std::uint64_t> write_ns{0};
    std::atomic<std::uint64_t> bytes_written{0};
    std::atomic<std::uint64_t> fsync_calls{0};
    std::atomic<std::uint64_t> fsync_ns{0};
  };

  TimingVfs() : inner_(proxion::util::Vfs::real()) {}

  /// Off, operations pass straight through untimed.
  void set_enabled(bool on) noexcept {
    cells_.enabled.store(on, std::memory_order_relaxed);
  }
  Counts counts() const noexcept;

  std::unique_ptr<proxion::util::VfsFile> open(
      const std::string& path, OpenMode mode,
      proxion::util::VfsStatus* status) override;
  std::optional<std::vector<std::uint8_t>> read_file(
      const std::string& path) override {
    return inner_.read_file(path);
  }
  proxion::util::VfsStatus rename(const std::string& from,
                                  const std::string& to) override {
    return inner_.rename(from, to);
  }
  proxion::util::VfsStatus remove(const std::string& path) override {
    return inner_.remove(path);
  }
  proxion::util::VfsStatus sync_dir(const std::string& path) override;

 private:
  proxion::util::Vfs& inner_;
  Cells cells_;
};

// ---- loopback HTTP client ---------------------------------------------------

struct HttpResult {
  bool ok = false;       // transport succeeded and a status line was parsed
  int status = 0;
  std::string body;
  double connect_s = 0;  // connect() duration
  double ttfb_s = 0;     // request sent -> first response byte
  std::string error;
};

/// One GET against 127.0.0.1:`port` (Connection: close), with a socket
/// timeout of `timeout_ms` for each step.
HttpResult http_get(std::uint16_t port, const std::string& target,
                    int timeout_ms = 2000);

// ---- reporting ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Metrics in insertion order, printed both as aligned human lines and as
/// the JSON object of the final result line.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const noexcept { return metrics_; }
  const Metric* find(const std::string& name) const;
  void print_lines(const std::string& heading) const;
  std::string json() const;

 private:
  std::vector<Metric> metrics_;
};

/// Escapes `s` as a JSON string literal (with quotes).
std::string json_str(const std::string& s);

/// Filesystem type name of the mount holding `path` ("ext4", "overlay",
/// "tmpfs", ... or "0x<magic>").
std::string filesystem_of(const std::string& path);
/// First "model name" line of /proc/cpuinfo, or "unknown".
std::string cpu_model();

}  // namespace perfbench

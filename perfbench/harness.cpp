#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace perfbench {

using proxion::chain::Address;
using proxion::chain::Bytes;
using proxion::chain::StorageQuery;
using proxion::chain::U256;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64 finaliser: the mixing step of the latency model's keyed
/// generator.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t absorb(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) h = mix(h ^ b);
  return h;
}

std::uint64_t absorb_query(std::uint64_t h, const Address& account,
                           const U256& slot, std::uint64_t block) {
  h = absorb(h, account.bytes);
  const auto word = slot.to_be_bytes();
  h = absorb(h, word);
  return mix(h ^ block);
}

}  // namespace

// ---- clocks ---------------------------------------------------------------

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int current_tid() { return static_cast<int>(::gettid()); }

std::vector<int> thread_ids() {
  std::vector<int> ids;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    ids.push_back(std::atoi(e.path().filename().c_str()));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

double thread_cpu_s(int tid) {
  // The kernel's CPU-time clock of one thread of this process, encoded the
  // way pthread_getcpuclockid() encodes it (per-thread flag | SCHED clock),
  // which works from a thread id alone.
  const clockid_t id = static_cast<clockid_t>((~tid << 3) | 6);
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void use_precise_timers() {
  thread_local const bool done = prctl(PR_SET_TIMERSLACK, 1UL) == 0;
  (void)done;
}

// ---- percentiles ------------------------------------------------------------

namespace {

/// 1-based nearest rank of percentile p in n samples; the epsilon keeps
/// ranks such as 99.9% of 10000 from rounding up past 9990.
double nearest_rank(std::size_t n, double p) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = nearest_rank(samples.size(), p);
  const std::size_t idx =
      rank < 1.0 ? 0
                 : std::min(samples.size() - 1,
                            static_cast<std::size_t>(rank) - 1);
  return samples[idx];
}

bool percentile_supported(std::size_t n, double p) {
  if (n == 0) return false;
  const double rank = nearest_rank(n, p);
  const auto at = static_cast<std::size_t>(std::max(rank, 1.0));
  return n >= at && n - at >= 10;
}

std::optional<double> highest_supported_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    if (percentile_supported(n, p)) return p;
  }
  return std::nullopt;
}

// ---- open-loop request accounting -----------------------------------------

OpenLoopSchedule::OpenLoopSchedule(double start_s, double rate_per_s)
    : start_(start_s), rate_(rate_per_s) {}

double OpenLoopSchedule::due(std::uint64_t i) const {
  return start_ + static_cast<double>(i) / rate_;
}

void OpenLoopSchedule::record(std::uint64_t i, double sent_s, double done_s) {
  const double d = due(i);
  lat_.push_back(done_s - d);
  max_lag_ = std::max(max_lag_, sent_s - d);
}

// ---- archive-node wrappers --------------------------------------------------

CountingArchiveNode::Counts CountingArchiveNode::Counts::operator-(
    const Counts& o) const noexcept {
  return {scalar_calls - o.scalar_calls, batch_calls - o.batch_calls,
          batch_items - o.batch_items, code_calls - o.code_calls,
          wait_ns - o.wait_ns};
}

CountingArchiveNode::Counts CountingArchiveNode::counts() const noexcept {
  return {scalar_.load(std::memory_order_relaxed),
          batch_.load(std::memory_order_relaxed),
          items_.load(std::memory_order_relaxed),
          code_.load(std::memory_order_relaxed),
          wait_ns_.load(std::memory_order_relaxed)};
}

U256 CountingArchiveNode::get_storage_at(const Address& account,
                                         const U256& slot,
                                         std::uint64_t block) const {
  if (!enabled_.load(std::memory_order_relaxed)) {
    return inner_.get_storage_at(account, slot, block);
  }
  const std::uint64_t t0 = now_ns();
  U256 out = inner_.get_storage_at(account, slot, block);
  wait_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  scalar_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

std::vector<U256> CountingArchiveNode::get_storage_at_many(
    std::span<const StorageQuery> queries) const {
  if (!enabled_.load(std::memory_order_relaxed)) {
    return inner_.get_storage_at_many(queries);
  }
  const std::uint64_t t0 = now_ns();
  std::vector<U256> out = inner_.get_storage_at_many(queries);
  wait_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  batch_.fetch_add(1, std::memory_order_relaxed);
  items_.fetch_add(queries.size(), std::memory_order_relaxed);
  return out;
}

Bytes CountingArchiveNode::get_code(const Address& account) const {
  if (!enabled_.load(std::memory_order_relaxed)) {
    return inner_.get_code(account);
  }
  const std::uint64_t t0 = now_ns();
  Bytes out = inner_.get_code(account);
  wait_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  code_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

std::uint64_t LatencyArchiveNode::storage_delay_ns(
    const Address& account, const U256& slot,
    std::uint64_t block) const noexcept {
  const std::uint64_t h = absorb_query(mix(model_.seed ^ 0x51), account, slot,
                                       block);
  return model_.rtt_ns / 2 + h % std::max<std::uint64_t>(model_.rtt_ns, 1);
}

std::uint64_t LatencyArchiveNode::batch_delay_ns(
    std::span<const StorageQuery> queries) const noexcept {
  std::uint64_t h = mix(model_.seed ^ 0xba);
  for (const StorageQuery& q : queries) {
    h = absorb_query(h, q.account, q.slot, q.block);
  }
  return model_.rtt_ns / 2 + h % std::max<std::uint64_t>(model_.rtt_ns, 1) +
         model_.per_item_ns * queries.size();
}

std::uint64_t LatencyArchiveNode::code_delay_ns(
    const Address& account) const noexcept {
  const std::uint64_t h = absorb(mix(model_.seed ^ 0xc0), account.bytes);
  return model_.rtt_ns / 2 + h % std::max<std::uint64_t>(model_.rtt_ns, 1);
}

void LatencyArchiveNode::wait(std::uint64_t ns) const {
  if (ns == 0) return;
  charged_ns_.fetch_add(ns, std::memory_order_relaxed);
  // The default 50 us timer slack would stretch every 200 us round trip by
  // a quarter; ask this (calling) thread's timers to fire on time.
  use_precise_timers();
  // Sleep to an absolute deadline so wake-up slack does not compound.
  timespec deadline{};
  clock_gettime(CLOCK_MONOTONIC, &deadline);
  const std::uint64_t total =
      static_cast<std::uint64_t>(deadline.tv_nsec) + ns;
  deadline.tv_sec += static_cast<time_t>(total / 1'000'000'000ull);
  deadline.tv_nsec = static_cast<long>(total % 1'000'000'000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &deadline, nullptr) ==
         EINTR) {
  }
}

U256 LatencyArchiveNode::get_storage_at(const Address& account,
                                        const U256& slot,
                                        std::uint64_t block) const {
  wait(storage_delay_ns(account, slot, block));
  return inner_.get_storage_at(account, slot, block);
}

std::vector<U256> LatencyArchiveNode::get_storage_at_many(
    std::span<const StorageQuery> queries) const {
  wait(batch_delay_ns(queries));
  return inner_.get_storage_at_many(queries);
}

Bytes LatencyArchiveNode::get_code(const Address& account) const {
  wait(code_delay_ns(account));
  return inner_.get_code(account);
}

// ---- timing filesystem ------------------------------------------------------

namespace {

class TimingFile final : public proxion::util::VfsFile {
 public:
  TimingFile(std::unique_ptr<proxion::util::VfsFile> inner,
             TimingVfs::Cells& cells)
      : inner_(std::move(inner)), cells_(cells) {}

  proxion::util::VfsStatus write(
      std::span<const std::uint8_t> bytes) override {
    if (!cells_.enabled.load(std::memory_order_relaxed)) {
      return inner_->write(bytes);
    }
    const std::uint64_t t0 = now_ns();
    const proxion::util::VfsStatus st = inner_->write(bytes);
    cells_.write_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    cells_.write_calls.fetch_add(1, std::memory_order_relaxed);
    cells_.bytes_written.fetch_add(bytes.size(), std::memory_order_relaxed);
    return st;
  }
  proxion::util::VfsStatus seek(std::uint64_t offset) override {
    return inner_->seek(offset);
  }
  proxion::util::VfsStatus sync() override {
    if (!cells_.enabled.load(std::memory_order_relaxed)) return inner_->sync();
    const std::uint64_t t0 = now_ns();
    const proxion::util::VfsStatus st = inner_->sync();
    cells_.fsync_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    cells_.fsync_calls.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  proxion::util::VfsStatus truncate(std::uint64_t size) override {
    return inner_->truncate(size);
  }

 private:
  std::unique_ptr<proxion::util::VfsFile> inner_;
  TimingVfs::Cells& cells_;
};

}  // namespace

TimingVfs::Counts TimingVfs::Counts::operator-(const Counts& o) const noexcept {
  return {write_calls - o.write_calls, write_ns - o.write_ns,
          bytes_written - o.bytes_written, fsync_calls - o.fsync_calls,
          fsync_ns - o.fsync_ns};
}

TimingVfs::Counts TimingVfs::counts() const noexcept {
  return {cells_.write_calls.load(std::memory_order_relaxed),
          cells_.write_ns.load(std::memory_order_relaxed),
          cells_.bytes_written.load(std::memory_order_relaxed),
          cells_.fsync_calls.load(std::memory_order_relaxed),
          cells_.fsync_ns.load(std::memory_order_relaxed)};
}

std::unique_ptr<proxion::util::VfsFile> TimingVfs::open(
    const std::string& path, OpenMode mode, proxion::util::VfsStatus* status) {
  std::unique_ptr<proxion::util::VfsFile> f = inner_.open(path, mode, status);
  if (!f) return f;
  return std::make_unique<TimingFile>(std::move(f), cells_);
}

proxion::util::VfsStatus TimingVfs::sync_dir(const std::string& path) {
  if (!cells_.enabled.load(std::memory_order_relaxed)) {
    return inner_.sync_dir(path);
  }
  const std::uint64_t t0 = now_ns();
  const proxion::util::VfsStatus st = inner_.sync_dir(path);
  cells_.fsync_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  cells_.fsync_calls.fetch_add(1, std::memory_order_relaxed);
  return st;
}

// ---- loopback HTTP client ---------------------------------------------------

HttpResult http_get(std::uint16_t port, const std::string& target,
                    int timeout_ms) {
  HttpResult r;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    r.error = std::string("socket: ") + std::strerror(errno);
    return r;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const double t0 = now_s();
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    r.error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return r;
  }
  const double t1 = now_s();
  r.connect_s = t1 - t0;

  const std::string req = "GET " + target +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      r.error = std::string("send: ") + std::strerror(errno);
      ::close(fd);
      return r;
    }
    sent += static_cast<std::size_t>(n);
  }
  const double t2 = now_s();

  std::string raw;
  char buf[8192];
  bool first = true;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      r.error = std::string("recv: ") + std::strerror(errno);
      ::close(fd);
      return r;
    }
    if (n == 0) break;
    if (first) {
      r.ttfb_s = now_s() - t2;
      first = false;
    }
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  // "HTTP/1.1 200 OK\r\n...\r\n\r\n<body>"
  if (raw.rfind("HTTP/1.", 0) != 0 || raw.size() < 12) {
    r.error = "malformed status line";
    return r;
  }
  r.status = std::atoi(raw.c_str() + 9);
  const std::size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos) {
    r.error = "no header terminator";
    return r;
  }
  r.body = raw.substr(split + 4);
  r.ok = true;
  return r;
}

// ---- reporting ----------------------------------------------------------------

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void MetricSet::print_lines(const std::string& heading) const {
  std::printf("%s\n", heading.c_str());
  for (const Metric& m : metrics_) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string MetricSet::json() const {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) out += ", ";
    first = false;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += json_str(m.name) + ": {\"value\": " + num +
           ", \"unit\": " + json_str(m.unit) + "}";
  }
  return out + "}";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string filesystem_of(const std::string& path) {
  struct statfs sf {};
  if (::statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlay";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx",
                static_cast<unsigned long>(sf.f_type));
  return hex;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace perfbench

// Structured event log for the live introspection plane: one Event per
// operationally-interesting occurrence (phase transition, quarantine,
// breaker flip, shard commit, degraded-mode entry, journal self-heal),
// carrying a severity, BOTH timestamps (monotonic ns for ordering/joins
// against spans, wall-clock unix ms for humans), a component, and a
// correlation id (contract address, shard index) so events about one unit
// of work can be grepped together. This replaces the ad-hoc
// `std::fprintf(stderr, ...)` progress lines the pipeline and durable sweep
// accumulated: call sites emit here when a log is wired.
//
// Events are rare by design (nothing per-contract on the happy path), so
// emit() takes a mutex; it is safe from any thread. The log keeps a bounded
// in-memory ring (oldest overwritten) for the /events-style drains and can
// append each event as one NDJSON line to a file sink as it happens.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace proxion::obs {

enum class Severity : std::uint8_t { kDebug, kInfo, kWarn, kError };

std::string_view to_string(Severity severity) noexcept;

/// Wall clock, unix epoch milliseconds; empty std::function = system_clock.
using WallClock = std::function<std::int64_t()>;

/// system_clock now, in milliseconds since the unix epoch.
std::int64_t wall_now_ms() noexcept;

struct Event {
  Severity severity = Severity::kInfo;
  /// Monotonic nanoseconds (same clock family as span timestamps, so events
  /// and spans from one process interleave meaningfully).
  std::uint64_t mono_ns = 0;
  /// Wall-clock unix milliseconds at emit time.
  std::int64_t wall_ms = 0;
  /// Process-unique, strictly increasing per log: a drain can detect gaps.
  std::uint64_t seq = 0;
  std::string component;    // "pipeline", "sweep", "chain.breaker", ...
  std::string message;
  /// Correlation id: contract address hex, "shard:N", ... May be empty.
  std::string correlation;
};

struct EventLogConfig {
  /// Events retained in memory; older ones are overwritten (the file sink,
  /// when configured, still has them).
  std::size_t ring_capacity = 1024;
  /// NDJSON file sink, one line appended (and flushed) per event; empty =
  /// in-memory only.
  std::string path;
  /// Monotonic ns clock; empty = steady_clock. Tests inject fakes for
  /// byte-deterministic NDJSON.
  TraceClock clock;
  WallClock wall_clock;
};

class EventLog {
 public:
  explicit EventLog(EventLogConfig config = {});
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Thread-safe; takes the log's mutex (events are rare — this is NOT a
  /// per-contract hot path, see file comment).
  void emit(Severity severity, std::string_view component,
            std::string_view message, std::string_view correlation = {});

  /// Ring contents, oldest first. Thread-safe.
  std::vector<Event> recent() const;
  /// The ring as NDJSON (one object per line, oldest first). Thread-safe.
  std::string ndjson() const;

  std::uint64_t emitted() const noexcept;    // accepted into the ring
  std::uint64_t overwritten() const noexcept;  // evicted by ring wrap

  /// One event as its NDJSON line (no trailing newline). Deterministic.
  static std::string render_ndjson_line(const Event& event);

 private:
  EventLogConfig config_;
  TraceClock clock_;
  WallClock wall_;
  mutable std::mutex mu_;
  std::vector<Event> ring_;     // ring storage, capacity-bounded
  std::uint64_t written_ = 0;   // total events ever accepted
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> sink_;
};

}  // namespace proxion::obs

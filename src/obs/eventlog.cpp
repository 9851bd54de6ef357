#include "obs/eventlog.h"

#include <chrono>
#include <cstdio>

namespace proxion::obs {

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

std::string_view to_string(Severity severity) noexcept {
  switch (severity) {
    case Severity::kDebug: return "debug";
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "unknown";
}

std::int64_t wall_now_ms() noexcept {
  return static_cast<std::int64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

EventLog::EventLog(EventLogConfig config)
    : config_(std::move(config)),
      clock_(config_.clock ? config_.clock : TraceClock(&steady_now_ns)),
      wall_(config_.wall_clock ? config_.wall_clock : WallClock(&wall_now_ms)),
      sink_(nullptr, &std::fclose) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  ring_.reserve(std::min<std::size_t>(config_.ring_capacity, 256));
  if (!config_.path.empty()) {
    sink_.reset(std::fopen(config_.path.c_str(), "a"));
  }
}

EventLog::~EventLog() = default;

void EventLog::emit(Severity severity, std::string_view component,
                    std::string_view message, std::string_view correlation) {
  // Timestamps are taken before the lock so contention never skews them.
  Event e;
  e.severity = severity;
  e.mono_ns = clock_();
  e.wall_ms = wall_();
  e.component.assign(component);
  e.message.assign(message);
  e.correlation.assign(correlation);

  std::lock_guard<std::mutex> lk(mu_);
  e.seq = written_;
  if (sink_) {
    const std::string line = render_ndjson_line(e);
    std::fwrite(line.data(), 1, line.size(), sink_.get());
    std::fputc('\n', sink_.get());
    // Events are rare and operationally load-bearing (a crash right after a
    // degraded-mode entry must leave the event on disk): flush per line.
    std::fflush(sink_.get());
  }
  if (ring_.size() < config_.ring_capacity) {
    ring_.push_back(std::move(e));
  } else {
    ring_[written_ % config_.ring_capacity] = std::move(e);
  }
  ++written_;
}

std::vector<Event> EventLog::recent() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  const std::size_t cap = config_.ring_capacity;
  const std::uint64_t begin = written_ > cap ? written_ - cap : 0;
  for (std::uint64_t i = begin; i < written_; ++i) {
    out.push_back(ring_[i % cap]);
  }
  return out;
}

std::string EventLog::ndjson() const {
  std::string out;
  for (const Event& e : recent()) {
    out += render_ndjson_line(e);
    out.push_back('\n');
  }
  return out;
}

std::uint64_t EventLog::emitted() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return written_;
}

std::uint64_t EventLog::overwritten() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return written_ > config_.ring_capacity ? written_ - config_.ring_capacity
                                          : 0;
}

std::string EventLog::render_ndjson_line(const Event& event) {
  std::string out;
  out.reserve(96 + event.component.size() + event.message.size() +
              event.correlation.size());
  char buf[32];
  out += "{\"severity\":";
  append_json_string(out, to_string(event.severity));
  std::snprintf(buf, sizeof buf, ",\"seq\":%llu",
                static_cast<unsigned long long>(event.seq));
  out += buf;
  std::snprintf(buf, sizeof buf, ",\"mono_ns\":%llu",
                static_cast<unsigned long long>(event.mono_ns));
  out += buf;
  std::snprintf(buf, sizeof buf, ",\"wall_ms\":%lld",
                static_cast<long long>(event.wall_ms));
  out += buf;
  out += ",\"component\":";
  append_json_string(out, event.component);
  out += ",\"message\":";
  append_json_string(out, event.message);
  if (!event.correlation.empty()) {
    out += ",\"correlation\":";
    append_json_string(out, event.correlation);
  }
  out += "}";
  return out;
}

}  // namespace proxion::obs

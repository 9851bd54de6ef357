#include "obs/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace proxion::obs {

namespace {

constexpr std::size_t kMaxRequestBytes = 8192;  // headers incl.; GETs are tiny

// Budget for a whole request read, and again for a whole response write, so
// a client dripping or draining a byte per call cannot hold the one serving
// thread for longer (a per-call socket timeout alone would let it).
constexpr std::chrono::seconds kDeadline{2};
using Clock = std::chrono::steady_clock;

/// Sets socket timeout `opt` (SO_RCVTIMEO / SO_SNDTIMEO) to the time left
/// until `deadline`; false once it has passed (a zero timeval = no timeout).
bool arm_timeout(int fd, int opt, Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
                        deadline - Clock::now()).count();
  if (left <= 0) return false;
  const timeval tv{left / 1'000'000, left % 1'000'000};
  ::setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof tv);
  return true;
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Internal Server Error";
  }
}

void send_all(int fd, const std::string& data) {
  const Clock::time_point deadline = Clock::now() + kDeadline;
  std::size_t sent = 0;
  while (sent < data.size() && arm_timeout(fd, SO_SNDTIMEO, deadline)) {
    // MSG_NOSIGNAL: a scraper that hung up mid-response must surface as an
    // error return, not a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

std::string render_response(const HttpResponse& resp) {
  std::string out;
  out.reserve(128 + resp.body.size());
  char head[160];
  std::snprintf(head, sizeof head,
                "HTTP/1.1 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                resp.status, status_text(resp.status),
                resp.content_type.c_str(), resp.body.size());
  out += head;
  out += resp.body;
  return out;
}

}  // namespace

HttpServer::HttpServer() = default;

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(const std::string& path, HttpHandler handler) {
  handlers_[path] = std::move(handler);
}

void HttpServer::handle_prefix(const std::string& prefix,
                               HttpPrefixHandler handler) {
  prefix_handlers_[prefix] = std::move(handler);
}

bool HttpServer::start(std::uint16_t port) {
  if (running_.load(std::memory_order_relaxed)) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only, by design
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);  // resolves port 0 to the ephemeral choice
  }
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void HttpServer::stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  // shutdown() unblocks the accept() in the loop thread; close follows the
  // join so the fd number can't be recycled under a still-running accept.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpServer::accept_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      // Shutdown (or a fatal accept error): leave the loop; stop() flips
      // running_ before shutdown so the normal path reads false here.
      return;
    }
    serve_one(client);
    ::close(client);
  }
}

void HttpServer::serve_one(int client_fd) {
  const Clock::time_point deadline = Clock::now() + kDeadline;
  std::string req;
  char buf[2048];
  while (req.size() < kMaxRequestBytes &&
         req.find("\r\n\r\n") == std::string::npos &&
         arm_timeout(client_fd, SO_RCVTIMEO, deadline)) {
    const ssize_t n = ::recv(client_fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    req.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t line_end = req.find("\r\n");
  if (line_end == std::string::npos) return;  // not even a request line

  // "METHOD SP target SP version"
  const std::string line = req.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  HttpResponse resp;
  if (sp1 == std::string::npos || sp2 == sp1) {
    resp.status = 400;
    resp.body = "malformed request line\n";
  } else if (line.substr(0, sp1) != "GET") {
    resp.status = 405;
    resp.body = "only GET is served here\n";
  } else {
    std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    std::string query;
    const std::size_t q = target.find('?');
    if (q != std::string::npos) {
      query = target.substr(q + 1);
      target.resize(q);
    }
    const auto it = handlers_.find(target);
    if (it != handlers_.end()) {
      resp = it->second(query);
    } else {
      // Longest matching registered prefix wins; the map is sorted
      // ascending, so the last match seen is the longest.
      const HttpPrefixHandler* best = nullptr;
      std::size_t best_len = 0;
      for (const auto& [prefix, handler] : prefix_handlers_) {
        if (target.starts_with(prefix) && prefix.size() >= best_len) {
          best = &handler;
          best_len = prefix.size();
        }
      }
      if (best != nullptr) {
        resp = (*best)(target.substr(best_len), query);
      } else {
        resp.status = 404;
        resp.body = "no such endpoint; try /metrics /healthz /spans /v1/status\n";
      }
    }
  }
  send_all(client_fd, render_response(resp));
  served_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace proxion::obs

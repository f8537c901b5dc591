#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <time.h>
#include <sys/prctl.h>
#include <strings.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <cmath>
#include <atomic>
#include <memory>
#include <thread>

#include "tracing.h"

namespace perfbench {
namespace {

/// The server answers at most this many requests on one connection and
/// closes it after the last (ServeContext::max_keep_alive_requests).
constexpr std::uint32_t kRequestsPerConnection = 1000;
constexpr int kIoTimeoutMs = 60000;
constexpr std::size_t kMaxErrors = 8;

struct Response {
  int status = 0;
  bool close = false;
  std::string_view cache;  ///< X-Swala-Cache value, empty if absent
  std::string_view body;
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

bool header_is(std::string_view name, std::string_view want) {
  return name.size() == want.size() &&
         ::strncasecmp(name.data(), want.data(), want.size()) == 0;
}

std::string wire_for(const Request& r, std::uint64_t id) {
  std::string out;
  out.reserve(r.target.size() + 96);
  out += r.post ? "POST " : "GET ";
  out += r.target;
  out += " HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Bench-Id: ";
  out += std::to_string(id);
  out += r.post ? "\r\nContent-Length: 0\r\n\r\n" : "\r\n\r\n";
  return out;
}

/// One keep-alive connection and its receive buffer.
class Conn {
 public:
  ~Conn() { close(); }
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool open(std::uint16_t port, std::string* error) {
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = std::string("connect: ") + std::strerror(errno);
      close();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sent_ = 0;
    buffer_.clear();
    consumed_ = 0;
    return true;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int fd() const { return fd_; }
  bool is_open() const { return fd_ >= 0; }
  bool exhausted() const { return sent_ >= kRequestsPerConnection; }

  bool send(const std::string& wire) {
    std::size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    ++sent_;
    return true;
  }

  /// Reads what the socket has: >0 bytes, 0 EOF, -1 error.
  ssize_t fill() {
    if (consumed_ > 0 && consumed_ == buffer_.size()) {
      buffer_.clear();
      consumed_ = 0;
    } else if (consumed_ > 256 * 1024) {
      buffer_.erase(0, consumed_);
      consumed_ = 0;
    }
    char chunk[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n > 0) buffer_.append(chunk, static_cast<std::size_t>(n));
      return n;
    }
  }

  /// Parses the next complete response in the buffer: 1 parsed, 0 need
  /// more bytes, -1 malformed. Views stay valid until the next fill().
  int next(Response* out) {
    const std::string_view view(buffer_.data() + consumed_, buffer_.size() - consumed_);
    const std::size_t head_end = view.find("\r\n\r\n");
    if (head_end == std::string_view::npos) return view.size() > 64 * 1024 ? -1 : 0;
    const std::string_view head = view.substr(0, head_end);
    const std::size_t line_end = head.find("\r\n");
    const std::string_view status_line = head.substr(0, line_end);
    if (status_line.size() < 12 || status_line.substr(0, 5) != "HTTP/") return -1;
    *out = Response{};
    out->status = std::atoi(std::string(status_line.substr(9, 3)).c_str());
    std::size_t content_length = 0;
    bool has_length = false;
    std::size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
    while (pos < head.size()) {
      std::size_t eol = head.find("\r\n", pos);
      if (eol == std::string_view::npos) eol = head.size();
      const std::string_view line = head.substr(pos, eol - pos);
      pos = eol + 2;
      const std::size_t colon = line.find(':');
      if (colon == std::string_view::npos) return -1;
      const std::string_view name = line.substr(0, colon);
      const std::string_view value = trim(line.substr(colon + 1));
      if (header_is(name, "Content-Length")) {
        content_length = std::strtoull(std::string(value).c_str(), nullptr, 10);
        has_length = true;
      } else if (header_is(name, "Connection")) {
        out->close = header_is(value, "close");
      } else if (header_is(name, "X-Swala-Cache")) {
        out->cache = value;
      }
    }
    if (!has_length && out->status != 304 && out->status != 204) return -1;
    const std::size_t total = head_end + 4 + content_length;
    if (view.size() < total) return 0;
    out->body = view.substr(head_end + 4, content_length);
    consumed_ += total;
    return 1;
  }

 private:
  int fd_ = -1;
  std::uint32_t sent_ = 0;
  std::string buffer_;
  std::size_t consumed_ = 0;
};

Outcome classify(const Request& r, const Response& resp) {
  if (r.kind == Kind::kStatic) return Outcome::kStatic;
  if (r.kind == Kind::kAdmin) return Outcome::kAdmin;
  if (resp.cache == "hit-local") return Outcome::kHitLocal;
  if (resp.cache == "hit-remote") return Outcome::kHitRemote;
  if (resp.cache == "hit-coalesced") return Outcome::kHitCoalesced;
  if (resp.cache == "miss") return Outcome::kMiss;
  if (resp.cache == "failed-fast") return Outcome::kFailedFast;
  return Outcome::kError;
}

/// Per-thread accumulator, merged into one PhaseResult at the end.
struct Recorder {
  const LoadTarget& target;
  PhaseResult result;
  bool keep_bodies = false;

  void fail(const Request& r, const std::string& why) {
    result.samples.push_back(Sample{now_ns(), 0.0, r.kind, Outcome::kError, false});
    if (keep_bodies) result.bodies.emplace_back();
    note(why + " [" + r.target + "]");
  }

  void note(const std::string& why) {
    if (result.errors.size() < kMaxErrors) result.errors.push_back(why);
  }

  void complete(const Request& r, const Response& resp, std::int64_t from_ns) {
    Sample s;
    s.start_ns = from_ns;
    s.latency_s = static_cast<double>(now_ns() - from_ns) * 1e-9;
    s.kind = r.kind;
    s.outcome = classify(r, resp);
    const bool status_ok = (resp.status >= 200 && resp.status < 300) || resp.status == 304;
    s.ok = status_ok && s.outcome != Outcome::kError &&
           s.outcome != Outcome::kFailedFast && (*target.verify)(r, resp.body);
    if (!s.ok) {
      note("status " + std::to_string(resp.status) + " cache '" +
           std::string(resp.cache) + "' body " + std::to_string(resp.body.size()) +
           "B [" + r.target + "]");
    }
    result.samples.push_back(s);
    if (keep_bodies) result.bodies.emplace_back(resp.body);
  }
};

void merge_into(PhaseResult* into, PhaseResult&& from) {
  into->samples.insert(into->samples.end(), from.samples.begin(), from.samples.end());
  into->lateness_s.insert(into->lateness_s.end(), from.lateness_s.begin(),
                          from.lateness_s.end());
  for (auto& e : from.errors) {
    if (into->errors.size() < kMaxErrors) into->errors.push_back(std::move(e));
  }
  into->end_ns = std::max(into->end_ns, from.end_ns);
}

const Request& request_at(const LoadTarget& t, std::size_t index) {
  return (*t.requests)[index % t.requests->size()];
}

/// Waits until `conn` has a parsed response (closed loop). False on EOF,
/// error or timeout, with `why` set.
bool await_response(Conn& conn, Response* resp, std::string* why) {
  for (;;) {
    const int parsed = conn.next(resp);
    if (parsed == 1) return true;
    if (parsed < 0) {
      *why = "malformed response";
      return false;
    }
    pollfd pfd{conn.fd(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, kIoTimeoutMs);
    if (rc == 0) {
      *why = "response timeout";
      return false;
    }
    if (rc < 0) {
      if (errno == EINTR) continue;
      *why = std::string("poll: ") + std::strerror(errno);
      return false;
    }
    const ssize_t n = conn.fill();
    if (n <= 0) {
      *why = n == 0 ? "connection closed" : std::string("recv: ") + std::strerror(errno);
      return false;
    }
  }
}

/// One exchange on `conn`, reconnecting first when the server's
/// per-connection budget is spent. Latency counts from `timed_from`, or
/// from the send when it is 0.
void exchange(const LoadTarget& target, Conn& conn, std::uint16_t port,
              std::size_t index, std::int64_t timed_from, Recorder* rec) {
  const Request& r = request_at(target, index);
  std::string why;
  if ((!conn.is_open() || conn.exhausted()) && !conn.open(port, &why)) {
    rec->fail(r, why);
    return;
  }
  const std::int64_t sent = now_ns();
  Response resp;
  if (!conn.send(wire_for(r, index + 1))) {
    conn.close();
    rec->fail(r, "send failed");
    return;
  }
  if (!await_response(conn, &resp, &why)) {
    conn.close();
    rec->fail(r, why);
    return;
  }
  rec->complete(r, resp, timed_from != 0 ? timed_from : sent);
  if (resp.close) conn.close();
}

/// Closed-loop worker: claims the next request as soon as its connection
/// is free, until `count` requests are claimed or `stop_ns` passes.
void closed_worker(const LoadTarget& target, std::size_t c, std::size_t first,
                   std::size_t count, std::int64_t stop_ns,
                   std::atomic<std::size_t>* next, Recorder* rec) {
  const std::uint16_t port = target.ports[c % target.ports.size()];
  Conn conn;
  while (stop_ns == 0 || now_ns() < stop_ns) {
    const std::size_t j = next->fetch_add(1);
    if (j >= count) break;
    exchange(target, conn, port, first + j, 0, rec);
  }
  rec->result.end_ns = now_ns();
}

/// Open-loop worker: request first + j is due at start + j / rate. A free
/// connection claims the next request and sends it when it falls due; a
/// request that falls due while every connection is busy is claimed late,
/// by whichever frees up first, and its latency counts from the due time,
/// so a stall is charged to every request it delays. A request claimed
/// ahead of time counts from its send: the generator's own timer overshoot
/// is not server latency. All lateness is reported.
void open_worker(const LoadTarget& target, std::size_t c, std::size_t first,
                 double rate, std::int64_t start_ns, std::int64_t end_ns,
                 std::atomic<std::size_t>* next, Recorder* rec) {
  const std::uint16_t port = target.ports[c % target.ports.size()];
  Conn conn;
  for (;;) {
    const std::size_t j = next->fetch_add(1);
    const std::int64_t due =
        start_ns + static_cast<std::int64_t>(static_cast<double>(j) / rate * 1e9);
    if (due >= end_ns) break;
    const bool waited = now_ns() < due;
    // steady_clock is CLOCK_MONOTONIC.
    const timespec at{static_cast<time_t>(due / 1000000000),
                      static_cast<long>(due % 1000000000)};
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at, nullptr) == EINTR) {
    }
    rec->result.lateness_s.push_back(static_cast<double>(now_ns() - due) * 1e-9);
    exchange(target, conn, port, first + j, waited ? 0 : due, rec);
  }
  rec->result.end_ns = now_ns();
}

template <typename Worker>
PhaseResult run_threads(const LoadTarget& target, Worker&& worker) {
  std::vector<std::unique_ptr<Recorder>> recorders;
  for (std::size_t c = 0; c < target.connections; ++c) {
    recorders.push_back(std::make_unique<Recorder>(Recorder{target, {}, false}));
  }
  PhaseResult out;
  out.start_ns = now_ns();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < target.connections; ++c) {
      threads.emplace_back([&, c] {
        // Wake at due times, not up to the default 50 us timer slack late.
        ::prctl(PR_SET_TIMERSLACK, 1UL);
        worker(c, recorders[c].get());
      });
    }
    for (auto& t : threads) t.join();
  }
  out.end_ns = out.start_ns;
  // Size the merged vectors once, so peak RSS does not depend on where
  // repeated doubling happens to land.
  std::size_t samples = 0, lateness = 0;
  for (const auto& rec : recorders) {
    samples += rec->result.samples.size();
    lateness += rec->result.lateness_s.size();
  }
  out.samples.reserve(samples);
  out.lateness_s.reserve(lateness);
  for (auto& rec : recorders) merge_into(&out, std::move(rec->result));
  return out;
}

}  // namespace

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kHitLocal: return "hit-local";
    case Outcome::kHitRemote: return "hit-remote";
    case Outcome::kHitCoalesced: return "hit-coalesced";
    case Outcome::kMiss: return "miss";
    case Outcome::kFailedFast: return "failed-fast";
    case Outcome::kStatic: return "static";
    case Outcome::kAdmin: return "admin";
    case Outcome::kError: return "error";
  }
  return "?";
}

std::uint64_t PhaseResult::failed() const {
  return static_cast<std::uint64_t>(
      std::count_if(samples.begin(), samples.end(), [](const Sample& s) { return !s.ok; }));
}

PhaseResult run_closed(const LoadTarget& target, std::size_t first,
                       std::size_t count, double max_seconds) {
  const std::int64_t stop =
      max_seconds > 0 ? now_ns() + static_cast<std::int64_t>(max_seconds * 1e9) : 0;
  // Reserve for the fastest plausible rate: pages are touched only as
  // samples are written, so peak RSS grows with the requests made, not in
  // vector-doubling steps.
  constexpr double kMaxRate = 250000.0;
  const std::size_t per_connection = std::min<std::size_t>(
      count, static_cast<std::size_t>(kMaxRate * max_seconds /
                                      static_cast<double>(target.connections))) + 64;
  std::atomic<std::size_t> next{0};
  return run_threads(target, [&](std::size_t c, Recorder* rec) {
    rec->result.samples.reserve(per_connection);
    closed_worker(target, c, first, count, stop, &next, rec);
  });
}

PhaseResult run_closed_for(const LoadTarget& target, std::size_t first,
                           double seconds) {
  return run_closed(target, first, static_cast<std::size_t>(-1) / 2, seconds);
}

PhaseResult run_open(const LoadTarget& target, std::size_t first, double rate,
                     double seconds) {
  // Start slightly in the future so every worker is parked before the
  // first request is due.
  const std::int64_t start = now_ns() + 2'000'000;
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::atomic<std::size_t> next{0};
  // Reserve up front: growing a sample vector mid-phase copies it while
  // requests are due.
  const auto per_connection =
      static_cast<std::size_t>(rate * seconds / static_cast<double>(target.connections) * 1.2) + 64;
  PhaseResult out = run_threads(target, [&](std::size_t c, Recorder* rec) {
    rec->result.samples.reserve(per_connection);
    rec->result.lateness_s.reserve(per_connection);
    open_worker(target, c, first, rate, start, end, &next, rec);
  });
  out.start_ns = start;
  return out;
}

PhaseResult run_sequential(const LoadTarget& target, std::size_t first,
                           std::size_t count) {
  Recorder rec{target, {}, true};
  rec.result.start_ns = now_ns();
  std::vector<Conn> conns(target.ports.size());
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t node = j % conns.size();
    exchange(target, conns[node], target.ports[node], first + j, 0, &rec);
  }
  rec.result.end_ns = now_ns();
  return std::move(rec.result);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

}  // namespace perfbench

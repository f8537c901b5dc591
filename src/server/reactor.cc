#include "server/reactor.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "http/message.h"

namespace swala::server {
namespace {

// epoll data cookies. Connection ids start above the reserved range and
// only ever grow, so a late readiness report or timer for a closed
// connection can never alias a new one (no fd-reuse ABA: events carry ids,
// not fds).
constexpr std::uint64_t kListenerData = 1;
constexpr std::uint64_t kWakeupData = 2;
constexpr std::uint64_t kFirstConnId = 16;

/// Jobs in flight are bounded by open connections, but the queue must never
/// block the event loop: dispatch uses try_push and sheds on overflow.
constexpr std::size_t kJobQueueDepth = 8192;

}  // namespace

EpollReactor::EpollReactor(const ServeContext* ctx, net::TcpListener* listener,
                           ReactorOptions options)
    : ctx_(ctx),
      listener_(listener),
      options_(options),
      clock_(ctx->clock != nullptr
                 ? ctx->clock
                 : static_cast<const Clock*>(RealClock::instance())),
      wheel_(from_millis(options_.timer_resolution_ms > 0
                             ? options_.timer_resolution_ms
                             : 50)),
      next_conn_id_(kFirstConnId),
      jobs_(kJobQueueDepth) {
  if (options_.worker_threads == 0) options_.worker_threads = 1;
  if (options_.timer_resolution_ms <= 0) options_.timer_resolution_ms = 50;
}

EpollReactor::~EpollReactor() { stop(); }

Status EpollReactor::start() {
  if (started_.exchange(true)) return Status::ok();
  auto poller = net::Poller::create();
  if (!poller) return poller.status();
  poller_ = std::move(poller.value());
  auto wakeup = net::WakeupFd::create();
  if (!wakeup) return wakeup.status();
  wakeup_ = std::move(wakeup.value());
  if (auto st = listener_->set_nonblocking(true); !st.is_ok()) return st;
  if (auto st = poller_.add(listener_->raw_fd(), EPOLLIN, kListenerData);
      !st.is_ok()) {
    return st;
  }
  if (auto st = poller_.add(wakeup_.fd(), EPOLLIN, kWakeupData); !st.is_ok()) {
    return st;
  }
  workers_.reserve(options_.worker_threads);
  for (std::size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  loop_thread_ = std::thread([this] { loop(); });
  return Status::ok();
}

void EpollReactor::begin_drain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  wakeup_.signal();
}

void EpollReactor::stop() {
  if (!started_.load(std::memory_order_relaxed)) return;
  stopping_.store(true, std::memory_order_relaxed);
  // Workers first: they finish queued jobs (each posting a completion and a
  // wakeup the loop keeps servicing), so every dispatched request still gets
  // its response during the flush below.
  jobs_.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  wakeup_.signal();
  if (loop_thread_.joinable()) loop_thread_.join();
}

void EpollReactor::loop() {
  net::PollEvent events[128];
  std::vector<std::uint64_t> fired;
  for (;;) {
    if (drain_requested_.load(std::memory_order_relaxed) && !drain_swept_) {
      drain_swept_ = true;
      accepting_ = false;
      // Closing the listener fd deregisters it from epoll and makes new
      // connects fail fast; idle keep-alive connections close immediately,
      // in-flight ones wind down with "Connection: close" (ctx->draining).
      listener_->close();
      sweep_idle(/*respond_mid_request=*/false);
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      if (stop_flush_until_ == 0) {
        stop_flush_until_ = clock_->now() + from_millis(options_.stop_flush_ms);
        accepting_ = false;
        if (listener_->valid()) listener_->close();
        // Mirror the threaded shutdown: a connection mid-request gets a 503
        // "server shutting down" answer, an idle one just closes.
        sweep_idle(/*respond_mid_request=*/true);
      }
      process_completions();
      bool busy;
      {
        std::lock_guard<std::mutex> lock(completions_mutex_);
        busy = !completions_.empty();
      }
      if (!busy) {
        for (const auto& [id, conn] : conns_) {
          if (conn->state != Conn::State::kReading) {
            busy = true;
            break;
          }
        }
      }
      if (!busy || clock_->now() >= stop_flush_until_) break;
    }

    auto n = poller_.wait(events, 128, options_.timer_resolution_ms);
    if (!n) {
      SWALA_LOG(Error) << "reactor poll failed: " << n.status().to_string();
      break;
    }
    for (int i = 0; i < n.value(); ++i) {
      const net::PollEvent& ev = events[i];
      if (ev.data == kListenerData) {
        accept_ready();
        continue;
      }
      if (ev.data == kWakeupData) {
        wakeup_.drain();
        continue;
      }
      Conn* conn = find(ev.data);
      if (conn == nullptr) continue;  // closed earlier in this batch
      if ((ev.events & EPOLLERR) != 0) {
        close_conn(conn);
        continue;
      }
      switch (conn->state) {
        case Conn::State::kReading:
          drive_read(conn);
          break;
        case Conn::State::kWriting:
          if ((ev.events & (EPOLLOUT | EPOLLHUP)) != 0) drive_write(conn);
          break;
        case Conn::State::kExecuting:
          break;  // armed==0; stale report, the worker owns this connection
      }
    }
    process_completions();

    const TimeNs now = clock_->now();
    fired.clear();
    wheel_.advance(now, &fired);
    for (const std::uint64_t id : fired) handle_timer(id, now);
  }

  // Loop exit: close whatever is left so the active-connections gauge and
  // the fds are released even on an unclean stop.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    if (Conn* conn = find(id); conn != nullptr) close_conn(conn);
  }
}

void EpollReactor::accept_ready() {
  if (!accepting_) return;
  for (;;) {
    auto accepted = listener_->try_accept();
    if (!accepted) {
      // kWouldBlock: backlog empty. Anything else means the listener is
      // gone; stop accepting and let drain/stop clean up.
      if (accepted.status().code() != StatusCode::kWouldBlock) {
        accepting_ = false;
      }
      return;
    }
    net::TcpStream stream = std::move(accepted.value());
    if (should_shed()) {
      shed_new_connection(std::move(stream));
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->stream = std::move(stream);
    (void)conn->stream.set_no_delay(true);
    const TimeNs now = clock_->now();
    conn->last_activity = now;
    Conn* raw = conn.get();
    conns_.emplace(raw->id, std::move(conn));
    if (ctx_->counters != nullptr) {
      ++ctx_->counters->connections;
      ++ctx_->counters->active_connections;
    }
    if (auto st = poller_.add(raw->stream.raw_fd(), EPOLLIN, raw->id);
        !st.is_ok()) {
      SWALA_LOG(Error) << "reactor: epoll add failed: " << st.to_string();
      close_conn(raw);
      continue;
    }
    raw->armed = EPOLLIN;
    schedule_read_timer(raw, now);
  }
}

bool EpollReactor::should_shed() {
  if (options_.max_connections == 0) return false;
  const std::uint64_t active =
      ctx_->counters != nullptr ? ctx_->counters->active_connections
                                : conns_.size();
  if (shedding_) {
    const std::uint64_t resume =
        options_.max_connections *
        static_cast<std::uint64_t>(std::max(0, options_.shed_resume_percent)) /
        100;
    if (active <= resume) {
      shedding_ = false;
      SWALA_LOG(Info) << "admission control: resumed at " << active
                      << " active connections";
      return false;
    }
    return true;
  }
  if (active >= options_.max_connections) {
    shedding_ = true;
    SWALA_LOG(Warn) << "admission control: shedding at " << active << "/"
                    << options_.max_connections << " active connections";
    return true;
  }
  return false;
}

void EpollReactor::shed_new_connection(net::TcpStream stream) {
  if (ctx_->counters != nullptr) ++ctx_->counters->requests_shed;
  http::Response resp = overload_response(503, "server at connection limit",
                                          ctx_->retry_after_seconds);
  // One non-blocking attempt: the 503 fits in a fresh socket buffer, and a
  // peer that can't even take that isn't worth a reactor state machine.
  (void)stream.write_some_vec(resp.serialize_head(), resp.body);
  // stream destructor closes the socket.
}

EpollReactor::Conn* EpollReactor::find(std::uint64_t id) {
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void EpollReactor::close_conn(Conn* conn) {
  wheel_.cancel(conn->id);
  if (ctx_->counters != nullptr) --ctx_->counters->active_connections;
  // Closing the fd (Conn destructor) deregisters it from epoll implicitly.
  conns_.erase(conn->id);
}

void EpollReactor::drive_read(Conn* conn) {
  char buf[16 * 1024];
  for (;;) {
    auto n = conn->stream.read_nb(buf, sizeof(buf));
    if (!n) {
      if (n.status().code() == StatusCode::kWouldBlock) break;
      close_conn(conn);  // reset or hard error
      return;
    }
    if (n.value() == 0) {  // orderly peer close
      close_conn(conn);
      return;
    }
    const TimeNs now = clock_->now();
    conn->last_activity = now;
    const http::ParseState state = conn->parser.feed({buf, n.value()});
    // The per-request deadline arms at the *first byte* of a request (slow
    // loris: every byte resets the idle timer but cannot stretch the
    // request past its budget), exactly like the threaded handler.
    if (conn->deadline_at == 0 && ctx_->request_timeout_ms > 0 &&
        conn->parser.mid_request()) {
      conn->deadline = Deadline::after_ms(clock_, ctx_->request_timeout_ms);
      conn->deadline_at = now + from_millis(ctx_->request_timeout_ms);
    }
    if (state == http::ParseState::kDone) {
      dispatch(conn);
      return;
    }
    if (state == http::ParseState::kError) {
      respond_and_close(conn,
                        http::Response::error(conn->parser.error_status()));
      return;
    }
  }
  // Incomplete request and the socket ran dry: wait for more bytes.
  arm(conn, EPOLLIN);
  schedule_read_timer(conn, clock_->now());
}

void EpollReactor::dispatch(Conn* conn) {
  conn->state = Conn::State::kExecuting;
  wheel_.cancel(conn->id);
  // Stop readiness reports while a worker owns the request; level-triggered
  // EPOLLIN would otherwise spin the loop on bytes we are not reading.
  arm(conn, 0);
  Job job;
  job.conn_id = conn->id;
  job.served = conn->served;
  job.request = std::move(conn->parser.request());
  job.deadline = conn->deadline;
  if (!jobs_.try_push(std::move(job))) {
    // Worker pool hopelessly behind: shed rather than block the loop.
    if (ctx_->counters != nullptr) ++ctx_->counters->requests_shed;
    respond_and_close(conn, overload_response(503, "server busy",
                                              ctx_->retry_after_seconds));
  }
}

void EpollReactor::worker_loop() {
  while (auto job = jobs_.pop()) {
    const TimeNs handle_start = clock_->now();
    http::Response resp = handle_request(job->request, *ctx_, job->deadline);
    record_exchange(*ctx_, job->request, resp, handle_start, clock_);
    const bool keep = finalize_response(job->request, *ctx_, job->served, &resp);
    Completion done;
    done.conn_id = job->conn_id;
    done.head = resp.serialize_head();
    done.body = std::move(resp.body);
    done.keep = keep;
    {
      std::lock_guard<std::mutex> lock(completions_mutex_);
      completions_.push_back(std::move(done));
    }
    wakeup_.signal();
  }
}

void EpollReactor::process_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (auto& done : batch) {
    Conn* conn = find(done.conn_id);
    if (conn == nullptr) continue;  // cut at its deadline while executing
    start_response(conn, std::move(done.head), std::move(done.body),
                   done.keep);
  }
}

void EpollReactor::start_response(Conn* conn, std::string head,
                                  std::string body, bool keep) {
  conn->state = Conn::State::kWriting;
  conn->head = std::move(head);
  conn->body = std::move(body);
  conn->head_off = 0;
  conn->body_off = 0;
  conn->keep = keep;
  // The response write shares the request budget (stalled-reader cut); with
  // no deadline the idle timeout caps it, matching the threaded model's
  // send timeout.
  TimeNs cut = conn->deadline_at;
  if (cut == 0 && ctx_->recv_timeout_ms > 0) {
    cut = clock_->now() + from_millis(ctx_->recv_timeout_ms);
  }
  conn->write_cut_at = cut;
  if (cut != 0) {
    wheel_.schedule(conn->id, cut);
  } else {
    wheel_.cancel(conn->id);
  }
  drive_write(conn);
}

void EpollReactor::respond_and_close(Conn* conn, const http::Response& resp) {
  // Error/overload responses carry "Connection: close" already (see
  // Response::error); version and Server header follow the threaded error
  // paths, which write the canned response as-is.
  start_response(conn, resp.serialize_head(), resp.body, /*keep=*/false);
}

void EpollReactor::drive_write(Conn* conn) {
  for (;;) {
    std::string_view head(conn->head);
    head.remove_prefix(conn->head_off);
    std::string_view body(conn->body);
    body.remove_prefix(conn->body_off);
    if (head.empty() && body.empty()) break;
    auto n = conn->stream.write_some_vec(head, body);
    if (!n) {
      if (n.status().code() == StatusCode::kWouldBlock) {
        arm(conn, EPOLLOUT);
        return;
      }
      close_conn(conn);  // peer reset or hard error mid-response
      return;
    }
    std::size_t wrote = n.value();
    const std::size_t from_head = std::min(wrote, head.size());
    conn->head_off += from_head;
    wrote -= from_head;
    conn->body_off += wrote;
    if (from_head == 0 && wrote == 0) {  // kernel took nothing; re-arm
      arm(conn, EPOLLOUT);
      return;
    }
  }

  // Response fully written.
  if (ctx_->counters != nullptr) {
    ctx_->counters->bytes_sent += conn->head.size() + conn->body.size();
  }
  ++conn->served;
  wheel_.cancel(conn->id);
  if (!conn->keep) {
    close_conn(conn);
    return;
  }

  // Keep-alive: recycle for the next request on this connection.
  conn->state = Conn::State::kReading;
  conn->head.clear();
  conn->body.clear();
  conn->head_off = 0;
  conn->body_off = 0;
  conn->write_cut_at = 0;
  conn->deadline = Deadline();
  conn->deadline_at = 0;
  conn->parser.reset();
  const TimeNs now = clock_->now();
  conn->last_activity = now;
  // Pipelined bytes may already hold (part of) the next request.
  const http::ParseState state = conn->parser.pump();
  if (ctx_->request_timeout_ms > 0 && conn->parser.mid_request()) {
    conn->deadline = Deadline::after_ms(clock_, ctx_->request_timeout_ms);
    conn->deadline_at = now + from_millis(ctx_->request_timeout_ms);
  }
  if (state == http::ParseState::kDone) {
    dispatch(conn);
    return;
  }
  if (state == http::ParseState::kError) {
    respond_and_close(conn,
                      http::Response::error(conn->parser.error_status()));
    return;
  }
  arm(conn, EPOLLIN);
  schedule_read_timer(conn, now);
}

void EpollReactor::arm(Conn* conn, std::uint32_t events) {
  if (conn->armed == events) return;
  if (auto st = poller_.modify(conn->stream.raw_fd(), events, conn->id);
      !st.is_ok()) {
    SWALA_LOG(Error) << "reactor: epoll mod failed: " << st.to_string();
    close_conn(conn);
    return;
  }
  conn->armed = events;
}

void EpollReactor::schedule_read_timer(Conn* conn, TimeNs now) {
  // Idle timeout from the last byte; a mid-request deadline fires earlier
  // if it comes earlier.
  TimeNs when = 0;
  if (ctx_->recv_timeout_ms > 0) {
    when = conn->last_activity + from_millis(ctx_->recv_timeout_ms);
  }
  if (conn->deadline_at != 0 && (when == 0 || conn->deadline_at < when)) {
    when = conn->deadline_at;
  }
  if (when != 0) {
    wheel_.schedule(conn->id, when);
  } else {
    wheel_.cancel(conn->id);
  }
  (void)now;
}

void EpollReactor::handle_timer(std::uint64_t id, TimeNs now) {
  Conn* conn = find(id);
  if (conn == nullptr) return;  // closed; stale wheel entry
  switch (conn->state) {
    case Conn::State::kReading: {
      if (conn->deadline_at != 0 && now >= conn->deadline_at &&
          conn->parser.mid_request()) {
        // Slow loris: the request budget expired before the request did.
        if (ctx_->counters != nullptr) ++ctx_->counters->deadline_exceeded;
        respond_and_close(conn,
                          http::Response::error(408, "request deadline"));
        return;
      }
      if (ctx_->recv_timeout_ms > 0 &&
          now - conn->last_activity >= from_millis(ctx_->recv_timeout_ms)) {
        close_conn(conn);  // idle timeout (silent, like the threaded model)
        return;
      }
      schedule_read_timer(conn, now);  // fired early; re-arm the later edge
      break;
    }
    case Conn::State::kWriting: {
      if (conn->write_cut_at != 0 && now >= conn->write_cut_at) {
        // Stalled reader: the peer stopped draining our response. Count it
        // against the deadline only when a request budget was armed.
        if (conn->deadline_at != 0 && ctx_->counters != nullptr) {
          ++ctx_->counters->deadline_exceeded;
        }
        close_conn(conn);
        return;
      }
      if (conn->write_cut_at != 0) wheel_.schedule(conn->id, conn->write_cut_at);
      break;
    }
    case Conn::State::kExecuting:
      // The worker enforces the deadline (CGI kill, gate timeout); the
      // write-phase cut re-arms in start_response.
      break;
  }
}

void EpollReactor::sweep_idle(bool respond_mid_request) {
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    Conn* conn = find(id);
    if (conn == nullptr || conn->state != Conn::State::kReading) continue;
    if (conn->parser.mid_request()) {
      if (respond_mid_request) {
        respond_and_close(conn,
                          overload_response(503, "server shutting down",
                                            ctx_->retry_after_seconds));
      }
      // else: drain lets the in-flight request finish under its deadline.
    } else {
      close_conn(conn);
    }
  }
}

}  // namespace swala::server

#include "cluster/group.h"

#include <algorithm>
#include <chrono>

namespace swala::cluster {

std::vector<MemberAddress> loopback_members(std::size_t n) {
  std::vector<MemberAddress> members(n);
  for (std::size_t i = 0; i < n; ++i) {
    members[i].id = static_cast<core::NodeId>(i);
    members[i].info_addr = {"127.0.0.1", 0};
    members[i].data_addr = {"127.0.0.1", 0};
  }
  return members;
}

NodeGroup::NodeGroup(core::NodeId self, std::vector<MemberAddress> members,
                     GroupOptions options)
    : ProtocolBus(self, members.size(), options, RealClock::instance()),
      self_(self),
      members_(std::move(members)),
      options_(options),
      transport_(options.fault_injector) {}

NodeGroup::~NodeGroup() { stop(); }

Status NodeGroup::start() {
  if (running_.exchange(true)) return Status::ok();

  const MemberAddress* me = nullptr;
  for (const auto& m : members_) {
    if (m.id == self_) me = &m;
  }
  if (me == nullptr) {
    running_ = false;
    return Status(StatusCode::kInvalidArgument, "self not in member list");
  }

  auto info = net::TcpListener::listen(me->info_addr);
  if (!info) {
    running_ = false;
    return info.status();
  }
  info_listener_ = std::move(info.value());

  auto data = net::TcpListener::listen(me->data_addr);
  if (!data) {
    running_ = false;
    return data.status();
  }
  data_listener_ = std::move(data.value());

  // A restart starts every breaker closed and the timers from now.
  protocol_.reset();
  // One sender thread per peer: the broadcast is asynchronous and never
  // blocks a request thread on a slow peer.
  for (const auto& m : members_) {
    if (m.id == self_) continue;
    auto link = std::make_unique<PeerLink>();
    link->id = m.id;
    link->info_addr = m.info_addr;
    PeerLink* raw = link.get();
    link->sender = std::thread([this, raw] { sender_loop(raw); });
    peers_.push_back(std::move(link));
  }

  info_accept_thread_ = std::thread(
      [this] { accept_loop(&info_listener_, &NodeGroup::info_read_loop); });
  data_accept_thread_ = std::thread(
      [this] { accept_loop(&data_listener_, &NodeGroup::serve_data_request); });
  purge_thread_ = std::thread([this] { purge_loop(); });
  return Status::ok();
}

void NodeGroup::set_members(std::vector<MemberAddress> members) {
  members_ = std::move(members);
  for (auto& peer : peers_) {
    for (const auto& m : members_) {
      if (m.id == peer->id) peer->info_addr = m.info_addr;
    }
  }
}

void NodeGroup::stop() {
  if (!running_.exchange(false)) return;
  info_listener_.close();
  data_listener_.close();
  for (auto& peer : peers_) ring(peer.get());
  for (auto& peer : peers_) {
    if (peer->sender.joinable()) peer->sender.join();
  }
  if (info_accept_thread_.joinable()) info_accept_thread_.join();
  if (data_accept_thread_.joinable()) data_accept_thread_.join();
  if (purge_thread_.joinable()) purge_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto& t : conn_threads_) t.thread.join();
    conn_threads_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    fetch_pool_.clear();
  }
  peers_.clear();
  // What the senders' last pass could not deliver goes with them.
  protocol_.reset();
}

NodeGroup::PeerLink* NodeGroup::find_link(core::NodeId id) const {
  for (const auto& peer : peers_) {
    if (peer->id == id) return peer.get();
  }
  return nullptr;
}

void NodeGroup::emit(Outbox out) {
  for (Outgoing& frame : out) {
    if (is_data_request(frame.msg.type)) {
      // The protocol's own requests: a kInvSync pull budgets like a
      // directory probe (an optimization pass that must not stall the info
      // reader behind a slow peer); a kJoin gets the join budget.
      const bool join = frame.msg.type == MsgType::kJoin;
      const int io_timeout_ms =
          join ? options_.join_timeout_ms : options_.query_timeout_ms;
      auto resp = data_exchange(
          frame.to, frame.msg,
          join ? MsgType::kJoinAck : MsgType::kInvSyncResp, io_timeout_ms,
          std::min(options_.connect_timeout_ms, io_timeout_ms));
      if (resp) protocol_.on_response(frame.to, resp.value());
      continue;
    }
    PeerLink* link = find_link(frame.to);
    if (link != nullptr && protocol_.enqueue(std::move(frame))) ring(link);
  }
}

void NodeGroup::ring(PeerLink* link) {
  {
    std::lock_guard<std::mutex> lock(link->mutex);
    ++link->rings;
  }
  link->doorbell.notify_one();
}

// ---- connections in ----

void NodeGroup::accept_loop(net::TcpListener* listener,
                            void (NodeGroup::*serve)(net::TcpStream)) {
  while (running_.load(std::memory_order_relaxed)) {
    auto conn = listener->accept(/*timeout_ms=*/200);
    if (!conn) {
      if (conn.status().code() == StatusCode::kTimeout) continue;
      break;  // listener closed
    }
    (void)conn.value().set_no_delay(true);
    // Short read slices so the serving thread notices shutdown promptly;
    // its loop tolerates timeouts between frames.
    (void)conn.value().set_recv_timeout(200);
    (void)conn.value().set_send_timeout(options_.fetch_timeout_ms);
    // The paper starts a thread per data request; here a thread serves one
    // connection (an info stream, or a requester's pooled fetches) and
    // lives as long as it. Threads that have returned are reaped.
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conn_threads_.remove_if([](ConnThread& t) {
      if (!t.done.load(std::memory_order_acquire)) return false;
      t.thread.join();
      return true;
    });
    ConnThread& slot = conn_threads_.emplace_back();
    slot.thread = std::thread(
        [this, serve, &slot, stream = std::move(conn.value())]() mutable {
          (this->*serve)(std::move(stream));
          slot.done.store(true, std::memory_order_release);
        });
  }
}

void NodeGroup::info_read_loop(net::TcpStream stream) {
  while (running_.load(std::memory_order_relaxed)) {
    auto msg = read_message(stream);
    if (!msg) {
      if (msg.status().code() == StatusCode::kTimeout) continue;
      return;  // closed or corrupt; drop the connection
    }
    emit(protocol_.on_info(msg.value()));
  }
}

void NodeGroup::serve_data_request(net::TcpStream stream) {
  // Serve fetches until the peer closes or goes idle: requesters pool and
  // reuse these connections, so one connection handles many fetches.
  while (running_.load(std::memory_order_relaxed)) {
    auto msg = read_message(stream);
    if (!msg) {
      if (msg.status().code() == StatusCode::kTimeout) continue;
      return;  // closed or corrupt
    }
    Outbox out;
    auto resp = protocol_.answer(msg.value(), &out);
    if (!resp) return;  // not a data request
    emit(std::move(out));
    if (!transport_.send(stream, msg.value().sender, *resp).is_ok()) return;
  }
}

// ---- purge daemon ----

void NodeGroup::purge_loop() {
  const auto interval =
      std::chrono::duration<double>(options_.purge_interval_seconds);
  auto next = std::chrono::steady_clock::now() + interval;
  while (running_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Dead-peer probes and anti-entropy rounds ride the purger's fine-
    // grained tick, not its multi-second purge interval.
    emit(protocol_.tick());
    if (std::chrono::steady_clock::now() < next) continue;
    next = std::chrono::steady_clock::now() + interval;
    if (core::CacheManager* manager = protocol_.manager()) {
      manager->purge_expired();
    }
  }
}

// ---- outbound ----

void NodeGroup::sender_loop(PeerLink* link) {
  const core::NodeId id = link->id;
  const Clock* clock = RealClock::instance();
  net::TcpStream stream;
  for (;;) {
    // Rings are read before the protocol is asked, so an enqueue (or the
    // stop) that lands after the question keeps the wait below from
    // sleeping through it.
    std::uint64_t rings = 0;
    {
      std::lock_guard<std::mutex> lock(link->mutex);
      rings = link->rings;
    }
    const bool stopping = !running_.load(std::memory_order_acquire);
    const NextFrame next = protocol_.next_frame(id, clock->now());
    if (!next.frame) {
      if (stopping && next.wake_at == NextFrame::kIdle) return;  // flushed
      std::unique_lock<std::mutex> lock(link->mutex);
      const auto rung = [&] { return link->rings != rings; };
      if (next.wake_at == NextFrame::kIdle) {
        link->doorbell.wait(lock, rung);
      } else {
        link->doorbell.wait_for(
            lock, std::chrono::nanoseconds(next.wake_at - clock->now()), rung);
      }
      continue;
    }
    bool ok = false;
    if (!stream.valid()) {
      auto conn = net::TcpStream::connect(link->info_addr,
                                          options_.connect_timeout_ms);
      if (conn) {
        stream = std::move(conn.value());
        (void)stream.set_no_delay(true);
        (void)stream.set_send_timeout(options_.connect_timeout_ms);
        protocol_.on_connected(id);
        continue;  // the greeting goes first
      }
    } else {
      ok = transport_.send(stream, id, *next.frame).is_ok();
      if (!ok) stream.close();
    }
    // Stopping, an unreachable peer gets nothing more.
    if (stopping && !ok) return;
    Outbox out = protocol_.on_send_result(id, ok, SendLeg::kFrame);
    if (!stopping) emit(std::move(out));
  }
}

// ---- synchronous remote fetch ----

Result<core::CachedResult> NodeGroup::fetch_remote(core::NodeId owner,
                                                   const std::string& key) {
  return fetch_remote(owner, key, /*budget_ms=*/-1);
}

Result<core::CachedResult> NodeGroup::fetch_remote(core::NodeId owner,
                                                   const std::string& key,
                                                   int budget_ms) {
  ++stats_.remote_fetches;
  // A request deadline caps every socket timeout: with `budget_ms` set, a
  // fetch can never out-live the request that issued it, so a slow peer
  // costs at most the remaining budget before the local-CGI fallback runs.
  const int io_timeout_ms =
      budget_ms > 0 ? std::min(options_.fetch_timeout_ms, budget_ms)
                    : options_.fetch_timeout_ms;
  const int connect_timeout_ms =
      budget_ms > 0 ? std::min(options_.connect_timeout_ms, budget_ms)
                    : options_.connect_timeout_ms;
  auto resp = data_exchange(owner, Message::fetch_req(self_, key),
                            MsgType::kFetchResp, io_timeout_ms,
                            connect_timeout_ms);
  if (!resp) return resp.status();
  if (!resp.value().found) {
    return Status(StatusCode::kNotFound, "remote miss (false hit)");
  }
  core::CachedResult result;
  result.meta = resp.value().meta;
  result.data = std::move(resp.value().data);
  return result;
}

Result<core::EntryMeta> NodeGroup::lookup_at_owner(core::NodeId ring_owner,
                                                   const std::string& key,
                                                   int budget_ms) {
  ++stats_.queries_sent;
  // Probes cap at query_timeout_ms regardless of the request budget: an
  // owner that cannot answer quickly should not delay the local fallback.
  int io_timeout_ms = options_.query_timeout_ms;
  if (budget_ms > 0) io_timeout_ms = std::min(io_timeout_ms, budget_ms);
  const int connect_timeout_ms =
      std::min(options_.connect_timeout_ms, io_timeout_ms);
  auto resp = data_exchange(ring_owner, Message::query(self_, key),
                            MsgType::kQueryHit, io_timeout_ms,
                            connect_timeout_ms);
  if (!resp) return resp.status();
  if (!resp.value().found) {
    return Status(StatusCode::kNotFound, "owner knows of no cached copy");
  }
  ++stats_.query_hits;
  return resp.value().meta;
}

Result<Message> NodeGroup::data_exchange(core::NodeId peer_id,
                                         const Message& request,
                                         MsgType expected, int io_timeout_ms,
                                         int connect_timeout_ms) {
  const MemberAddress* peer = nullptr;
  for (const auto& m : members_) {
    if (m.id == peer_id) peer = &m;
  }
  if (peer == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "unknown node " + std::to_string(peer_id));
  }
  // An inactive slot or an open breaker fails fast, so the request goes
  // straight to the local CGI fallback instead of burning a timeout.
  if (auto st = protocol_.exchange_allowed(peer_id); !st.is_ok()) return st;

  const auto fail = [&](const Status& st) -> Status {
    emit(protocol_.on_send_result(peer_id, false));
    return st;
  };

  // Up to two attempts: a pooled connection may have been closed by the
  // peer while idle; retry once on a fresh one.
  Status last_error(StatusCode::kUnavailable, "no attempt made");
  for (int attempt = 0; attempt < 2; ++attempt) {
    net::TcpStream stream;
    bool from_pool = false;
    if (attempt == 0 && options_.fetch_pool_size > 0) {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      auto& idle = fetch_pool_[peer_id];
      if (!idle.empty()) {
        stream = std::move(idle.back());
        idle.pop_back();
        from_pool = true;
      }
    }
    if (!stream.valid()) {
      auto conn =
          net::TcpStream::connect(peer->data_addr, connect_timeout_ms);
      if (!conn) return fail(conn.status());
      stream = std::move(conn.value());
      (void)stream.set_no_delay(true);
    }
    // Pooled streams carry whatever timeout the previous request set, so
    // (re)arm both directions for this request's budget unconditionally.
    (void)stream.set_recv_timeout(io_timeout_ms);
    (void)stream.set_send_timeout(io_timeout_ms);

    if (auto st = transport_.send(stream, peer_id, request); !st.is_ok()) {
      last_error = st;
      if (from_pool) continue;  // stale pooled connection; retry fresh
      return fail(st);
    }
    auto resp = read_message(stream);
    if (!resp) {
      last_error = resp.status();
      if (from_pool) continue;
      return fail(resp.status());
    }
    if (resp.value().type != expected) {
      return fail(Status(StatusCode::kInternal, "unexpected response type"));
    }

    // Healthy exchange: return the connection to the pool.
    emit(protocol_.on_send_result(peer_id, true));
    if (options_.fetch_pool_size > 0 &&
        running_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      auto& idle = fetch_pool_[peer_id];
      if (idle.size() < options_.fetch_pool_size) {
        idle.push_back(std::move(stream));
      }
    }
    return std::move(resp.value());
  }
  return fail(last_error);
}

}  // namespace swala::cluster

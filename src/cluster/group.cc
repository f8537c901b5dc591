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
      transport_(options.fault_injector),
      backoff_rng_(options.backoff_seed) {
  query_rotation_.store(options.backoff_seed, std::memory_order_relaxed);
}

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
  // One outbound queue + sender thread per peer: the broadcast is
  // asynchronous and never blocks a request thread on a slow peer.
  for (const auto& m : members_) {
    if (m.id == self_) continue;
    auto link = std::make_unique<PeerLink>();
    link->address = m;
    link->outbound =
        std::make_unique<BoundedQueue<Message>>(options_.outbound_queue_capacity);
    PeerLink* raw = link.get();
    link->sender = std::thread([this, raw] { sender_loop(raw); });
    peers_.push_back(std::move(link));
  }

  info_accept_thread_ = std::thread([this] { info_accept_loop(); });
  data_accept_thread_ = std::thread([this] { data_accept_loop(); });
  purge_thread_ = std::thread([this] { purge_loop(); });
  return Status::ok();
}

void NodeGroup::set_members(std::vector<MemberAddress> members) {
  members_ = std::move(members);
  for (auto& peer : peers_) {
    for (const auto& m : members_) {
      if (m.id == peer->address.id) peer->address = m;
    }
  }
}

void NodeGroup::stop() {
  if (!running_.exchange(false)) return;
  info_listener_.close();
  data_listener_.close();
  for (auto& peer : peers_) peer->outbound->close();
  for (auto& peer : peers_) {
    if (peer->sender.joinable()) peer->sender.join();
  }
  if (info_accept_thread_.joinable()) info_accept_thread_.join();
  if (data_accept_thread_.joinable()) data_accept_thread_.join();
  if (purge_thread_.joinable()) purge_thread_.join();
  {
    std::lock_guard<std::mutex> lock(reader_mutex_);
    for (auto& t : reader_threads_) {
      if (t.joinable()) t.join();
    }
    for (auto& t : data_threads_) {
      if (t.joinable()) t.join();
    }
    reader_threads_.clear();
    data_threads_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    fetch_pool_.clear();
  }
  peers_.clear();
}

NodeGroup::PeerLink* NodeGroup::find_link(core::NodeId id) const {
  for (const auto& peer : peers_) {
    if (peer->address.id == id) return peer.get();
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
    if (link == nullptr) continue;  // not started: nothing to send on
    if (!link->outbound->try_push(std::move(frame.msg))) {
      ++stats_.send_failures;
    }
  }
}

int NodeGroup::backoff_delay_ms(int attempt) {
  std::int64_t base = options_.backoff_base_ms;
  for (int i = 1; i < attempt && base < options_.backoff_max_ms; ++i) base *= 2;
  if (base > options_.backoff_max_ms) base = options_.backoff_max_ms;
  if (base < 1) base = 1;
  // Jitter in [base/2, base] de-synchronizes the per-peer sender threads.
  std::lock_guard<std::mutex> lock(backoff_mutex_);
  return static_cast<int>(backoff_rng_.uniform_int(base / 2, base));
}

// ---- info channel ----

void NodeGroup::info_accept_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    auto conn = info_listener_.accept(/*timeout_ms=*/200);
    if (!conn) {
      if (conn.status().code() == StatusCode::kTimeout) continue;
      break;  // listener closed
    }
    (void)conn.value().set_no_delay(true);
    (void)conn.value().set_recv_timeout(200);
    std::lock_guard<std::mutex> lock(reader_mutex_);
    reader_threads_.emplace_back(
        [this, stream = std::move(conn.value())]() mutable {
          info_read_loop(std::move(stream));
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

// ---- data channel ----

void NodeGroup::data_accept_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    auto conn = data_listener_.accept(/*timeout_ms=*/200);
    if (!conn) {
      if (conn.status().code() == StatusCode::kTimeout) continue;
      break;
    }
    (void)conn.value().set_no_delay(true);
    // Short read slices so the serving thread notices shutdown promptly;
    // the loop in serve_data_request tolerates timeouts between requests.
    (void)conn.value().set_recv_timeout(250);
    (void)conn.value().set_send_timeout(options_.fetch_timeout_ms);
    // The paper starts a separate thread per data request; with pooled
    // requester connections each thread serves a stream of fetches.
    std::lock_guard<std::mutex> lock(reader_mutex_);
    // Opportunistically reap finished data threads to bound the vector.
    if (data_threads_.size() > 256) {
      for (auto& t : data_threads_) {
        if (t.joinable()) t.join();
      }
      data_threads_.clear();
    }
    data_threads_.emplace_back(
        [this, stream = std::move(conn.value())]() mutable {
          serve_data_request(std::move(stream));
        });
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

namespace {

/// Info-channel updates safe to coalesce. HELLO carries probe/greeting
/// semantics and SYNC_REQ triggers a state push, so both keep their own
/// frames.
bool batchable(const Message& msg) {
  return msg.type == MsgType::kInsert || msg.type == MsgType::kErase ||
         msg.type == MsgType::kInvalidate || msg.type == MsgType::kOwnerUpdate;
}

/// Cheap upper-bound estimate of a message's encoded size; close enough to
/// enforce batch_max_bytes without encoding twice.
std::size_t approx_encoded_size(const Message& msg) {
  return 64 + msg.key.size() + msg.data.size() + msg.meta.key.size() +
         msg.meta.content_type.size();
}

}  // namespace

void NodeGroup::collect_batch(PeerLink* link, std::vector<Message>* run,
                              std::optional<Message>* carry) {
  std::size_t bytes = approx_encoded_size(run->front());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.batch_linger_ms);
  while (run->size() < options_.batch_max_messages &&
         bytes < options_.batch_max_bytes) {
    std::optional<Message> next = link->outbound->try_pop();
    if (!next) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline || !running_.load(std::memory_order_relaxed)) break;
      next = link->outbound->pop_for(deadline - now);
      if (!next) break;  // lingered in vain (or queue closed)
    }
    if (!batchable(*next)) {
      *carry = std::move(next);  // sent on its own, right after this batch
      break;
    }
    bytes += approx_encoded_size(*next);
    run->push_back(std::move(*next));
  }
}

void NodeGroup::sender_loop(PeerLink* link) {
  net::TcpStream stream;
  bool greeted = false;
  // A non-batchable message pulled while collecting a batch waits here and
  // is consumed before the queue is polled again, so nothing is reordered
  // past it and nothing is lost on shutdown.
  std::optional<Message> carry;
  for (;;) {
    std::optional<Message> msg;
    if (carry.has_value()) {
      msg = std::move(carry);
      carry.reset();
    } else {
      msg = link->outbound->pop();
      if (!msg) break;  // queue closed and drained
    }
    // An inactive slot, or an open breaker for anything but a probe, drops
    // the frame (the rejoin resync repairs whatever the peer missed).
    const auto admitted = protocol_.admit(link->address.id, msg->type);
    if (!admitted) continue;
    const PeerState state = *admitted;
    const bool is_probe = msg->type == MsgType::kHello;

    // Coalesce a run of queued directory updates into one kBatch frame.
    // The batch is the retry unit below; a run of one goes out in its
    // plain unbatched form, byte-identical to older builds.
    std::vector<Message> run;
    run.push_back(std::move(*msg));
    if (options_.batch_max_messages > 1 && batchable(run.front())) {
      collect_batch(link, &run, &carry);
    }
    const std::size_t run_size = run.size();
    Message out = run_size == 1 ? std::move(run.front())
                                : Message::make_batch(self_, std::move(run));

    // Probes get a single attempt (the purger reschedules them); regular
    // traffic retries with exponential backoff + jitter.
    const int max_attempts =
        state == PeerState::kDead ? 1 : std::max(1, options_.broadcast_retry_limit);
    bool sent = false;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      if (attempt > 0) {
        if (!running_.load(std::memory_order_relaxed)) break;
        ++stats_.send_retries;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff_delay_ms(attempt)));
      }
      if (!stream.valid()) {
        auto conn = net::TcpStream::connect(link->address.info_addr,
                                            options_.connect_timeout_ms);
        if (!conn) continue;
        stream = std::move(conn.value());
        (void)stream.set_no_delay(true);
        (void)stream.set_send_timeout(options_.connect_timeout_ms);
        greeted = false;
      }
      if (!greeted) {
        if (!transport_.send(stream, link->address.id, protocol_.make_hello())
                 .is_ok()) {
          stream.close();
          continue;
        }
        ++stats_.frames_sent;
        greeted = true;
        if (is_probe) {
          sent = true;  // the greeting itself proved the peer reachable
          break;
        }
      }
      if (transport_.send(stream, link->address.id, out).is_ok()) {
        ++stats_.frames_sent;
        sent = true;
        break;
      }
      stream.close();
    }
    if (sent) {
      if (run_size > 1) {
        stats_.batched_broadcasts += run_size;
      }
      emit(protocol_.on_send_result(link->address.id, true));
    } else {
      stream.close();
      ++stats_.send_failures;
      if (running_.load(std::memory_order_relaxed)) {
        emit(protocol_.on_send_result(link->address.id, false));
      }
    }
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

Result<core::EntryMeta> NodeGroup::query_peers(const std::string& key,
                                               int budget_ms) {
  // Bounded sequential probe: each healthy peer gets at most
  // query_timeout_ms, and the whole sweep never exceeds the overall budget
  // (the request deadline when one is known). The first "found" wins.
  //
  // Probe order rotates (seeded per node) and visits healthy peers before
  // suspects: a fixed slot order would aim every sweep's first probe — and
  // therefore most of the budget — at the same peer, and a suspect probed
  // early can eat the whole budget in timeouts before a healthy peer that
  // has the entry is ever asked.
  const auto start = std::chrono::steady_clock::now();
  const int overall = budget_ms > 0 ? budget_ms : options_.fetch_timeout_ms;
  const std::size_t n = peers_.size();
  if (n == 0) return Status(StatusCode::kNotFound, "no peer caches this key");
  const std::size_t offset = static_cast<std::size_t>(
      query_rotation_.fetch_add(1, std::memory_order_relaxed) % n);
  std::vector<core::NodeId> order;
  order.reserve(n);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      const core::NodeId peer = peers_[(offset + i) % n]->address.id;
      if (!protocol_.member_active(peer)) continue;
      const PeerState state = protocol_.peer_state(peer);
      if (state == PeerState::kDead) continue;
      if ((state == PeerState::kHealthy) == (pass == 0)) order.push_back(peer);
    }
  }
  bool every_peer_answered = true;
  for (const core::NodeId peer : order) {
    const int elapsed = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    const int remaining = overall - elapsed;
    if (remaining <= 0) {
      every_peer_answered = false;
      break;
    }
    ++stats_.queries_sent;
    const int io_timeout_ms = std::min(options_.query_timeout_ms, remaining);
    const int connect_timeout_ms =
        std::min(options_.connect_timeout_ms, io_timeout_ms);
    auto resp = data_exchange(peer, Message::query(self_, key),
                              MsgType::kQueryHit, io_timeout_ms,
                              connect_timeout_ms);
    if (!resp) {
      every_peer_answered = false;  // timeout/dead: treat as silence, move on
      continue;
    }
    if (resp.value().found) {
      ++stats_.query_hits;
      return resp.value().meta;
    }
  }
  if (every_peer_answered) {
    return Status(StatusCode::kNotFound, "no peer caches this key");
  }
  return Status(StatusCode::kTimeout, "query budget exhausted without a hit");
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

// ---- dynamic membership ----

std::size_t NodeGroup::outbound_backlog() const {
  std::size_t backlog = 0;
  for (const auto& peer : peers_) backlog += peer->outbound->size();
  return backlog;
}

std::vector<PeerHealth> NodeGroup::peer_health() const {
  auto health = protocol_.peer_health();
  for (auto& h : health) {
    if (PeerLink* link = find_link(h.id)) {
      h.outbound_backlog = link->outbound->size();
    }
  }
  return health;
}

}  // namespace swala::cluster

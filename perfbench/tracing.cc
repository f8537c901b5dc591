#include "tracing.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

using swala::Result;
namespace core = swala::core;
namespace cgi = swala::cgi;

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<std::vector<Span>>> g_buffers;  // guarded

struct ThreadState {
  std::vector<Span>* buffer = nullptr;
  std::uint32_t tid = 0;
  std::uint64_t request_id = 0;
};

thread_local ThreadState t_state;

ThreadState& state() {
  if (t_state.buffer == nullptr) {
    auto buffer = std::make_unique<std::vector<Span>>();
    buffer->reserve(4096);
    t_state.buffer = buffer.get();
    t_state.tid = static_cast<std::uint32_t>(::syscall(SYS_gettid));
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::move(buffer));
  }
  return t_state;
}

void record(Op op, SpanStatus status, std::int64_t start, std::int64_t end) {
  // Pass-through includes errno: the store reads it after a failed call.
  const int saved_errno = errno;
  ThreadState& s = state();
  s.buffer->push_back(Span{op, status, s.tid, start, end, s.request_id});
  errno = saved_errno;
}

SpanStatus status_of(bool ok) { return ok ? SpanStatus::kOk : SpanStatus::kFailed; }

template <typename T>
SpanStatus status_of(const Result<T>& result) {
  if (result.is_ok()) return SpanStatus::kOk;
  return result.status().code() == swala::StatusCode::kNotFound
             ? SpanStatus::kNotFound
             : SpanStatus::kFailed;
}

/// Times one forwarded call and records its span; `classify` maps the
/// call's return value to a span status.
template <typename Fn, typename Classify>
auto timed(Op op, Fn&& fn, Classify&& classify) {
  const std::int64_t start = now_ns();
  auto result = fn();
  record(op, classify(result), start, now_ns());
  return result;
}

template <typename Fn>
void timed_void(Op op, Fn&& fn) {
  const std::int64_t start = now_ns();
  fn();
  record(op, SpanStatus::kOk, start, now_ns());
}

auto syscall_ok = [](auto rc) { return status_of(rc >= 0); };
auto result_status = [](const auto& r) { return status_of(r); };

std::uint64_t bench_id(const swala::http::Request& request) {
  const auto id = request.headers.get("X-Bench-Id");
  if (!id) return 0;
  std::uint64_t value = 0;
  for (const char c : *id) {
    if (c < '0' || c > '9') return 0;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

/// A fetch, owner probe or peer query starts a new request's lookup, whose
/// id the bus cannot see; later spans on this thread are unattributed until
/// the next CGI run names its request.
void begin_lookup() { state().request_id = 0; }

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Layer layer_of(Op op) {
  if (op == Op::kCgiRun) return Layer::kCgi;
  return op >= Op::kFsOpen ? Layer::kFs : Layer::kBus;
}

bool is_announce(Op op) { return op >= Op::kBroadcastInsert && op <= Op::kHandoff; }

const char* op_name(Op op) {
  switch (op) {
    case Op::kCgiRun: return "cgi.run";
    case Op::kFetchRemote: return "bus.fetch_remote";
    case Op::kLookupAtOwner: return "bus.lookup_at_owner";
    case Op::kQueryPeers: return "bus.query_peers";
    case Op::kBroadcastInsert: return "bus.broadcast_insert";
    case Op::kBroadcastErase: return "bus.broadcast_erase";
    case Op::kBroadcastInvalidate: return "bus.broadcast_invalidate";
    case Op::kOwnerInsert: return "bus.send_owner_insert";
    case Op::kOwnerErase: return "bus.send_owner_erase";
    case Op::kHandoff: return "bus.send_handoff";
    case Op::kFsOpen: return "fs.open";
    case Op::kFsRead: return "fs.read";
    case Op::kFsWrite: return "fs.write";
    case Op::kFsFsync: return "fs.fsync";
    case Op::kFsClose: return "fs.close";
    case Op::kFsRename: return "fs.rename";
    case Op::kFsUnlink: return "fs.unlink";
    case Op::kFsMkdir: return "fs.mkdir";
    case Op::kFsTruncate: return "fs.ftruncate";
  }
  return "?";
}

std::vector<Span> collect_spans() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> out;
  for (const auto& buffer : g_buffers) {
    out.insert(out.end(), buffer->begin(), buffer->end());
  }
  return out;
}

void clear_spans() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (auto& buffer : g_buffers) buffer->clear();
}

bool write_spans_tsv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op\tstatus\ttid\tstart_ns\tend_ns\trequest_id\n");
  static constexpr const char* kStatus[] = {"ok", "not_found", "failed"};
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%s\t%u\t%lld\t%lld\t%llu\n", op_name(s.op),
                 kStatus[static_cast<int>(s.status)], s.tid,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.request_id));
  }
  return std::fclose(f) == 0;
}

// ---- TracingCgi ----

Result<cgi::CgiOutput> TracingCgi::run(const swala::http::Request& request) {
  state().request_id = bench_id(request);
  return timed(Op::kCgiRun, [&] { return inner_->run(request); },
               [](const Result<cgi::CgiOutput>& r) {
                 return status_of(r.is_ok() && r.value().success);
               });
}

Result<cgi::CgiOutput> TracingCgi::run(const swala::http::Request& request,
                                       const swala::Deadline& deadline) {
  state().request_id = bench_id(request);
  return timed(Op::kCgiRun, [&] { return inner_->run(request, deadline); },
               [](const Result<cgi::CgiOutput>& r) {
                 return status_of(r.is_ok() && r.value().success);
               });
}

// ---- TracingBus ----

void TracingBus::broadcast_insert(const core::EntryMeta& meta) {
  timed_void(Op::kBroadcastInsert, [&] { inner_->broadcast_insert(meta); });
}

void TracingBus::broadcast_erase(core::NodeId owner, const std::string& key,
                                 std::uint64_t version) {
  timed_void(Op::kBroadcastErase,
             [&] { inner_->broadcast_erase(owner, key, version); });
}

Result<core::CachedResult> TracingBus::fetch_remote(core::NodeId owner,
                                                    const std::string& key) {
  begin_lookup();
  return timed(Op::kFetchRemote, [&] { return inner_->fetch_remote(owner, key); },
               result_status);
}

Result<core::CachedResult> TracingBus::fetch_remote(core::NodeId owner,
                                                    const std::string& key,
                                                    int budget_ms) {
  begin_lookup();
  return timed(Op::kFetchRemote,
               [&] { return inner_->fetch_remote(owner, key, budget_ms); },
               result_status);
}

void TracingBus::broadcast_invalidate(const std::string& pattern) {
  timed_void(Op::kBroadcastInvalidate,
             [&] { inner_->broadcast_invalidate(pattern); });
}

void TracingBus::broadcast_invalidate(const std::string& pattern,
                                      std::uint64_t epoch) {
  timed_void(Op::kBroadcastInvalidate,
             [&] { inner_->broadcast_invalidate(pattern, epoch); });
}

void TracingBus::send_owner_insert(core::NodeId ring_owner,
                                   const core::EntryMeta& meta) {
  timed_void(Op::kOwnerInsert,
             [&] { inner_->send_owner_insert(ring_owner, meta); });
}

void TracingBus::send_owner_erase(core::NodeId ring_owner,
                                  core::NodeId cache_node,
                                  const std::string& key,
                                  std::uint64_t version) {
  timed_void(Op::kOwnerErase, [&] {
    inner_->send_owner_erase(ring_owner, cache_node, key, version);
  });
}

Result<core::EntryMeta> TracingBus::lookup_at_owner(core::NodeId ring_owner,
                                                    const std::string& key,
                                                    int budget_ms) {
  begin_lookup();
  return timed(Op::kLookupAtOwner,
               [&] { return inner_->lookup_at_owner(ring_owner, key, budget_ms); },
               result_status);
}

Result<core::EntryMeta> TracingBus::query_peers(const std::string& key,
                                                int budget_ms) {
  begin_lookup();
  return timed(Op::kQueryPeers,
               [&] { return inner_->query_peers(key, budget_ms); },
               result_status);
}

void TracingBus::send_handoff(core::NodeId successor,
                              const core::EntryMeta& meta,
                              const std::string& body) {
  timed_void(Op::kHandoff, [&] { inner_->send_handoff(successor, meta, body); });
}

// ---- TracingFsOps ----

int TracingFsOps::open(const char* path, int flags, int mode) {
  return timed(Op::kFsOpen, [&] { return inner_->open(path, flags, mode); },
               syscall_ok);
}

ssize_t TracingFsOps::read(int fd, void* buf, std::size_t count) {
  return timed(Op::kFsRead, [&] { return inner_->read(fd, buf, count); },
               syscall_ok);
}

ssize_t TracingFsOps::write(int fd, const void* buf, std::size_t count) {
  return timed(Op::kFsWrite, [&] { return inner_->write(fd, buf, count); },
               syscall_ok);
}

ssize_t TracingFsOps::pread(int fd, void* buf, std::size_t count,
                            off_t offset) {
  return timed(Op::kFsRead,
               [&] { return inner_->pread(fd, buf, count, offset); },
               syscall_ok);
}

ssize_t TracingFsOps::pwrite(int fd, const void* buf, std::size_t count,
                             off_t offset) {
  return timed(Op::kFsWrite,
               [&] { return inner_->pwrite(fd, buf, count, offset); },
               syscall_ok);
}

int TracingFsOps::fsync(int fd) {
  return timed(Op::kFsFsync, [&] { return inner_->fsync(fd); }, syscall_ok);
}

int TracingFsOps::close(int fd) {
  return timed(Op::kFsClose, [&] { return inner_->close(fd); }, syscall_ok);
}

int TracingFsOps::rename(const char* from, const char* to) {
  return timed(Op::kFsRename, [&] { return inner_->rename(from, to); },
               syscall_ok);
}

int TracingFsOps::unlink(const char* path) {
  return timed(Op::kFsUnlink, [&] { return inner_->unlink(path); }, syscall_ok);
}

int TracingFsOps::mkdir(const char* path, int mode) {
  return timed(Op::kFsMkdir, [&] { return inner_->mkdir(path, mode); },
               syscall_ok);
}

int TracingFsOps::ftruncate(int fd, off_t length) {
  return timed(Op::kFsTruncate, [&] { return inner_->ftruncate(fd, length); },
               syscall_ok);
}

}  // namespace perfbench

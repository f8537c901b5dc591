// Traced-run instrumentation: pass-through decorators at the three seams a
// Swala node already accepts, each recording one span per call into a
// per-thread in-memory buffer that is read once the nodes have stopped.
//
//   TracingCgi    — a cgi::CgiHandler mounted in the registry around the
//                   real handler; reads the client's X-Bench-Id header.
//   TracingBus    — a core::CooperationBus between a CacheManager and its
//                   NodeGroup.
//   TracingFsOps  — a core::FsOps handed to the store via
//                   ManagerOptions::fs_ops.
//
// Nothing under src/ knows these exist; the untraced run builds the nodes
// without them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cgi/handler.h"
#include "core/fs_ops.h"
#include "core/manager.h"

namespace perfbench {

enum class Layer : std::uint8_t { kCgi, kBus, kFs };

enum class Op : std::uint8_t {
  kCgiRun,
  // bus, synchronous request-path calls
  kFetchRemote,
  kLookupAtOwner,
  kQueryPeers,
  // bus, announcements made inside the manager's commit section
  kBroadcastInsert,
  kBroadcastErase,
  kBroadcastInvalidate,
  kOwnerInsert,
  kOwnerErase,
  kHandoff,
  // filesystem
  kFsOpen,
  kFsRead,
  kFsWrite,
  kFsFsync,
  kFsClose,
  kFsRename,
  kFsUnlink,
  kFsMkdir,
  kFsTruncate,
};

enum class SpanStatus : std::uint8_t { kOk, kNotFound, kFailed };

Layer layer_of(Op op);
const char* op_name(Op op);
bool is_announce(Op op);

struct Span {
  Op op = Op::kCgiRun;
  SpanStatus status = SpanStatus::kOk;
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;  ///< steady_clock
  std::int64_t end_ns = 0;
  /// X-Bench-Id of the request the span served, 0 when the seam cannot see
  /// it. CGI spans read it from the request; bus and fs spans inherit the id
  /// of the last CGI run on their thread until the thread starts the next
  /// request's lookup (a fetch, owner probe or peer query).
  std::uint64_t request_id = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// steady_clock reading in nanoseconds (the span and phase timebase).
std::int64_t now_ns();

/// Process-wide span store. Each thread appends to its own buffer; the
/// buffers are owned here so spans survive their thread. collect() and
/// clear() must only run while no decorated node is serving.
std::vector<Span> collect_spans();
void clear_spans();

/// Writes spans as TSV (op, layer, status, tid, start_ns, end_ns, id).
bool write_spans_tsv(const std::string& path, const std::vector<Span>& spans);

class TracingCgi final : public swala::cgi::CgiHandler {
 public:
  explicit TracingCgi(swala::cgi::CgiHandlerPtr inner) : inner_(std::move(inner)) {}

  swala::Result<swala::cgi::CgiOutput> run(
      const swala::http::Request& request) override;
  swala::Result<swala::cgi::CgiOutput> run(
      const swala::http::Request& request,
      const swala::Deadline& deadline) override;

 private:
  swala::cgi::CgiHandlerPtr inner_;
};

class TracingBus final : public swala::core::CooperationBus {
 public:
  explicit TracingBus(swala::core::CooperationBus* inner) : inner_(inner) {}

  void broadcast_insert(const swala::core::EntryMeta& meta) override;
  void broadcast_erase(swala::core::NodeId owner, const std::string& key,
                       std::uint64_t version) override;
  swala::Result<swala::core::CachedResult> fetch_remote(
      swala::core::NodeId owner, const std::string& key) override;
  swala::Result<swala::core::CachedResult> fetch_remote(
      swala::core::NodeId owner, const std::string& key,
      int budget_ms) override;
  void broadcast_invalidate(const std::string& pattern) override;
  void broadcast_invalidate(const std::string& pattern,
                            std::uint64_t epoch) override;
  void send_owner_insert(swala::core::NodeId ring_owner,
                         const swala::core::EntryMeta& meta) override;
  void send_owner_erase(swala::core::NodeId ring_owner,
                        swala::core::NodeId cache_node, const std::string& key,
                        std::uint64_t version) override;
  swala::Result<swala::core::EntryMeta> lookup_at_owner(
      swala::core::NodeId ring_owner, const std::string& key,
      int budget_ms) override;
  swala::Result<swala::core::EntryMeta> query_peers(const std::string& key,
                                                    int budget_ms) override;
  void send_handoff(swala::core::NodeId successor,
                    const swala::core::EntryMeta& meta,
                    const std::string& body) override;

 private:
  swala::core::CooperationBus* inner_;
};

class TracingFsOps final : public swala::core::FsOps {
 public:
  int open(const char* path, int flags, int mode) override;
  ssize_t read(int fd, void* buf, std::size_t count) override;
  ssize_t write(int fd, const void* buf, std::size_t count) override;
  ssize_t pread(int fd, void* buf, std::size_t count, off_t offset) override;
  ssize_t pwrite(int fd, const void* buf, std::size_t count,
                 off_t offset) override;
  int fsync(int fd) override;
  int close(int fd) override;
  int rename(const char* from, const char* to) override;
  int unlink(const char* path) override;
  int mkdir(const char* path, int mode) override;
  int ftruncate(int fd, off_t length) override;

 private:
  swala::core::FsOps* inner_ = swala::core::FsOps::real();
};

}  // namespace perfbench

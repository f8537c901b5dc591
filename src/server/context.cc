#include "server/context.h"

#include <algorithm>
#include <cerrno>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "cluster/group.h"
#include "common/logging.h"
#include "common/strings.h"
#include "http/date.h"
#include "http/mime.h"
#include "http/parser.h"
#include "net/fd.h"

namespace swala::server {
namespace {

constexpr std::string_view kServerName = "Swala/1.0";

/// Resolves a decoded request path under the docroot. parse_uri already
/// removed dot segments; reject any residue defensively.
Result<std::string> resolve_static_path(const std::string& docroot,
                                        const std::string& path) {
  if (path.find("..") != std::string::npos) {
    return Status(StatusCode::kPermissionDenied, "path traversal");
  }
  std::string full = docroot;
  if (!full.empty() && full.back() == '/') full.pop_back();
  full += path;
  if (!full.empty() && full.back() == '/') full += "index.html";
  return full;
}

http::Response dynamic_response(std::string body, std::string content_type,
                                int status, std::string_view cache_state) {
  http::Response resp = http::Response::make(status, std::move(body),
                                             content_type);
  resp.headers.set("X-Swala-Cache", cache_state);
  return resp;
}

/// Executes a CGI handler through the Figure-2 cache flow, under the
/// request's deadline and the CGI concurrency gate.
http::Response run_dynamic(const http::Request& request,
                           const cgi::CgiHandlerPtr& handler,
                           const ServeContext& ctx,
                           const Deadline& deadline) {
  if (ctx.counters != nullptr) ++ctx.counters->dynamic_requests;

  core::RuleDecision rule;
  bool leader = false;  // single-flight: this request owns the execution
  if (ctx.cache != nullptr) {
    auto lookup = ctx.cache->lookup(request.method, request.uri, deadline);
    if (lookup.outcome == core::LookupOutcome::kPending) {
      // Another request is executing this key: park this worker on its
      // result (bounded by our own deadline) instead of forking a duplicate.
      lookup = ctx.cache->await(std::move(lookup), deadline);
    }
    if (lookup.outcome == core::LookupOutcome::kHit) {
      const char* state = lookup.coalesced ? "hit-coalesced"
                          : lookup.remote  ? "hit-remote"
                                           : "hit-local";
      return dynamic_response(std::move(lookup.result.data),
                              lookup.result.meta.content_type,
                              lookup.result.meta.http_status, state);
    }
    if (lookup.outcome == core::LookupOutcome::kFailedFast) {
      // Negative-cached, coalesced onto a leader that failed, or deadline
      // expired waiting: fail fast instead of piling on.
      if (ctx.counters != nullptr) ++ctx.counters->errors;
      http::Response resp = overload_response(
          lookup.fail_status, lookup.fail_reason, ctx.retry_after_seconds);
      resp.headers.set("X-Swala-Cache", "failed-fast");
      return resp;
    }
    rule = lookup.rule;
    leader = lookup.outcome == core::LookupOutcome::kMissMustExecute;
  }
  // The leader MUST release its waiters on every exit path below, either
  // via complete() or via fail().
  const auto bail = [&](int status, const std::string& reason,
                        bool remember) {
    if (leader) {
      ctx.cache->fail(request.method, request.uri, rule, status, reason,
                      remember);
    }
  };

  if (deadline.expired()) {
    if (ctx.counters != nullptr) ++ctx.counters->deadline_exceeded;
    bail(503, "deadline expired before execution", /*remember=*/false);
    return overload_response(503, "deadline expired",
                             ctx.retry_after_seconds);
  }

  // CGI concurrency gate: a fork storm degrades everyone; queue here (the
  // wait counts against the deadline) and shed if no slot frees in time.
  cgi::ExecSlot slot(ctx.cgi_gate, deadline);
  if (!slot.acquired()) {
    if (ctx.counters != nullptr) ++ctx.counters->requests_shed;
    bail(503, "CGI concurrency gate timeout", /*remember=*/false);
    return overload_response(503, "server busy", ctx.retry_after_seconds);
  }

  // Miss or uncacheable: execute the CGI and time it.
  const Clock* clock = ctx.clock != nullptr
                           ? ctx.clock
                           : static_cast<const Clock*>(RealClock::instance());
  const TimeNs start = clock->now();
  auto output = handler->run(request, deadline);
  const double exec_seconds = to_seconds(clock->now() - start);

  if (!output) {
    if (ctx.counters != nullptr) ++ctx.counters->errors;
    bail(500, output.status().to_string(), /*remember=*/true);
    return http::Response::error(500, output.status().to_string());
  }

  if (ctx.cache != nullptr) {
    // complete() releases single-flight waiters (success or failure) and
    // negative-caches failed executions; the leader obligation ends here.
    ctx.cache->complete(request.method, request.uri, rule, output.value(),
                        exec_seconds);
  }
  if (!output.value().success) {
    if (ctx.counters != nullptr) ++ctx.counters->errors;
  }
  return dynamic_response(std::move(output.value().body),
                          output.value().content_type,
                          output.value().http_status, "miss");
}

/// Static file serving. The paper's Swala memory-maps files (§4) to save
/// system calls; with no mapped-file cache to amortise the mapping over
/// requests, a per-request map + copy + unmap costs more than reading the
/// file once with pread, so the body is read straight into the response.
http::Response serve_static(const http::Request& request,
                            const ServeContext& ctx) {
  if (ctx.counters != nullptr) ++ctx.counters->static_requests;
  if (ctx.docroot.empty()) return http::Response::error(404);

  auto full = resolve_static_path(ctx.docroot, request.uri.path);
  if (!full) return http::Response::error(403);

  // O_NONBLOCK: opening a FIFO must not park this thread until a writer
  // appears (the S_ISREG check below rejects it). O_CLOEXEC: a CGI forked
  // concurrently by another request must not inherit the descriptor.
  const net::UniqueFd fd(
      ::open(full.value().c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK));
  if (!fd.valid()) return http::Response::error(404, request.uri.path);
  struct stat st{};
  if (::fstat(fd.get(), &st) != 0 || !S_ISREG(st.st_mode)) {
    return http::Response::error(404, request.uri.path);
  }

  // Conditional GET: If-Modified-Since lets 1990s-era clients and proxies
  // revalidate cheaply with a 304.
  if (const auto ims = request.headers.get("If-Modified-Since")) {
    const auto since = http::parse_http_date(*ims);
    if (since && st.st_mtime <= *since) {
      http::Response not_modified;
      not_modified.status = 304;
      not_modified.headers.set("Last-Modified",
                               http::format_http_date(st.st_mtime));
      return not_modified;
    }
  }

  // HEAD reports the fstat size. GET reads at most that many bytes; a file
  // truncated meanwhile ends the loop early at EOF, and Content-Length then
  // reports what was actually read.
  http::Response resp;
  std::size_t length = static_cast<std::size_t>(st.st_size);
  if (request.method != http::Method::kHead) {
    resp.body.resize(length);
    std::size_t got = 0;
    while (got < length) {
      const ssize_t n = ::pread(fd.get(), resp.body.data() + got, length - got,
                                static_cast<off_t>(got));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return http::Response::error(500, "read failed");
      if (n == 0) break;
      got += static_cast<std::size_t>(n);
    }
    resp.body.resize(got);
    length = got;
  }
  resp.status = 200;
  resp.headers.set("Content-Type", http::mime_type_for_path(full.value()));
  resp.headers.set("Content-Length", std::to_string(length));
  resp.headers.set("Last-Modified", http::format_http_date(st.st_mtime));
  return resp;
}

std::string json_u64(std::string_view name, std::uint64_t value,
                     bool last = false) {
  std::string out = "  \"";
  out += name;
  out += "\": ";
  out += std::to_string(value);
  if (!last) out += ",";
  out += "\n";
  return out;
}

/// GET /swala-status: live statistics as JSON.
http::Response serve_status(const ServeContext& ctx) {
  std::string body = "{\n";
  body += "  \"io_model\": \"";
  body += ctx.io_model != nullptr ? ctx.io_model : "threads";
  body += "\",\n";
  if (ctx.counters != nullptr) {
    const ServerStats s = *ctx.counters;
    body += json_u64("connections", s.connections);
    body += json_u64("requests", s.requests);
    body += json_u64("static_requests", s.static_requests);
    body += json_u64("dynamic_requests", s.dynamic_requests);
    body += json_u64("errors", s.errors);
    body += json_u64("bytes_sent", s.bytes_sent);
    body += json_u64("requests_shed", s.requests_shed);
    body += json_u64("deadline_exceeded", s.deadline_exceeded);
    body += json_u64("active_connections", s.active_connections);
  }
  body += json_u64("draining",
                   ctx.draining != nullptr &&
                           ctx.draining->load(std::memory_order_relaxed)
                       ? 1
                       : 0);
  if (ctx.cgi_gate != nullptr) {
    const cgi::ExecGateStats g = ctx.cgi_gate->stats();
    body += json_u64("cgi_gate_capacity", ctx.cgi_gate->capacity());
    body += json_u64("cgi_active", g.active);
    body += json_u64("cgi_waiting", g.waiting);
    body += json_u64("cgi_queue_waits", g.queue_waits);
    body += json_u64("cgi_queue_timeouts", g.queue_timeouts);
  }
  if (ctx.latency != nullptr) {
    const LatencyHistogram hist = ctx.latency->snapshot();
    body += json_u64("response_count", hist.count());
    body += json_u64("response_mean_us",
                     static_cast<std::uint64_t>(hist.mean() * 1e6));
    body += json_u64("response_p50_us",
                     static_cast<std::uint64_t>(hist.percentile(50) * 1e6));
    body += json_u64("response_p95_us",
                     static_cast<std::uint64_t>(hist.percentile(95) * 1e6));
    body += json_u64("response_p99_us",
                     static_cast<std::uint64_t>(hist.percentile(99) * 1e6));
  }
  if (ctx.group != nullptr) {
    const cluster::GroupStats g = ctx.group->stats();
    body += json_u64("cluster_remote_fetches", g.remote_fetches);
    body += json_u64("cluster_send_failures", g.send_failures);
    body += json_u64("cluster_send_retries", g.send_retries);
    body += json_u64("cluster_peer_failures", g.peer_failures);
    body += json_u64("cluster_messages_dropped", g.messages_dropped);
    body += json_u64("cluster_probes_sent", g.probes_sent);
    body += json_u64("cluster_resyncs_requested", g.resyncs_requested);
    body += json_u64("cluster_resyncs_served", g.resyncs_served);
    body += json_u64("cluster_frames_sent", g.frames_sent);
    body += json_u64("cluster_batched_broadcasts", g.batched_broadcasts);
    body += json_u64("cluster_owner_updates_sent", g.owner_updates_sent);
    body += json_u64("cluster_queries_sent", g.queries_sent);
    body += json_u64("cluster_query_hits", g.query_hits);
    body += json_u64("cluster_queries_served", g.queries_served);
    body += json_u64("cluster_anti_entropy_rounds", g.anti_entropy_rounds);
    body += json_u64("cluster_digests_sent", g.digests_sent);
    body += json_u64("cluster_digest_repairs", g.digest_repairs);
    body += json_u64("cluster_inv_syncs_pulled", g.inv_syncs_pulled);
    body += json_u64("cluster_inv_syncs_served", g.inv_syncs_served);
    body += json_u64("cluster_joins_sent", g.joins_sent);
    body += json_u64("cluster_joins_served", g.joins_served);
    body += json_u64("cluster_decommissions_observed",
                     g.decommissions_observed);
    body += json_u64("cluster_handoff_frames_sent", g.handoff_frames_sent);
    body += json_u64("cluster_handoffs_adopted", g.handoffs_adopted);
    body += "  \"cluster_peers\": [";
    const auto peers = ctx.group->peer_health();
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const auto& p = peers[i];
      if (i != 0) body += ",";
      body += "\n    {\"id\": " + std::to_string(p.id);
      body += ", \"state\": \"";
      body += cluster::peer_state_name(p.state);
      body += "\", \"consecutive_failures\": " +
              std::to_string(p.consecutive_failures);
      body += ", \"total_failures\": " + std::to_string(p.total_failures);
      body += ", \"messages_dropped\": " + std::to_string(p.messages_dropped);
      body += ", \"probes_sent\": " + std::to_string(p.probes_sent);
      body += ", \"outbound_backlog\": " + std::to_string(p.outbound_backlog);
      body += "}";
    }
    body += peers.empty() ? "],\n" : "\n  ],\n";
  }
  if (ctx.cache != nullptr) {
    const core::ManagerStats c = ctx.cache->stats();
    body += json_u64("cache_lookups", c.lookups);
    body += json_u64("cache_local_hits", c.local_hits);
    body += json_u64("cache_remote_hits", c.remote_hits);
    body += json_u64("cache_misses", c.misses);
    body += json_u64("cache_inserts", c.inserts);
    body += json_u64("cache_false_hits", c.false_hits);
    body += json_u64("cache_false_misses", c.false_misses);
    body += json_u64("cache_invalidations", c.invalidations);
    body += json_u64("cache_fallback_executions", c.fallback_executions);
    body += json_u64("cache_coalesced_misses", c.coalesced_misses);
    body += json_u64("cache_coalesce_timeouts", c.coalesce_timeouts);
    body += json_u64("cache_failed_fast", c.failed_fast);
    body += json_u64("inv_epoch_gaps_repaired", c.inv_epoch_gaps_repaired);
    body += json_u64("stale_serves_prevented", c.stale_serves_prevented);
    body += json_u64("inv_overflow_purges", c.inv_overflow_purges);
    body += "  \"directory_mode\": \"";
    body += core::directory_mode_name(ctx.cache->directory_mode());
    body += "\",\n";
    body += json_u64("membership_epoch", ctx.cache->membership_epoch());
    body += json_u64("membership_transitions", c.membership_transitions);
    body += json_u64("cluster_handoff_records_sent", c.handoff_records_sent);
    body += json_u64("cache_remote_dir_lookups", c.remote_dir_lookups);
    body += json_u64("cache_remote_dir_hits", c.remote_dir_hits);
    body += json_u64("cache_peer_queries", c.peer_queries);
    body += json_u64("cache_peer_query_hits", c.peer_query_hits);
    // Durability: disk health, checkpoint progress and the startup scrub's
    // findings, so an operator (or the crash-restart CI job) can see whether
    // the node came back clean and whether the disk is still trusted.
    const core::ScrubReport scrub = ctx.cache->last_scrub();
    body += "  \"durability\": {\n";
    body += "  " + json_u64("disk_errors", c.disk_errors);
    body += "  " + json_u64("store_degraded", c.store_degraded);
    body += "  " + json_u64("degraded_skips", c.degraded_skips);
    body += "  " + json_u64("checkpoints", c.checkpoints);
    body += "  " + json_u64("checkpoint_failures", c.checkpoint_failures);
    body += "  " + json_u64("scrub_adopted", scrub.adopted);
    body += "  " + json_u64("scrub_quarantined", scrub.quarantined);
    body += "  " + json_u64("scrub_orphans_removed", scrub.orphans_removed);
    body += "  " + json_u64("scrub_temps_removed", scrub.temps_removed);
    // Backend-level counters: erase failures (both backends) and the
    // volume store's flush/compaction/recovery progress.
    const core::StorageCounters sc = ctx.cache->storage_counters();
    body += "  \"store_backend\": \"";
    body += sc.backend;
    body += "\",\n";
    body += "  " + json_u64("erase_errors", sc.erase_errors);
    body += "  " + json_u64("volume_flushes", sc.flushes);
    body += "  " + json_u64("volume_flushed_records", sc.flushed_records);
    body += "  " + json_u64("volume_compactions", sc.compactions);
    body += "  " + json_u64("volume_compacted_records", sc.compacted_records);
    body += "  " + json_u64("volume_corrupt_records_skipped",
                            sc.corrupt_records_skipped);
    body += "  " + json_u64("volume_torn_tail_truncated",
                            sc.torn_tail_truncated);
    body += "  " + json_u64("volume_index_mismatches", sc.index_mismatches);
    body += "  " + json_u64("volume_segments_total", sc.segments_total);
    body += "  " + json_u64("volume_segments_free", sc.segments_free);
    body += "  " + json_u64("volume_dead_bytes", sc.dead_bytes, true);
    body += "  },\n";
    body += json_u64("cache_entries", ctx.cache->store().entry_count());
    body += json_u64("cache_bytes", ctx.cache->store().bytes_used());
    const core::StoreStats st = ctx.cache->store().stats();
    body += json_u64("cache_hot_hits", st.hot_hits);
    body += json_u64("cache_hot_misses", st.hot_misses);
    body += json_u64("cache_hot_bytes", st.hot_bytes);
    body += json_u64("cache_pinned_entries", st.pinned_entries, true);
  } else {
    body += json_u64("cache_enabled", 0, true);
  }
  body += "}\n";
  return http::Response::make(200, std::move(body), "application/json");
}

/// /swala-admin/invalidate?pattern=<glob>: cluster-wide invalidation.
http::Response serve_invalidate(const http::Request& request,
                                const ServeContext& ctx) {
  if (ctx.cache == nullptr) {
    return http::Response::error(404, "caching disabled");
  }
  std::string pattern;
  for (const auto& [key, value] : request.uri.query_params()) {
    if (key == "pattern") pattern = value;
  }
  if (pattern.empty()) {
    return http::Response::error(400, "missing ?pattern=<glob>");
  }
  const std::size_t removed = ctx.cache->invalidate(pattern);
  return http::Response::make(
      200, "{\n  \"removed\": " + std::to_string(removed) + "\n}\n",
      "application/json");
}

/// /swala-admin/check-consistency: store↔directory mirror cross-check.
/// 200 when consistent, 500 with the divergent key counts otherwise, so a
/// probe (or a human with curl) can alarm on invariant violations live.
/// With ?cluster=1 (and a wired cluster_check) it runs the global oracle
/// instead: every node's local invariant plus cross-node directory drift,
/// with per-pair missing/stale counts in the body.
http::Response serve_cluster_consistency(const ServeContext& ctx) {
  if (!ctx.cluster_check) {
    return http::Response::error(404, "no cluster oracle wired");
  }
  const core::ClusterConsistencyReport report = ctx.cluster_check();
  std::string body = "{\n";
  body += std::string("  \"consistent\": ") +
          (report.consistent() ? "true" : "false") + ",\n";
  body += "  \"nodes\": [";
  for (std::size_t i = 0; i < report.per_node.size(); ++i) {
    const auto& n = report.per_node[i];
    if (i != 0) body += ",";
    body += "\n    {\"node\": " + std::to_string(i);
    body += std::string(", \"consistent\": ") +
            (n.consistent() ? "true" : "false");
    body += ", \"store_entries\": " + std::to_string(n.store_entries);
    body += ", \"directory_entries\": " + std::to_string(n.directory_entries);
    body += ", \"missing_in_directory\": " +
            std::to_string(n.missing_in_directory.size());
    body += ", \"stale_in_directory\": " +
            std::to_string(n.stale_in_directory.size());
    body += "}";
  }
  body += report.per_node.empty() ? "],\n" : "\n  ],\n";
  // Cross-node drift: every (viewer, subject) pair whose directory view of
  // the subject diverges from the subject's actual store. `stale` is the
  // stale-serve hazard the anti-entropy layer repairs.
  body += "  \"drift\": [";
  for (std::size_t i = 0; i < report.drift.size(); ++i) {
    const auto& d = report.drift[i];
    if (i != 0) body += ",";
    body += "\n    {\"viewer\": " + std::to_string(d.viewer);
    body += ", \"subject\": " + std::to_string(d.subject);
    body += ", \"missing\": " + std::to_string(d.missing.size());
    body += ", \"stale\": " + std::to_string(d.stale.size());
    body += "}";
  }
  body += report.drift.empty() ? "]\n" : "\n  ]\n";
  body += "}\n";
  return http::Response::make(report.consistent() ? 200 : 500,
                              std::move(body), "application/json");
}

/// /swala-admin/decommission: graceful leave. Runs the SwalaNode hook
/// (stop admissions → hand off state → broadcast kDecommission) and reports
/// what was shipped. Drain/exit is the operator's next step, never this
/// request's: draining from inside a request would wait on itself.
http::Response serve_decommission(const ServeContext& ctx) {
  if (!ctx.decommission) {
    return http::Response::error(404, "no decommission hook wired");
  }
  return http::Response::make(200, ctx.decommission(), "application/json");
}

http::Response serve_check_consistency(const http::Request& request,
                                       const ServeContext& ctx) {
  for (const auto& [key, value] : request.uri.query_params()) {
    if (key == "cluster" && value == "1") {
      return serve_cluster_consistency(ctx);
    }
  }
  if (ctx.cache == nullptr) {
    return http::Response::error(404, "caching disabled");
  }
  const core::ConsistencyReport report = ctx.cache->debug_check_consistency();
  std::string body = "{\n";
  body += std::string("  \"consistent\": ") +
          (report.consistent() ? "true" : "false") + ",\n";
  body += json_u64("store_entries", report.store_entries);
  body += json_u64("directory_entries", report.directory_entries);
  body += json_u64("missing_in_directory", report.missing_in_directory.size());
  body += json_u64("stale_in_directory", report.stale_in_directory.size());
  body += json_u64("commit_sequence", ctx.cache->commit_sequence(), true);
  body += "}\n";
  return http::Response::make(report.consistent() ? 200 : 500,
                              std::move(body), "application/json");
}

}  // namespace

http::Response overload_response(int status, std::string_view reason,
                                 int retry_after_seconds) {
  http::Response resp = http::Response::error(status, reason);
  if (retry_after_seconds > 0) {
    resp.headers.set("Retry-After", std::to_string(retry_after_seconds));
  }
  return resp;
}

bool finalize_response(const http::Request& request, const ServeContext& ctx,
                       std::size_t served, http::Response* resp) {
  bool keep = ctx.allow_keep_alive && request.keep_alive() &&
              served + 1 < ctx.max_keep_alive_requests;
  resp->version = request.version;
  resp->headers.set("Server", kServerName);
  // A handler that set "Connection: close" (errors, overload sheds) wins
  // over keep-alive, as does a drain in progress: in-flight keep-alive
  // connections wind down one response at a time.
  if (const auto conn = resp->headers.get("Connection");
      conn.has_value() && *conn == "close") {
    keep = false;
  }
  if (ctx.draining != nullptr &&
      ctx.draining->load(std::memory_order_relaxed)) {
    keep = false;
  }
  resp->headers.set("Connection", keep ? "keep-alive" : "close");
  if (request.method == http::Method::kHead) resp->body.clear();
  return keep;
}

void record_exchange(const ServeContext& ctx, const http::Request& request,
                     const http::Response& resp, TimeNs handle_start,
                     const Clock* clock) {
  if (ctx.latency != nullptr) {
    ctx.latency->add(to_seconds(clock->now() - handle_start));
  }
  if (ctx.access_log != nullptr && ctx.access_log->is_open()) {
    AccessRecord record;
    record.timestamp =
        static_cast<double>(std::time(nullptr));  // wall-clock epoch
    record.method = http::method_name(request.method);
    record.target = request.target;
    record.version = http::version_name(request.version);
    record.status = resp.status;
    record.bytes = resp.body.size();
    record.service_seconds = to_seconds(clock->now() - handle_start);
    const auto cache_state = resp.headers.get("X-Swala-Cache");
    record.dynamic = cache_state.has_value();
    record.cache_state = cache_state ? std::string(*cache_state) : "-";
    ctx.access_log->log(record);
  }
}

http::Response handle_request(const http::Request& request,
                              const ServeContext& ctx,
                              const Deadline& deadline) {
  if (ctx.counters != nullptr) ++ctx.counters->requests;

  if (request.method != http::Method::kGet &&
      request.method != http::Method::kHead &&
      request.method != http::Method::kPost) {
    return http::Response::error(405);
  }

  if (ctx.enable_admin) {
    if (request.uri.path == "/swala-status") return serve_status(ctx);
    if (request.uri.path == "/swala-admin/invalidate") {
      return serve_invalidate(request, ctx);
    }
    if (request.uri.path == "/swala-admin/check-consistency") {
      return serve_check_consistency(request, ctx);
    }
    if (request.uri.path == "/swala-admin/decommission") {
      return serve_decommission(ctx);
    }
  }

  cgi::CgiHandlerPtr handler;
  if (ctx.registry != nullptr) handler = ctx.registry->find(request.uri.path);
  if (handler != nullptr) return run_dynamic(request, handler, ctx, deadline);
  return serve_static(request, ctx);
}

void handle_connection(net::TcpStream stream, const ServeContext& ctx) {
  if (ctx.counters != nullptr) {
    ++ctx.counters->connections;
    ++ctx.counters->active_connections;
  }
  // Gauge decrement on every exit path (there are many returns below).
  struct ActiveGuard {
    ServerStats* c;
    ~ActiveGuard() {
      if (c != nullptr) --c->active_connections;
    }
  } active_guard{ctx.counters};

  (void)stream.set_no_delay(true);
  // Read in short slices so an idle connection notices server shutdown
  // without waiting out the full idle timeout.
  constexpr int kSliceMs = 250;
  (void)stream.set_recv_timeout(std::min(ctx.recv_timeout_ms, kSliceMs));
  (void)stream.set_send_timeout(ctx.recv_timeout_ms);

  const auto shutting_down = [&ctx] {
    return ctx.running != nullptr &&
           !ctx.running->load(std::memory_order_relaxed);
  };

  const Clock* clock = ctx.clock != nullptr
                           ? ctx.clock
                           : static_cast<const Clock*>(RealClock::instance());

  http::RequestParser parser;
  char buf[16 * 1024];
  std::size_t served = 0;

  while (served < ctx.max_keep_alive_requests) {
    // Consume already-buffered pipelined bytes before reading the socket.
    http::ParseState state = parser.pump();
    // The per-request deadline arms at the *first byte* of a request, not
    // at connection idle: a client dribbling one header byte per slice
    // (slow loris) keeps resetting the idle timeout but cannot stretch the
    // request past its budget.
    Deadline deadline;
    const auto arm_deadline = [&] {
      if (deadline.unlimited() && ctx.request_timeout_ms > 0 &&
          parser.mid_request()) {
        deadline = Deadline::after_ms(clock, ctx.request_timeout_ms);
      }
    };
    arm_deadline();
    int idle_ms = 0;
    while (state == http::ParseState::kNeedMore) {
      if (deadline.expired()) {
        if (ctx.counters != nullptr) ++ctx.counters->deadline_exceeded;
        const auto resp = http::Response::error(408, "request deadline");
        (void)stream.write_vec(resp.serialize_head(), resp.body);
        return;
      }
      auto n = stream.read_some(buf, sizeof(buf));
      if (!n) {
        if (n.status().code() != StatusCode::kTimeout) return;
        idle_ms += kSliceMs;
        if (shutting_down()) {
          // Server stopping. A connection that already sent part of a
          // request deserves an answer, not a silent abandon: tell it the
          // server is going away and that the connection is done. An idle
          // keep-alive connection just closes.
          if (parser.mid_request()) {
            http::Response resp = overload_response(
                503, "server shutting down", ctx.retry_after_seconds);
            (void)stream.write_vec(resp.serialize_head(), resp.body);
          }
          return;
        }
        if (idle_ms >= ctx.recv_timeout_ms) return;
        continue;
      }
      if (n.value() == 0) return;  // peer closed
      idle_ms = 0;
      state = parser.feed({buf, n.value()});
      arm_deadline();
    }
    if (state == http::ParseState::kError) {
      const auto resp = http::Response::error(parser.error_status());
      (void)stream.write_vec(resp.serialize_head(), resp.body);
      return;
    }

    http::Request& request = parser.request();

    const TimeNs handle_start = clock->now();
    http::Response resp = handle_request(request, ctx, deadline);
    record_exchange(ctx, request, resp, handle_start, clock);
    const bool keep = finalize_response(request, ctx, served, &resp);

    // The response write shares the request budget: a client that stops
    // reading (zero receive window) blocks the thread for at most the
    // remaining deadline, not the full idle timeout.
    (void)stream.set_send_timeout(deadline.unlimited()
                                      ? ctx.recv_timeout_ms
                                      : deadline.budget_ms(ctx.recv_timeout_ms));

    // Vectored write: the head is small and freshly built, the body can be
    // large (a cached blob) — gluing them into one string would copy the
    // body once per response.
    const std::string head = resp.serialize_head();
    if (!stream.write_vec(head, resp.body).is_ok()) {
      if (deadline.expired()) {
        if (ctx.counters != nullptr) ++ctx.counters->deadline_exceeded;
      }
      return;
    }
    if (ctx.counters != nullptr) {
      ctx.counters->bytes_sent += head.size() + resp.body.size();
    }
    ++served;
    if (!keep) return;
    parser.reset();
  }
}

}  // namespace swala::server

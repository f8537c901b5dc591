// swala_perfbench: starts Swala nodes in-process on loopback, drives one
// workload from a single client, checks every response, and prints every
// metric by name with its unit. The last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   swala_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --scratch <dir> [--commit <id>] [--spans <file>]
//   swala_perfbench --selftest --scratch <dir>
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
// metrics: counters and client-side outcome splits from an untraced pass,
// then decorator timings from a second, traced pass of the same workload
// (see README.md).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "nodes.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string scratch;
  std::string commit = "unknown";
  std::string spans_path;
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Share of --seconds spent in the open loop; the closed loop gets the rest.
/// The open loop gets more: its tail percentiles need the samples.
constexpr double kOpenShare = 0.7;
/// At most this many time windows per phase for the medians of p50, p99 and
/// goodput, each with at least kWindowSamples requests (so a window's p99
/// has at least 20 samples beyond it).
constexpr std::size_t kMaxWindows = 9;
constexpr std::size_t kWindowSamples = 2000;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "swala_perfbench: " << why << "\n"
            << "usage: swala_perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> --scratch <dir> [--commit <id>] [--spans <file>]\n"
               "       swala_perfbench --selftest --scratch <dir>\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") o.workload = value();
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--trace") o.trace = value() == "1";
    else if (arg == "--scratch") o.scratch = value();
    else if (arg == "--commit") o.commit = value();
    else if (arg == "--spans") o.spans_path = value();
    else if (arg == "--selftest") o.selftest = true;
    else usage("unknown argument " + arg);
  }
  if (o.scratch.empty()) usage("--scratch is required");
  if (!o.selftest && o.workload.empty()) usage("--workload is required");
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

// ---- environment record ----

std::string sanitizers() {
  std::string out;
#if defined(__SANITIZE_ADDRESS__)
  out += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  out += "thread ";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
  out += "address ";
#endif
#if __has_feature(thread_sanitizer)
  out += "thread ";
#endif
#if __has_feature(undefined_behavior_sanitizer)
  out += "undefined ";
#endif
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) out += "flags ";
  return out;
}

bool optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void print_env(const Options& o) {
  const std::string san = sanitizers();
  std::printf(
      "env: {\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"sanitizers\": \"%s\", \"optimized\": %s, "
      "\"commit\": \"%s\"}\n",
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      json_escape(PERFBENCH_COMPILER).c_str(), json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      san.empty() ? "none" : san.c_str(), optimized() ? "true" : "false",
      json_escape(o.commit).c_str());
}

/// Numbers from a sanitizer or unoptimised build are not worth reporting.
void refuse_unfit_build() {
  const std::string san = sanitizers();
  if (!san.empty()) {
    std::cerr << "swala_perfbench: refusing to report numbers from a sanitizer build ("
              << san << ")\n";
    std::exit(3);
  }
  if (!optimized()) {
    std::cerr << "swala_perfbench: refusing to report numbers from an unoptimised build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    std::exit(3);
  }
}

std::string self_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<std::size_t>(n));
  return path.substr(0, path.rfind('/'));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

/// True once any child process (a fork/exec'd CGI) has been reaped.
bool forked_children() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return usage.ru_maxrss > 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- one pass: set up, warm up, open loop, closed loop, check ----

struct Pass {
  std::vector<double> setup_seconds;
  std::vector<std::string> warmup_errors;  ///< of every set-up
  PhaseResult open;
  PhaseResult closed;
  Counters before_open, after_open, after_closed;
  swala::LatencyHistogram handle;  ///< cumulative over the measured nodes
  std::uint64_t scripted_runs = 0;  ///< in-process CGI runs in the timed phases
  bool consistent = false;
  std::string consistency;
  std::vector<Span> spans;  ///< traced pass only
};

NodeSetOptions node_options(const Workload& w, const Options& o) {
  NodeSetOptions n = w.nodes;
  if (!w.docroot.empty()) n.docroot = o.scratch + "/docroot";
  if (w.uses_disk) n.disk_root = o.scratch + "/cache";
  return n;
}

Pass run_pass(const Workload& w, const Options& o, bool traced, int setups) {
  Pass pass;
  const NodeSetOptions node_opts = node_options(w, o);
  const LoadTarget probe{{}, &w.requests, &w.verify, 4};
  std::unique_ptr<NodeSet> nodes;
  if (traced) clear_spans();
  // The docroot is bench input, like the request list: written once, before
  // the timed set-ups (file creation on the host filesystem is slow and
  // noisy, and says nothing about Swala).
  if (!w.docroot.empty()) write_docroot(node_opts.docroot, w.docroot);
  for (int s = 0; s < setups; ++s) {
    nodes.reset();  // tear-down is not set-up time
    if (w.uses_disk) remove_tree(node_opts.disk_root);
    const std::int64_t start = now_ns();
    nodes = std::make_unique<NodeSet>(node_opts, w.mounts, traced);
    const std::int64_t up = now_ns();
    LoadTarget target = probe;
    target.ports = nodes->ports();
    const PhaseResult warmup = run_closed(target, 0, w.warmup, 0);
    const std::int64_t warm = now_ns();
    if (warmup.failed() > 0) {
      pass.warmup_errors.push_back(std::to_string(warmup.failed()) + " warm-up requests failed");
    }
    for (const std::string& e : warmup.errors) pass.warmup_errors.push_back(e);
    pass.setup_seconds.push_back(static_cast<double>(warm - start) * 1e-9);
    std::printf("%s set-up %d: %.3f s (nodes up %.3f, warm-up %.3f)\n",
                traced ? "traced" : "untraced", s + 1, pass.setup_seconds.back(),
                static_cast<double>(up - start) * 1e-9,
                static_cast<double>(warm - up) * 1e-9);
  }
  LoadTarget target = probe;
  target.ports = nodes->ports();

  const double open_seconds = o.seconds * kOpenShare;
  pass.before_open = nodes->counters();
  const std::uint64_t scripted_before = w.scripted_runs();
  pass.open = run_open(target, w.warmup, w.open_rate, open_seconds);
  pass.after_open = nodes->counters();
  pass.closed = run_closed_for(target, w.warmup + pass.open.samples.size(),
                               o.seconds - open_seconds);
  pass.after_closed = nodes->counters();
  pass.scripted_runs = w.scripted_runs() - scripted_before;
  pass.handle = nodes->handle_latency();

  // The cluster-wide oracle after quiesce. Drift may need one anti-entropy
  // round (1 s) to repair, so a divergent first look is retried.
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1100));
    nodes->quiesce(5.0);
    const auto report = nodes->check_consistency();
    pass.consistent = report.consistent();
    pass.consistency = report.to_string();
    if (pass.consistent) break;
  }
  nodes->stop();
  if (traced) pass.spans = collect_spans();
  nodes.reset();
  if (w.uses_disk) remove_tree(node_opts.disk_root);
  if (!w.docroot.empty()) remove_tree(node_opts.docroot);
  return pass;
}

// ---- metrics ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool integral;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit, false});
  }
  void count(const std::string& name, double value) {
    metrics_.push_back({name, value, "count", true});
  }
  void fail(const std::string& why) {
    correct_ = false;
    std::cerr << "CHECK FAILED: " << why << "\n";
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }

  std::string json(std::uint64_t attempted, std::uint64_t failed) const {
    std::ostringstream out;
    out << "{\"correct\": " << (correct_ ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char value[64];
      if (m.integral) {
        std::snprintf(value, sizeof(value), "%llu",
                      static_cast<unsigned long long>(std::llround(m.value)));
      } else {
        std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
      }
      out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << value
          << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "}}";
    return out.str();
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

std::vector<double> latencies(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.outcome != Outcome::kError) out.push_back(s.latency_s);
  }
  return out;
}

/// Splits a phase into equal spans of request start time and returns the
/// median over the windows of fn(window's samples, its length in seconds).
/// On a shared host a burst of a neighbour's load then spoils one window's
/// figure, not the run's.
template <typename Fn>
double window_median(const PhaseResult& phase, Fn&& fn) {
  if (phase.samples.empty()) return 0.0;
  const std::size_t windows =
      std::clamp<std::size_t>(phase.samples.size() / kWindowSamples, 1, kMaxWindows);
  const auto [lo, hi] = std::minmax_element(
      phase.samples.begin(), phase.samples.end(),
      [](const Sample& a, const Sample& b) { return a.start_ns < b.start_ns; });
  const double width =
      static_cast<double>(hi->start_ns - lo->start_ns + 1) / static_cast<double>(windows);
  std::vector<std::vector<Sample>> bins(windows);
  for (const Sample& s : phase.samples) {
    const auto bin = static_cast<std::size_t>(static_cast<double>(s.start_ns - lo->start_ns) / width);
    bins[std::min(bin, windows - 1)].push_back(s);
  }
  std::vector<double> values;
  for (const auto& bin : bins) values.push_back(fn(bin, width * 1e-9));
  return median(values);
}

struct OpenSummary {
  double p50_ms = 0, p99_ms = 0, hit_ratio = 0;
};

OpenSummary summarize_open(const PhaseResult& open) {
  OpenSummary s;
  s.p50_ms = window_median(open, [](const std::vector<Sample>& bin, double) {
    return percentile(latencies(bin), 50) * 1e3;
  });
  s.p99_ms = window_median(open, [](const std::vector<Sample>& bin, double) {
    return percentile(latencies(bin), 99) * 1e3;
  });
  std::uint64_t dynamic = 0, hits = 0;
  for (const Sample& x : open.samples) {
    if (x.kind != Kind::kDynamic) continue;
    ++dynamic;
    if (x.ok && is_hit(x.outcome)) ++hits;
  }
  s.hit_ratio = ratio(static_cast<double>(hits), static_cast<double>(dynamic));
  return s;
}

double goodput(const PhaseResult& closed, double limit_s) {
  return window_median(closed, [&](const std::vector<Sample>& bin, double seconds) {
    const auto good = std::count_if(bin.begin(), bin.end(), [&](const Sample& s) {
      return s.ok && s.latency_s <= limit_s;
    });
    return ratio(static_cast<double>(good), seconds);
  });
}

std::uint64_t peer_messages(const Counters& c) {
  return c.group.frames_sent + c.group.remote_fetches + c.group.queries_sent +
         c.manager.remote_dir_lookups;
}

/// Checks shared by every pass: no failed request, a consistent cluster.
void check_pass(const Pass& p, const std::string& label, Report* report) {
  for (const std::string& e : p.warmup_errors) report->fail(label + " warm-up: " + e);
  for (const PhaseResult* phase : {&p.open, &p.closed}) {
    for (const std::string& e : phase->errors) {
      report->fail(label + " request failed: " + e);
    }
  }
  report->check(p.open.failed() + p.closed.failed() == 0, label + ": failed requests");
  report->check(p.consistent, label + " cluster consistency: " + p.consistency);
}

/// Workload self-checks: fail the run if a workload no longer exercises
/// the layers it is there for. `cgi_runs` counts CGI executions in the
/// timed phases.
void self_check(const Workload& w, const Pass& p, std::uint64_t cgi_runs,
                Report* report) {
  const OpenSummary open = summarize_open(p.open);
  const Counters& a = p.before_open;
  const Counters& b = p.after_closed;
  if (w.name == "hot_hits") {
    report->check(open.hit_ratio >= 0.999, "hot_hits: hit_ratio " +
                                               std::to_string(open.hit_ratio) + " < 0.999");
    report->check(cgi_runs == 0, "hot_hits: " + std::to_string(cgi_runs) +
                                     " CGI runs after set-up");
  } else if (w.name == "coop_adl") {
    const double hits = static_cast<double>(b.manager.hits() - a.manager.hits());
    const double remote = static_cast<double>(b.manager.remote_hits - a.manager.remote_hits);
    report->check(remote >= 0.25 * hits, "coop_adl: remote hits " + std::to_string(remote) +
                                             " < 25% of " + std::to_string(hits));
    report->check(cgi_runs > 0, "coop_adl: no CGI runs");
    report->check(!forked_children(), "coop_adl: a process was forked");
  } else if (w.name == "churn_write") {
    report->check(b.store.evictions > a.store.evictions, "churn_write: no evictions");
    report->check(cgi_runs > 0 && forked_children(), "churn_write: no fork/exec runs");
    report->check(b.manager.remote_dir_lookups > a.manager.remote_dir_lookups,
                  "churn_write: no owner probes");
    report->check(b.manager.invalidations > a.manager.invalidations,
                  "churn_write: no invalidation applied");
    std::uint64_t dynamic = 0, misses = 0;
    for (const PhaseResult* phase : {&p.open, &p.closed}) {
      for (const Sample& s : phase->samples) {
        if (s.kind != Kind::kDynamic) continue;
        ++dynamic;
        if (s.outcome == Outcome::kMiss) ++misses;
      }
    }
    report->check(2 * misses >= dynamic, "churn_write: only " + std::to_string(misses) +
                                             " of " + std::to_string(dynamic) + " missed");
  }
}

void end_to_end_metrics(const Workload& w, const Pass& p, Report* r) {
  const OpenSummary open = summarize_open(p.open);
  r->add("goodput_rps", goodput(p.closed, w.latency_limit_s), "req/s");
  r->add("p50_ms", open.p50_ms, "ms");
  r->add("p99_ms", open.p99_ms, "ms");
  r->add("hit_ratio", open.hit_ratio, "ratio");
  r->add("setup_s", median(p.setup_seconds), "s");
  r->add("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Counters, client-side outcome splits and derived ratios of an untraced
/// pass (the first half of the --trace 1 report).
void counter_metrics(const Pass& p, Report* r) {
  const Counters& a = p.before_open;
  const Counters& m = p.after_open;
  const Counters& b = p.after_closed;
  const auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double attempted = static_cast<double>(p.open.samples.size() + p.closed.samples.size());
  const double failed = static_cast<double>(p.open.failed() + p.closed.failed());

  r->add("fail_frac", ratio(failed, attempted), "ratio");
  r->add("peer_msgs_per_req",
         ratio(d(peer_messages(m), peer_messages(a)),
               static_cast<double>(p.open.samples.size())),
         "msgs/req");

  // workload generator validity
  r->count("workload.sent", attempted);
  r->add("workload.late_p99_ms", percentile(p.open.lateness_s, 99) * 1e3, "ms");

  // server / http / net
  r->add("server.handle_p50_ms", p.handle.percentile(50) * 1e3, "ms");
  r->add("server.handle_p99_ms", p.handle.percentile(99) * 1e3, "ms");
  const std::vector<double> closed_lat = latencies(p.closed.samples);
  double client_sum = 0;
  for (const double x : closed_lat) client_sum += x;
  const double client_mean = ratio(client_sum, static_cast<double>(closed_lat.size()));
  const double handle_mean = ratio(b.handle_seconds - m.handle_seconds,
                                   d(b.handle_count, m.handle_count));
  r->add("net.wire_ms_mean", (client_mean - handle_mean) * 1e3, "ms");
  r->count("server.requests_shed", d(b.server.requests_shed, a.server.requests_shed));
  r->count("server.deadline_exceeded",
           d(b.server.deadline_exceeded, a.server.deadline_exceeded));
  r->count("server.errors", d(b.server.errors, a.server.errors));

  // core
  const auto& am = a.manager;
  const auto& bm = b.manager;
  r->count("core.local_hits", d(bm.local_hits, am.local_hits));
  r->count("core.remote_hits", d(bm.remote_hits, am.remote_hits));
  r->count("core.misses", d(bm.misses, am.misses));
  r->count("core.coalesced_misses", d(bm.coalesced_misses, am.coalesced_misses));
  r->count("core.inserts", d(bm.inserts, am.inserts));
  r->count("core.false_hits", d(bm.false_hits, am.false_hits));
  r->count("core.false_misses", d(bm.false_misses, am.false_misses));
  r->count("core.fallback_executions", d(bm.fallback_executions, am.fallback_executions));
  r->count("core.invalidations", d(bm.invalidations, am.invalidations));
  r->count("core.evictions_broadcast", d(bm.evictions_broadcast, am.evictions_broadcast));
  r->add("core.owner_probe_hit_ratio",
         ratio(d(bm.remote_dir_hits, am.remote_dir_hits),
               d(bm.remote_dir_lookups, am.remote_dir_lookups)),
         "ratio");
  r->add("store.hot_hit_ratio",
         ratio(d(b.store.hot_hits, a.store.hot_hits),
               d(b.store.hot_hits, a.store.hot_hits) + d(b.store.hot_misses, a.store.hot_misses)),
         "ratio");
  r->count("store.evictions", d(b.store.evictions, a.store.evictions));

  // cluster
  const auto& ag = a.group;
  const auto& bg = b.group;
  r->count("cluster.frames_sent", d(bg.frames_sent, ag.frames_sent));
  r->count("cluster.batched_broadcasts", d(bg.batched_broadcasts, ag.batched_broadcasts));
  // Updates are broadcasts (replicated) plus owner unicasts (partitioned).
  r->add("cluster.frames_per_update",
         ratio(d(bg.frames_sent, ag.frames_sent),
               d(bg.broadcasts_sent + bg.owner_updates_sent,
                 ag.broadcasts_sent + ag.owner_updates_sent)),
         "frames/update");
  r->count("cluster.updates_received", d(bg.updates_received, ag.updates_received));
  r->count("cluster.fetches_served", d(bg.fetches_served, ag.fetches_served));
  r->count("cluster.owner_updates_sent", d(bg.owner_updates_sent, ag.owner_updates_sent));
  r->count("cluster.send_failures", d(bg.send_failures, ag.send_failures));
  r->count("cluster.digest_repairs", d(bg.digest_repairs, ag.digest_repairs));

  // outcome split (open loop, client side)
  for (int o = 0; o < kOutcomeCount; ++o) {
    const auto outcome = static_cast<Outcome>(o);
    if (outcome == Outcome::kAdmin || outcome == Outcome::kError) continue;
    std::vector<double> lat;
    for (const Sample& s : p.open.samples) {
      if (s.outcome == outcome) lat.push_back(s.latency_s);
    }
    const std::string prefix = std::string("outcome.") + outcome_name(outcome);
    r->count(prefix + ".count", static_cast<double>(lat.size()));
    r->add(prefix + ".p50_ms", percentile(lat, 50) * 1e3, "ms");
    r->add(prefix + ".p99_ms", percentile(lat, 99) * 1e3, "ms");
  }
}

/// Decorator timings of the traced pass, plus the tracing overhead against
/// the untraced pass.
void span_metrics(const Workload& w, const Pass& traced, const Pass& plain,
                  Report* r) {
  const std::int64_t from = traced.open.start_ns;
  const std::int64_t to = traced.closed.end_ns;
  // Request threads are those that ran a CGI or a synchronous lookup-side
  // bus call; bus and fs spans on them are request-path time, the rest
  // (group daemons applying peer updates or serving fetches) is background.
  std::set<std::uint32_t> request_threads;
  for (const Span& s : traced.spans) {
    if (s.op == Op::kCgiRun || s.op == Op::kFetchRemote || s.op == Op::kLookupAtOwner ||
        s.op == Op::kQueryPeers) {
      request_threads.insert(s.tid);
    }
  }
  std::vector<double> cgi, fetch, owner, announce, fsync;
  std::uint64_t cgi_failures = 0, fetch_not_found = 0, fetch_failures = 0,
                owner_failures = 0, fsyncs = 0;
  double cgi_self = 0, bus_self = 0, fs_self = 0, fs_write = 0, fs_read = 0;
  for (const Span& s : traced.spans) {
    if (s.start_ns < from || s.start_ns > to) continue;
    const double secs = s.seconds();
    const bool on_request = request_threads.count(s.tid) != 0;
    switch (layer_of(s.op)) {
      case Layer::kCgi:
        cgi.push_back(secs);
        cgi_self += secs;
        if (s.status != SpanStatus::kOk) ++cgi_failures;
        break;
      case Layer::kBus:
        if (on_request) bus_self += secs;
        if (s.op == Op::kFetchRemote) {
          fetch.push_back(secs);
          if (s.status == SpanStatus::kNotFound) ++fetch_not_found;
          if (s.status == SpanStatus::kFailed) ++fetch_failures;
        } else if (s.op == Op::kLookupAtOwner) {
          owner.push_back(secs);
          if (s.status == SpanStatus::kFailed) ++owner_failures;
        } else if (is_announce(s.op)) {
          announce.push_back(secs);
        }
        break;
      case Layer::kFs:
        if (on_request) fs_self += secs;
        if (s.op == Op::kFsWrite) fs_write += secs;
        if (s.op == Op::kFsRead) fs_read += secs;
        if (s.op == Op::kFsFsync) {
          ++fsyncs;
          fsync.push_back(secs);
        }
        break;
    }
  }
  const double handled = static_cast<double>(traced.after_closed.handle_count -
                                             traced.before_open.handle_count);
  const double handle_total =
      traced.after_closed.handle_seconds - traced.before_open.handle_seconds;
  std::uint64_t dynamic = 0;
  for (const PhaseResult* phase : {&traced.open, &traced.closed}) {
    for (const Sample& s : phase->samples) dynamic += s.kind == Kind::kDynamic;
  }

  r->count("cgi.runs", static_cast<double>(cgi.size()));
  r->add("cgi.run_p50_ms", percentile(cgi, 50) * 1e3, "ms");
  r->add("cgi.run_p99_ms", percentile(cgi, 99) * 1e3, "ms");
  r->count("cgi.failures", static_cast<double>(cgi_failures));
  r->add("cgi.runs_per_dynamic",
         ratio(static_cast<double>(cgi.size()), static_cast<double>(dynamic)), "ratio");

  r->count("cluster.fetch_remote.calls", static_cast<double>(fetch.size()));
  r->add("cluster.fetch_remote.p50_ms", percentile(fetch, 50) * 1e3, "ms");
  r->add("cluster.fetch_remote.p99_ms", percentile(fetch, 99) * 1e3, "ms");
  r->count("cluster.fetch_remote.not_found", static_cast<double>(fetch_not_found));
  r->count("cluster.fetch_remote.failures", static_cast<double>(fetch_failures));
  r->count("cluster.lookup_at_owner.calls", static_cast<double>(owner.size()));
  r->add("cluster.lookup_at_owner.p50_ms", percentile(owner, 50) * 1e3, "ms");
  r->add("cluster.lookup_at_owner.p99_ms", percentile(owner, 99) * 1e3, "ms");
  r->count("cluster.lookup_at_owner.failures", static_cast<double>(owner_failures));
  r->count("cluster.announce.calls", static_cast<double>(announce.size()));
  r->add("cluster.announce.p99_us", percentile(announce, 99) * 1e6, "us");

  r->add("store.fs_write_ms_total", fs_write * 1e3, "ms");
  r->add("store.fs_read_ms_total", fs_read * 1e3, "ms");
  r->count("store.fsync_calls", static_cast<double>(fsyncs));
  r->add("store.fsync_p99_ms", percentile(fsync, 99) * 1e3, "ms");

  // Self time per request handled: each layer's spans are leaves, so their
  // durations are their self time; core is what handling spent elsewhere.
  r->add("cgi.self_ms_per_req", ratio(cgi_self, handled) * 1e3, "ms");
  r->add("cluster.self_ms_per_req", ratio(bus_self, handled) * 1e3, "ms");
  r->add("store.fs_self_ms_per_req", ratio(fs_self, handled) * 1e3, "ms");
  r->add("core.self_ms_mean",
         ratio(handle_total - cgi_self - bus_self - fs_self, handled) * 1e3, "ms");

  const OpenSummary traced_open = summarize_open(traced.open);
  const OpenSummary plain_open = summarize_open(plain.open);
  r->add("trace.overhead_p50_ms", traced_open.p50_ms - plain_open.p50_ms, "ms");
  r->add("trace.overhead_goodput_rps",
         goodput(plain.closed, w.latency_limit_s) - goodput(traced.closed, w.latency_limit_s),
         "req/s");
  r->count("trace.spans", static_cast<double>(traced.spans.size()));
}

int run_benchmark(const Options& o) {
  refuse_unfit_build();
  print_env(o);
  const Workload w = make_workload(o.workload, o.seed, self_dir() + "/perfbench_cgi");
  std::printf("workload %s seed %llu: %zu requests (hash %016llx), warm-up %zu, "
              "open loop %.0f req/s\n",
              w.name.c_str(), static_cast<unsigned long long>(o.seed), w.requests.size(),
              static_cast<unsigned long long>(request_list_hash(w.requests)), w.warmup,
              w.open_rate);

  Report report;
  const Pass plain = run_pass(w, o, /*traced=*/false, kSetups);
  check_pass(plain, "untraced", &report);
  const std::uint64_t attempted = plain.open.samples.size() + plain.closed.samples.size();
  const std::uint64_t failed = plain.open.failed() + plain.closed.failed();
  std::uint64_t cgi_runs = plain.scripted_runs;
  if (w.scripted.empty()) {
    // Fork/exec CGIs have no run counter; every insert is one execution.
    cgi_runs = plain.after_closed.manager.inserts - plain.before_open.manager.inserts;
  }
  self_check(w, plain, cgi_runs, &report);

  if (!o.trace) {
    end_to_end_metrics(w, plain, &report);
  } else {
    counter_metrics(plain, &report);
    const Pass traced = run_pass(w, o, /*traced=*/true, 1);
    check_pass(traced, "traced", &report);
    std::uint64_t traced_cgi = 0;
    for (const Span& s : traced.spans) {
      traced_cgi += s.op == Op::kCgiRun && s.start_ns >= traced.open.start_ns;
    }
    self_check(w, traced, traced_cgi, &report);
    span_metrics(w, traced, plain, &report);
    if (!o.spans_path.empty() && !write_spans_tsv(o.spans_path, traced.spans)) {
      std::cerr << "warning: cannot write spans to " << o.spans_path << "\n";
    }
  }
  std::printf("%s\n", report.json(attempted, failed).c_str());
  return 0;
}

// ---- self-tests ----

/// The same seed gives the same request list, another seed another one.
bool selftest_request_lists(const std::string& cgi_program) {
  bool ok = true;
  for (const std::string& name : workload_names()) {
    const auto a = request_list_hash(make_workload(name, 7, cgi_program).requests);
    const auto b = request_list_hash(make_workload(name, 7, cgi_program).requests);
    const auto c = request_list_hash(make_workload(name, 8, cgi_program).requests);
    const bool pass = a == b && a != c;
    std::printf("selftest request-list hash %-12s seed 7: %016llx / %016llx, seed 8: "
                "%016llx  %s\n",
                name.c_str(), static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b), static_cast<unsigned long long>(c),
                pass ? "ok" : "FAIL");
    ok = ok && pass;
  }
  return ok;
}

/// The decorators are pass-through: an untraced and a traced two-node
/// cluster (files store, fork/exec CGI, static files) return byte-identical
/// bodies for a short fixed trace, and the traced one recorded spans at all
/// three seams.
bool selftest_passthrough(const Options& o, const std::string& cgi_program) {
  Workload w = make_workload("churn_write", 1, cgi_program);
  w.nodes.nodes = 2;
  w.nodes.directory_mode = swala::core::DirectoryMode::kReplicated;
  w.nodes.admin = false;
  w.docroot = {{"/a.html", "<html>a</html>\n"}, {"/dir/b.bin", std::string(5000, 'b')}};
  w.requests.clear();
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 20; ++k) {
      w.requests.push_back(Request{Kind::kDynamic, false,
                                   "/cgi-bin/churn?k=" + std::to_string(k)});
    }
    w.requests.push_back(Request{Kind::kStatic, false, "/a.html"});
    w.requests.push_back(Request{Kind::kStatic, false, "/dir/b.bin"});
  }
  const auto* files = &w.docroot;
  const Verifier base = w.verify;
  w.verify = [files, base](const Request& r, std::string_view body) {
    if (r.kind == Kind::kStatic) return files->at(r.target) == body;
    return base(r, body);
  };

  std::vector<std::string> bodies[2];
  std::size_t layers_seen = 0;
  bool ok = true;
  for (const bool traced : {false, true}) {
    const NodeSetOptions opts = node_options(w, o);
    if (traced) clear_spans();
    remove_tree(opts.disk_root);
    write_docroot(opts.docroot, w.docroot);
    {
      NodeSet nodes(opts, w.mounts, traced);
      const LoadTarget target{nodes.ports(), &w.requests, &w.verify, 1};
      PhaseResult run = run_sequential(target, 0, w.requests.size());
      for (const auto& e : run.errors) std::printf("selftest error: %s\n", e.c_str());
      ok = ok && run.failed() == 0;
      bodies[traced ? 1 : 0] = std::move(run.bodies);
      nodes.stop();
    }
    if (traced) {
      std::set<Layer> layers;
      for (const Span& s : collect_spans()) layers.insert(layer_of(s.op));
      layers_seen = layers.size();
    }
    remove_tree(opts.disk_root);
    remove_tree(opts.docroot);
  }
  const bool same = bodies[0] == bodies[1] && bodies[0].size() == w.requests.size();
  std::printf("selftest pass-through: %zu bodies byte-identical: %s; traced layers seen: "
              "%zu of 3  %s\n",
              bodies[0].size(), same ? "yes" : "no", layers_seen,
              same && ok && layers_seen == 3 ? "ok" : "FAIL");
  return same && ok && layers_seen == 3;
}

int run_selftest(const Options& o) {
  const std::string cgi_program = self_dir() + "/perfbench_cgi";
  const bool lists = selftest_request_lists(cgi_program);
  const bool passthrough = selftest_passthrough(o, cgi_program);
  std::printf("selftest %s\n", lists && passthrough ? "passed" : "FAILED");
  return lists && passthrough ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse_args(argc, argv);
  try {
    return options.selftest ? perfbench::run_selftest(options)
                            : perfbench::run_benchmark(options);
  } catch (const std::exception& e) {
    std::cerr << "swala_perfbench: " << e.what() << "\n";
    return 1;
  }
}

#include "workloads.h"

#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "cgi/process.h"
#include "common/hash.h"
#include "common/random.h"
#include "workload/adl_synth.h"

namespace perfbench {

namespace cgi = swala::cgi;
namespace core = swala::core;

namespace {

// ---- shared pieces ----

core::CacheabilityRules cache_cgi_bin(double min_exec_seconds) {
  core::CacheabilityRules rules;
  core::RuleDecision decision;
  decision.cacheable = true;
  decision.ttl_seconds = 0.0;
  decision.min_exec_seconds = min_exec_seconds;
  rules.add_rule("/cgi-bin/*", decision);
  return rules;
}

std::shared_ptr<cgi::ScriptedCgi> scripted(cgi::ComputeMode mode,
                                           std::size_t output_bytes,
                                           bool cost_from_query) {
  cgi::ScriptedOptions o;
  o.mode = mode;
  o.output_bytes = output_bytes;
  o.cost_from_query = cost_from_query;
  return std::make_shared<cgi::ScriptedCgi>(o);
}

/// ScriptedCgi's body: a header naming the canonical target and the
/// execution count, then filler seeded by the target. The count is the
/// only part that may differ between executions.
bool scripted_body_ok(std::string_view target, std::size_t output_bytes,
                      std::string_view body) {
  const std::string prefix =
      "<!-- swala scripted cgi target=" + std::string(target) + " exec=";
  if (body.substr(0, prefix.size()) != prefix) return false;
  const std::size_t end = body.find(" -->\n", prefix.size());
  if (end == std::string_view::npos || end == prefix.size()) return false;
  for (std::size_t i = prefix.size(); i < end; ++i) {
    if (body[i] < '0' || body[i] > '9') return false;
  }
  const std::size_t header = end + 5;
  const std::size_t fill = output_bytes > header ? output_bytes - header : 0;
  return body.substr(header) ==
         cgi::deterministic_body(swala::fnv1a64(target), fill);
}

/// The body perfbench_cgi prints for a query string (see perfbench_cgi.cc).
std::string echo_body(std::string_view query) {
  std::string line = "perfbench-cgi " + std::string(query) + "\n";
  std::string out;
  for (int i = 0; i < 8; ++i) out += line;
  return out;
}

bool admin_body_ok(std::string_view body) {
  return body.find("\"removed\":") != std::string_view::npos;
}

Request dynamic(std::string target) {
  return Request{Kind::kDynamic, false, std::move(target)};
}

// ---- hot_hits ----

constexpr std::size_t kHotKeys = 1000;
constexpr std::size_t kHotSizes[] = {256, 512, 1024, 2048, 4096};

Workload hot_hits(std::uint64_t seed) {
  Workload w;
  w.name = "hot_hits";
  w.nodes.nodes = 1;
  w.nodes.rules = cache_cgi_bin(0.0);
  for (const std::size_t size : kHotSizes) {
    auto handler = scripted(cgi::ComputeMode::kNone, size, false);
    w.mounts.emplace_back("/cgi-bin/h" + std::to_string(size), handler);
    w.scripted.push_back(handler);
  }

  // Popularity rank r has body size kHotSizes[r % 5], the same for every
  // seed; the seed picks which key id holds each rank and draws the stream.
  swala::Rng rng(seed);
  std::vector<std::size_t> ids(kHotKeys);
  for (std::size_t k = 0; k < kHotKeys; ++k) ids[k] = k;
  rng.shuffle(ids);
  std::vector<std::string> keys;  // by popularity rank
  for (std::size_t r = 0; r < kHotKeys; ++r) {
    keys.push_back("/cgi-bin/h" + std::to_string(kHotSizes[r % 5]) +
                   "?k=" + std::to_string(ids[r]));
  }
  // Set-up inserts every key once, in a seeded order, then warms the
  // connections on the Zipf mix the timed phases use.
  std::vector<std::size_t> order(kHotKeys);
  for (std::size_t k = 0; k < kHotKeys; ++k) order[k] = k;
  rng.shuffle(order);
  for (const std::size_t r : order) w.requests.push_back(dynamic(keys[r]));
  const swala::ZipfDistribution zipf(kHotKeys, 0.9);
  constexpr std::size_t kTotal = 300000;
  while (w.requests.size() < kTotal) {
    w.requests.push_back(dynamic(keys[zipf.sample(rng) - 1]));
  }
  w.warmup = kHotKeys + 20000;
  w.open_rate = 20000.0;
  w.latency_limit_s = 0.010;
  w.verify = [](const Request& r, std::string_view body) {
    const std::size_t size = std::stoul(r.target.substr(10, r.target.find('?') - 10));
    return scripted_body_ok(r.target, size, body);
  };
  return w;
}

// ---- coop_adl ----

constexpr std::size_t kAdlOutputBytes = 4096;
constexpr std::size_t kMaxStaticBytes = 64 * 1024;

Workload coop_adl(std::uint64_t seed) {
  Workload w;
  w.name = "coop_adl";
  w.nodes.nodes = 4;
  w.nodes.directory_mode = core::DirectoryMode::kReplicated;
  // ADL service times are scaled by 1/1000, and the paper's 1 s caching
  // threshold with them.
  w.nodes.rules = cache_cgi_bin(0.001);
  auto handler = scripted(cgi::ComputeMode::kSleep, kAdlOutputBytes, true);
  w.mounts.emplace_back("/cgi-bin/adl/", handler);
  w.scripted.push_back(handler);

  // The site — per-query costs, popularity, file sizes — is the
  // synthesizer's calibrated default; the bench seed draws the request
  // stream from it. (Records are independent draws, so a shuffle is another
  // sample of the same stream. Seeding the cost tables too would make hit
  // ratio and tail latency depend on which hot queries happen to fall below
  // the caching threshold, not on the code under test.)
  swala::workload::AdlOptions adl;
  adl.total_requests = 150000;
  swala::workload::Trace trace = swala::workload::synthesize_adl_trace(adl);
  swala::Rng(seed).shuffle(trace);
  for (const auto& record : trace) {
    if (record.is_cgi) {
      char cost[32];
      std::snprintf(cost, sizeof(cost), "&cost=%.6f", record.service_seconds / 1000.0);
      w.requests.push_back(dynamic(record.target + cost));
    } else {
      w.requests.push_back(Request{Kind::kStatic, false, record.target});
      auto& content = w.docroot[record.target];
      if (content.empty()) {
        const std::size_t size = std::min<std::size_t>(
            std::max<std::uint64_t>(record.response_bytes, 1), kMaxStaticBytes);
        content = cgi::deterministic_body(swala::fnv1a64(record.target), size);
      }
    }
  }
  w.warmup = 3000;
  w.open_rate = 1200.0;
  w.latency_limit_s = 0.250;
  const auto* files = &w.docroot;
  w.verify = [files](const Request& r, std::string_view body) {
    if (r.kind == Kind::kStatic) {
      const auto it = files->find(r.target);
      return it != files->end() && body == it->second;
    }
    return scripted_body_ok(r.target, kAdlOutputBytes, body);
  };
  return w;
}

// ---- churn_write ----

constexpr std::size_t kChurnKeys = 20000;
constexpr std::size_t kInvalidateEvery = 200;

Workload churn_write(std::uint64_t seed, const std::string& cgi_program) {
  Workload w;
  w.name = "churn_write";
  w.nodes.nodes = 4;
  w.nodes.directory_mode = core::DirectoryMode::kPartitioned;
  w.nodes.max_entries = 256;
  w.nodes.admin = true;
  w.uses_disk = true;
  w.nodes.rules = cache_cgi_bin(0.0);
  w.mounts.emplace_back("/cgi-bin/churn", std::make_shared<cgi::ProcessCgi>(cgi_program));

  swala::Rng rng(seed);
  const swala::ZipfDistribution zipf(kChurnKeys, 0.8);
  constexpr std::size_t kTotal = 120000;
  for (std::size_t i = 0; i < kTotal; ++i) {
    if (i % kInvalidateEvery == kInvalidateEvery - 1) {
      // A glob over the keys whose id ends in two given digits: ~1 % of
      // the population ("GET /cgi-bin/churn?k=*07").
      char pattern[96];
      std::snprintf(pattern, sizeof(pattern),
                    "/swala-admin/invalidate?pattern=GET%%20/cgi-bin/churn%%3Fk%%3D*%02d",
                    static_cast<int>(rng.uniform_int(0, 99)));
      w.requests.push_back(Request{Kind::kAdmin, true, pattern});
      continue;
    }
    w.requests.push_back(
        dynamic("/cgi-bin/churn?k=" + std::to_string(zipf.sample(rng) - 1)));
  }
  w.warmup = 800;
  w.open_rate = 350.0;
  w.latency_limit_s = 0.100;
  w.verify = [](const Request& r, std::string_view body) {
    if (r.kind == Kind::kAdmin) return admin_body_ok(body);
    return body == echo_body(std::string_view(r.target).substr(r.target.find('?') + 1));
  };
  return w;
}

}  // namespace

std::uint64_t Workload::scripted_runs() const {
  std::uint64_t total = 0;
  for (const auto& handler : scripted) total += handler->execution_count();
  return total;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"hot_hits", "coop_adl", "churn_write"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& cgi_program) {
  if (name == "hot_hits") return hot_hits(seed);
  if (name == "coop_adl") return coop_adl(seed);
  if (name == "churn_write") return churn_write(seed, cgi_program);
  throw std::invalid_argument("unknown workload: " + name);
}

std::uint64_t request_list_hash(const std::vector<Request>& requests) {
  std::uint64_t h = swala::fnv1a64("");
  for (const Request& r : requests) {
    const char tag[2] = {static_cast<char>('0' + static_cast<int>(r.kind)),
                         r.post ? 'P' : 'G'};
    h = swala::fnv1a64_continue(h, std::string_view(tag, 2));
    h = swala::fnv1a64_continue(h, r.target);
    h = swala::fnv1a64_continue(h, "\n");
  }
  return h;
}

void remove_tree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void write_docroot(const std::string& dir,
                   const std::map<std::string, std::string>& files) {
  remove_tree(dir);
  for (const auto& [path, content] : files) {
    const std::filesystem::path full = dir + path;
    std::filesystem::create_directories(full.parent_path());
    std::ofstream out(full, std::ios::binary);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    if (!out) throw std::runtime_error("cannot write docroot file " + full.string());
  }
}

}  // namespace perfbench

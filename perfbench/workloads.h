// The three workloads: what nodes they run, which CGI programs they mount,
// the request list they send (made only from the seed), how every response
// body is checked, and the self-checks that prove each workload still
// exercises the layers it is there for.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cgi/scripted.h"
#include "client.h"
#include "nodes.h"

namespace perfbench {

struct Workload {
  std::string name;
  NodeSetOptions nodes;  ///< docroot / disk_root are filled in per set-up
  bool uses_disk = false;
  std::vector<std::pair<std::string, swala::cgi::CgiHandlerPtr>> mounts;
  /// The in-process CGI programs among `mounts`, for counting executions.
  std::vector<std::shared_ptr<swala::cgi::ScriptedCgi>> scripted;
  std::vector<Request> requests;
  std::size_t warmup = 0;        ///< untimed prefix of `requests`
  double open_rate = 0.0;        ///< open-loop requests per second
  double latency_limit_s = 0.0;  ///< goodput counts responses within this
  /// Docroot files (request path → content), written at every set-up.
  std::map<std::string, std::string> docroot;
  Verifier verify;

  std::uint64_t scripted_runs() const;
};

/// Names accepted by make_workload.
const std::vector<std::string>& workload_names();

/// Builds a workload from its name and seed; `cgi_program` is the tiny
/// fork/exec CGI built next to swala_perfbench. Throws on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& cgi_program);

/// FNV-1a over the request list (kind, method, target of every request).
std::uint64_t request_list_hash(const std::vector<Request>& requests);

/// Removes `dir` recursively (if present) and writes the docroot files.
void write_docroot(const std::string& dir,
                   const std::map<std::string, std::string>& files);
void remove_tree(const std::string& dir);

}  // namespace perfbench

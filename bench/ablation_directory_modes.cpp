// Ablation — directory cooperation schemes head-to-head at scale.
//
// Swala replicates its cache directory: every insert broadcasts to all
// N-1 peers, so directory traffic grows O(n) per insert and the design
// stops scaling somewhere in the tens of nodes. This bench runs the same
// engine, cost model, caches and workload under the two cooperation
// schemes the codebase supports:
//
//   replicated   the paper's design — broadcast every insert/erase
//   partitioned  consistent-hash ownership — one unicast kOwnerUpdate per
//                insert to the key's ring owner, lookups probe the owner
//
// and reports, per (mode, cluster size): hit ratio, mean response, and
// directory traffic split into *update* frames/bytes (insert/erase
// propagation — the part that must not grow with n) and *query*
// frames/bytes (miss-time owner probes — the price partitioned mode pays
// instead). Frames and bytes use real encoded wire sizes. The last numbers
// of the deleted query mode (ICP-style probe of every peer on a miss) are
// in EXPERIMENTS.md.
//
// Human-readable table goes to stderr; stdout is machine-readable JSON
// (the BENCH_PR7.json trajectory and CI's bench-smoke gate):
//   ablation_directory_modes [--smoke]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/cluster_sim.h"
#include "workload/adl_synth.h"

using namespace swala;

namespace {

struct Cell {
  std::string mode;
  std::size_t nodes = 0;
  sim::SimReport report;
};

const char* mode_name(core::DirectoryMode mode) {
  return core::directory_mode_name(mode);
}

double per_insert(std::uint64_t total, std::uint64_t inserts) {
  return inserts ? static_cast<double>(total) / static_cast<double>(inserts)
                 : 0.0;
}

double hit_ratio(const core::ManagerStats& cache) {
  return cache.lookups
             ? static_cast<double>(cache.hits()) /
                   static_cast<double>(cache.lookups)
             : 0.0;
}

Cell run_cell(const workload::Trace& trace, core::DirectoryMode mode,
              std::size_t nodes) {
  sim::SimConfig config;
  config.nodes = nodes;
  config.client_streams = nodes;  // one closed-loop stream per node (§5.2)
  config.limits = {2000, 0};
  config.directory_mode = mode;
  Cell cell;
  cell.mode = mode_name(mode);
  cell.nodes = nodes;
  cell.report = sim::run_cluster_sim(trace, config);
  return cell;
}

void emit_cell_json(const Cell& cell, bool last) {
  const auto& r = cell.report;
  std::printf(
      "    {\"mode\": \"%s\", \"nodes\": %zu, \"requests\": %llu,\n"
      "     \"hit_ratio\": %.4f, \"mean_response_s\": %.4f,\n"
      "     \"inserts\": %llu,\n"
      "     \"dir_update_frames\": %llu, \"dir_update_bytes\": %llu,\n"
      "     \"dir_query_frames\": %llu, \"dir_query_bytes\": %llu,\n"
      "     \"update_frames_per_insert\": %.3f,"
      " \"update_bytes_per_insert\": %.1f}%s\n",
      cell.mode.c_str(), cell.nodes,
      static_cast<unsigned long long>(r.requests_completed),
      hit_ratio(r.cache), r.mean_response(),
      static_cast<unsigned long long>(r.cache.inserts),
      static_cast<unsigned long long>(r.dir_update_frames),
      static_cast<unsigned long long>(r.dir_update_bytes),
      static_cast<unsigned long long>(r.dir_query_frames),
      static_cast<unsigned long long>(r.dir_query_bytes),
      per_insert(r.dir_update_frames, r.cache.inserts),
      per_insert(r.dir_update_bytes, r.cache.inserts), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::fprintf(stderr,
               "Ablation — replicated vs partitioned directory "
               "cooperation%s\n",
               smoke ? " (smoke)" : "");

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{8}
            : std::vector<std::size_t>{64, 128, 256, 512};
  constexpr core::DirectoryMode kModes[] = {core::DirectoryMode::kReplicated,
                                            core::DirectoryMode::kPartitioned};

  TablePrinter table({"nodes", "mode", "hit ratio", "resp (s)", "upd fr/ins",
                      "upd B/ins", "query frames", "query bytes"});
  std::vector<Cell> cells;
  for (const std::size_t nodes : sizes) {
    // Calibrated ADL mix scaled with the cluster: ~48 requests per node,
    // ~70% unique keys, so every size has the same per-node load and a
    // comparable ceiling on the cooperative hit ratio.
    const std::size_t requests = 48 * nodes;
    const std::size_t unique = (requests * 7) / 10;
    const auto trace = workload::synthesize_request_mix(
        requests, unique, 1.0, 5399 + static_cast<unsigned>(nodes));
    for (const auto mode : kModes) {
      cells.push_back(run_cell(trace, mode, nodes));
      const Cell& c = cells.back();
      table.add_row(
          {std::to_string(c.nodes), c.mode,
           fmt_double(hit_ratio(c.report.cache), 3),
           fmt_double(c.report.mean_response(), 3),
           fmt_double(per_insert(c.report.dir_update_frames,
                                 c.report.cache.inserts), 2),
           fmt_double(per_insert(c.report.dir_update_bytes,
                                 c.report.cache.inserts), 1),
           std::to_string(c.report.dir_query_frames),
           std::to_string(c.report.dir_query_bytes)});
      std::fprintf(stderr, "  %zu nodes, %s: done\n", nodes, c.mode.c_str());
    }
  }
  std::fprintf(stderr, "\n%s\n", table.render().c_str());

  // ---- JSON (stdout) ----
  std::printf("{\n");
  std::printf(
      "  \"description\": \"Directory cooperation modes head-to-head over "
      "the calibrated-ADL simulator: replicated broadcast (the paper), "
      "and consistent-hash partitioned ownership (kOwnerUpdate unicast). "
      "Update traffic is insert/erase propagation; query traffic is "
      "miss-time owner probes. Frames/bytes are real encoded wire "
      "sizes.\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    emit_cell_json(cells[i], i + 1 == cells.size());
  }
  std::printf("  ],\n");

  // Head-to-head gate at the largest size: partitioned mode cuts update
  // traffic >= 10x at 256 nodes while staying within 5 points of
  // replicated's hit ratio.
  const std::size_t gate_nodes = sizes.back() == 512 ? 256 : sizes.back();
  const Cell* repl = nullptr;
  const Cell* part = nullptr;
  for (const auto& c : cells) {
    if (c.nodes != gate_nodes) continue;
    if (c.mode == "replicated") repl = &c;
    if (c.mode == "partitioned") part = &c;
  }
  if (repl && part) {
    const double repl_fpi =
        per_insert(repl->report.dir_update_frames, repl->report.cache.inserts);
    const double repl_bpi =
        per_insert(repl->report.dir_update_bytes, repl->report.cache.inserts);
    const double part_fpi =
        per_insert(part->report.dir_update_frames, part->report.cache.inserts);
    const double part_bpi =
        per_insert(part->report.dir_update_bytes, part->report.cache.inserts);
    std::printf("  \"gate\": {\n");
    std::printf("    \"nodes\": %zu,\n", gate_nodes);
    std::printf("    \"replicated_update_frames_per_insert\": %.3f,\n",
                repl_fpi);
    std::printf("    \"partitioned_update_frames_per_insert\": %.3f,\n",
                part_fpi);
    std::printf("    \"partitioned_frames_cut_x\": %.1f,\n",
                part_fpi > 0 ? repl_fpi / part_fpi : 0.0);
    std::printf("    \"partitioned_bytes_cut_x\": %.1f,\n",
                part_bpi > 0 ? repl_bpi / part_bpi : 0.0);
    std::printf("    \"replicated_hit_ratio\": %.4f,\n",
                hit_ratio(repl->report.cache));
    std::printf("    \"partitioned_hit_ratio\": %.4f\n",
                hit_ratio(part->report.cache));
    std::printf("  }\n");
  } else {
    std::printf("  \"gate\": null\n");
  }
  std::printf("}\n");
  return 0;
}

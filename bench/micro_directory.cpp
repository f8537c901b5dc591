// Ablation (§4.2) — directory locking granularity.
//
// The paper weighs three locking strategies for the replicated directory
// and picks per-table read/write locks: whole-directory locking causes
// "unacceptable lock contention", per-entry locking costs "a significant
// number of locks and unlocks" per lookup. This benchmark reproduces that
// argument: lookup throughput under concurrent readers + a writer, for all
// three modes, plus the lock-acquisition counts per lookup.
// Besides the locking ablation, `--batch_bench` measures broadcast
// amortization over a real two-node loopback cluster: a 1000-insert burst is
// broadcast from node 0 to node 1 and the number of transport frames the
// sender actually wrote is reported as JSON (the BENCH_PR4.json trajectory
// and the CI bench-smoke job consume it):
//   micro_directory --batch_bench [--inserts=1000]
// `--memory` reports the heap bytes the directory holds per record, for
// each locking mode, as JSON: the mallinfo2 delta over `--records` inserts
// of ADL-style keys spread over four tables:
//   micro_directory --memory [--records=20000]
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <string_view>
#include <thread>

#include "cluster/group.h"
#include "common/clock.h"
#include "core/directory.h"

using namespace swala;

namespace {

ManualClock g_clock(0);

core::CacheDirectory* make_directory(core::LockingMode mode) {
  static constexpr std::size_t kNodes = 8;
  static constexpr int kEntriesPerNode = 500;
  auto* dir = new core::CacheDirectory(0, kNodes, mode);
  dir->set_clock(&g_clock);
  for (core::NodeId n = 0; n < kNodes; ++n) {
    for (int i = 0; i < kEntriesPerNode; ++i) {
      core::EntryMeta meta;
      meta.key = "GET /cgi-bin/n" + std::to_string(n) + "?i=" + std::to_string(i);
      meta.owner = n;
      meta.version = 1;
      dir->apply_insert(meta);
    }
  }
  return dir;
}

void lookup_loop(benchmark::State& state, core::CacheDirectory* dir) {
  // Mixed workload per the paper: mostly lookups (some missing most tables,
  // hitting the last), occasional re-inserts (a peer's update) from
  // thread 0.
  std::uint64_t i = 0;
  for (auto _ : state) {
    const core::NodeId n = static_cast<core::NodeId>(i % 8);
    const std::string key =
        "GET /cgi-bin/n" + std::to_string(n) + "?i=" + std::to_string(i % 500);
    benchmark::DoNotOptimize(dir->lookup(key));
    if (state.thread_index() == 0 && i % 16 == 0) {
      core::EntryMeta meta;
      meta.key = key;
      meta.owner = n;
      meta.version = 1;
      dir->apply_insert(meta);
    }
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_DirectoryLookup_WholeDirectory(benchmark::State& state) {
  static core::CacheDirectory* dir =
      make_directory(core::LockingMode::kWholeDirectory);
  lookup_loop(state, dir);
}
void BM_DirectoryLookup_PerTable(benchmark::State& state) {
  static core::CacheDirectory* dir =
      make_directory(core::LockingMode::kPerTable);
  lookup_loop(state, dir);
}
void BM_DirectoryLookup_PerEntry(benchmark::State& state) {
  static core::CacheDirectory* dir =
      make_directory(core::LockingMode::kPerEntry);
  lookup_loop(state, dir);
}
void BM_DirectoryLookup_MultiGranularity(benchmark::State& state) {
  static core::CacheDirectory* dir =
      make_directory(core::LockingMode::kMultiGranularity);
  lookup_loop(state, dir);
}

BENCHMARK(BM_DirectoryLookup_WholeDirectory)->Threads(1)->Threads(4)->Threads(8);
BENCHMARK(BM_DirectoryLookup_PerTable)->Threads(1)->Threads(4)->Threads(8);
BENCHMARK(BM_DirectoryLookup_PerEntry)->Threads(1)->Threads(4)->Threads(8);
BENCHMARK(BM_DirectoryLookup_MultiGranularity)->Threads(1)->Threads(4)->Threads(8);

/// Reports lock acquisitions per miss-lookup for each mode (the paper's
/// per-entry objection is about exactly this number).
void BM_LockAcquisitionsPerLookup(benchmark::State& state) {
  const auto mode = static_cast<core::LockingMode>(state.range(0));
  core::CacheDirectory dir(0, 8, mode);
  dir.set_clock(&g_clock);
  for (core::NodeId n = 0; n < 8; ++n) {
    core::EntryMeta meta;
    meta.key = "GET /cgi-bin/k" + std::to_string(n);
    meta.owner = n;
    dir.apply_insert(meta);
  }
  const auto before = dir.stats().lock_acquisitions;
  std::uint64_t lookups = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.lookup("GET /cgi-bin/k7"));  // scans all tables
    ++lookups;
  }
  const auto after = dir.stats().lock_acquisitions;
  state.counters["locks_per_lookup"] =
      lookups ? static_cast<double>(after - before) / static_cast<double>(lookups)
              : 0.0;
}
BENCHMARK(BM_LockAcquisitionsPerLookup)
    ->Arg(static_cast<int>(core::LockingMode::kWholeDirectory))
    ->Arg(static_cast<int>(core::LockingMode::kPerTable))
    ->Arg(static_cast<int>(core::LockingMode::kPerEntry))
    ->Arg(static_cast<int>(core::LockingMode::kMultiGranularity));

// ---- broadcast batching mode (machine-readable JSON) ----

std::uint64_t flag_u64(int argc, char** argv, std::string_view name,
                       std::uint64_t fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() > prefix.size() && arg.compare(0, prefix.size(), prefix) == 0) {
      return std::strtoull(arg.data() + prefix.size(), nullptr, 10);
    }
  }
  return fallback;
}

struct BurstResult {
  std::uint64_t frames_sent = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t batched_broadcasts = 0;
};

/// Broadcasts `inserts` directory updates from node 0 to node 1 over real
/// loopback sockets and reports how many frames the sender wrote.
BurstResult run_burst(cluster::GroupOptions opts, std::uint64_t inserts) {
  auto members = cluster::loopback_members(2);
  cluster::NodeGroup a(0, members, opts);
  cluster::NodeGroup b(1, members, opts);
  if (!a.start().is_ok() || !b.start().is_ok()) {
    std::fprintf(stderr, "group start failed\n");
    std::exit(1);
  }
  members[0].info_addr.port = a.info_port();
  members[0].data_addr.port = a.data_port();
  members[1].info_addr.port = b.info_port();
  members[1].data_addr.port = b.data_port();
  a.set_members(members);
  b.set_members(members);

  for (std::uint64_t i = 0; i < inserts; ++i) {
    core::EntryMeta meta;
    meta.key = "GET /cgi-bin/burst?i=" + std::to_string(i);
    meta.owner = 0;
    meta.size_bytes = 2048;
    meta.version = i + 1;
    a.broadcast_insert(meta);
  }

  // Quiesce: the backlog must drain, the receiver must have applied the
  // whole burst (updates_received counts the HELLO greeting too), and the
  // sender-side frame counter must have gone stable.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::uint64_t last_frames = 0;
  for (;;) {
    const auto stats = a.stats();
    if (a.outbound_backlog() == 0 &&
        b.stats().updates_received >= inserts &&
        stats.frames_sent == last_frames && stats.frames_sent != 0) {
      break;
    }
    last_frames = stats.frames_sent;
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "burst did not quiesce\n");
      std::exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  BurstResult result;
  const auto stats = a.stats();
  result.frames_sent = stats.frames_sent;
  result.batched_broadcasts = stats.batched_broadcasts;
  result.updates_received = b.stats().updates_received;
  a.stop();
  b.stop();
  return result;
}

int run_batch_bench(int argc, char** argv) {
  const std::uint64_t inserts = flag_u64(argc, argv, "--inserts", 1000);

  cluster::GroupOptions unbatched;
  unbatched.batch_max_messages = 1;
  const BurstResult off = run_burst(unbatched, inserts);

  cluster::GroupOptions batched;
  batched.batch_max_messages = 64;
  const BurstResult on = run_burst(batched, inserts);

  std::printf(
      "{\"bench\": \"batch_bench\", \"inserts\": %llu, "
      "\"frames_sent_unbatched\": %llu, \"updates_received_unbatched\": %llu, "
      "\"frames_sent_batched\": %llu, \"updates_received_batched\": %llu, "
      "\"batched_broadcasts\": %llu}\n",
      static_cast<unsigned long long>(inserts),
      static_cast<unsigned long long>(off.frames_sent),
      static_cast<unsigned long long>(off.updates_received),
      static_cast<unsigned long long>(on.frames_sent),
      static_cast<unsigned long long>(on.updates_received),
      static_cast<unsigned long long>(on.batched_broadcasts));
  return 0;
}

// ---- record memory mode (machine-readable JSON) ----

/// Heap bytes in use (allocated chunks, malloc headers included).
std::size_t heap_in_use() { return mallinfo2().uordblks; }

/// Heap bytes one record costs in a directory built with `mode`.
double bytes_per_record(core::LockingMode mode, std::uint64_t records) {
  constexpr std::size_t kNodes = 4;
  core::CacheDirectory dir(0, kNodes, mode);
  dir.set_clock(&g_clock);
  const std::size_t before = heap_in_use();
  for (std::uint64_t i = 0; i < records; ++i) {
    core::EntryMeta meta;
    meta.key = "GET /cgi-bin/adl/query?session=browse&qid=" + std::to_string(i);
    meta.owner = static_cast<core::NodeId>(i % kNodes);
    meta.size_bytes = 4096;
    meta.cost_seconds = 0.05;
    meta.insert_time = static_cast<TimeNs>(i);
    meta.version = i + 1;
    dir.apply_insert(meta);
  }
  const std::size_t after = heap_in_use();
  return static_cast<double>(after - before) / static_cast<double>(records);
}

int run_memory(int argc, char** argv) {
  const std::uint64_t records = flag_u64(argc, argv, "--records", 20000);
  if (records == 0) {
    std::fprintf(stderr, "--records must be positive\n");
    return 1;
  }
  std::printf("{\"bench\": \"directory_memory\", \"records\": %llu, "
              "\"bytes_per_record\": {",
              static_cast<unsigned long long>(records));
  const core::LockingMode modes[] = {
      core::LockingMode::kWholeDirectory, core::LockingMode::kPerTable,
      core::LockingMode::kPerEntry, core::LockingMode::kMultiGranularity};
  for (std::size_t m = 0; m < std::size(modes); ++m) {
    std::printf("%s\"%s\": %.1f", m == 0 ? "" : ", ",
                core::locking_mode_name(modes[m]),
                bytes_per_record(modes[m], records));
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--batch_bench") {
      return run_batch_bench(argc, argv);
    }
    if (std::string_view(argv[i]) == "--memory") return run_memory(argc, argv);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

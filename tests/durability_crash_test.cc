// Kill-restart durability test with real processes: a swalad node with a
// disk-backed, checkpointed cache is SIGKILLed mid-burst (no signal handler
// can run — the hard-crash case), restarted over the same cache directory,
// and must come back serving every checkpointed entry byte-for-byte while
// its peer relearns the surviving entries over the cluster protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "http/client.h"
#include "net/socket.h"

#ifndef SWALA_SWALAD_PATH
#define SWALA_SWALAD_PATH "./swalad"
#endif

namespace swala {
namespace {

const std::string kRoot = "/tmp/swala_durability_crash_test";

std::uint16_t grab_free_port() {
  auto listener = net::TcpListener::listen({"127.0.0.1", 0});
  EXPECT_TRUE(listener.is_ok());
  return listener.value().local_port();
}

void write_file(const std::string& path, const std::string& content,
                bool executable = false) {
  std::ofstream out(path);
  out << content;
  out.close();
  if (executable) ::chmod(path.c_str(), 0755);
}

/// Extracts the integer after `"name": ` in the status JSON; -1 if absent.
long long json_value(const std::string& body, const std::string& name) {
  const std::string needle = "\"" + name + "\": ";
  const auto pos = body.find(needle);
  if (pos == std::string::npos) return -1;
  return std::atoll(body.c_str() + pos + needle.size());
}

/// Parameterized over the cache store backend: the whole SIGKILL battery
/// runs once against the one-file-per-entry store and once against the
/// log-structured volume, so both recovery paths face real hard crashes.
class CrashRestartTest : public ::testing::TestWithParam<std::string> {
 protected:
  bool volume_mode() const { return GetParam() == "volume"; }

  void SetUp() override {
    std::filesystem::remove_all(kRoot);
    std::filesystem::create_directories(kRoot + "/cgi-bin");
    write_file(kRoot + "/cgi-bin/lookup",
               "#!/bin/sh\n"
               "sleep 0.01\n"
               "printf 'Content-Type: text/plain\\n\\nresult for %s\\n' \"$QUERY_STRING\"\n",
               /*executable=*/true);
    // Slow program for the drain-under-load test: still executing when the
    // node is asked to shut down.
    write_file(kRoot + "/cgi-bin/slow",
               "#!/bin/sh\n"
               "sleep 0.6\n"
               "printf 'Content-Type: text/plain\\n\\nslow %s\\n' \"$QUERY_STRING\"\n",
               /*executable=*/true);
    for (auto& port : ports_) port = grab_free_port();
    for (int node = 0; node < 2; ++node) {
      const std::string cache_dir = kRoot + "/cache" + std::to_string(node);
      std::string conf;
      conf += "[server]\n";
      conf += "port = " + std::to_string(ports_[node]) + "\n";
      conf += "threads = 4\n";
      conf += "admin = true\n";
      conf += "cgi_dir = " + kRoot + "/cgi-bin\n";
      conf += "[cache]\nenabled = true\nmax_entries = 200\n";
      conf += "disk_dir = " + cache_dir + "\n";
      conf += "store = " + GetParam() + "\n";
      if (volume_mode()) {
        conf += "volume_bytes = 16777216\n";      // 64 slots of 256 KiB
        conf += "segment_bytes = 262144\n";
        conf += "write_buffer_bytes = 16384\n";
        conf += "flush_interval_ms = 20\n";
      }
      conf += "state_file = " + cache_dir + "/manifest.txt\n";
      conf += "purge_interval = 0.1\n";
      conf += "checkpoint_interval = 0.2\n";
      conf += "[cacheability]\nrule = /cgi-bin/* cache\ndefault = nocache\n";
      conf += "[cluster]\n";
      conf += "node_id = " + std::to_string(node) + "\n";
      conf += "member = 0 127.0.0.1 " + std::to_string(ports_[2]) + " " +
              std::to_string(ports_[4]) + "\n";
      conf += "member = 1 127.0.0.1 " + std::to_string(ports_[3]) + " " +
              std::to_string(ports_[5]) + "\n";
      write_file(conf_path(node), conf);
      spawn(node);
    }
    for (int node = 0; node < 2; ++node) {
      ASSERT_TRUE(wait_for_http(ports_[node])) << "node did not start";
    }
  }

  void TearDown() override {
    for (const pid_t pid : pids_) {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
      }
    }
    std::filesystem::remove_all(kRoot);
  }

  std::string conf_path(int node) const {
    return kRoot + "/node" + std::to_string(node) + ".conf";
  }

  void spawn(int node) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      const char* binary = SWALA_SWALAD_PATH;
      const std::string conf = conf_path(node);
      ::execl(binary, binary, conf.c_str(), nullptr);
      _exit(127);
    }
    pids_[node] = pid;
  }

  void kill_hard(int node) {
    ASSERT_GT(pids_[node], 0);
    ::kill(pids_[node], SIGKILL);
    int status = 0;
    ::waitpid(pids_[node], &status, 0);
    pids_[node] = -1;
  }

  static bool wait_for_http(std::uint16_t port) {
    for (int i = 0; i < 300; ++i) {
      auto conn = net::TcpStream::connect({"127.0.0.1", port}, 200);
      if (conn.is_ok()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  /// Polls node `node`'s /swala-status until `predicate(body)` holds.
  template <typename Pred>
  bool wait_for_status(int node, Pred predicate, int attempts = 250) {
    http::HttpClient client({"127.0.0.1", ports_[node]});
    for (int i = 0; i < attempts; ++i) {
      auto resp = client.get("/swala-status");
      if (resp.is_ok() && predicate(resp.value().body)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  std::size_t count_cache_files(int node, const std::string& ext) {
    std::size_t n = 0;
    const std::string dir = kRoot + "/cache" + std::to_string(node);
    if (!std::filesystem::exists(dir)) return 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ext) ++n;
    }
    return n;
  }

  std::array<std::uint16_t, 6> ports_{};  ///< 2 http, 2 info, 2 data
  std::array<pid_t, 2> pids_{-1, -1};
};

TEST_P(CrashRestartTest, SigkillMidBurstThenRecover) {
  constexpr int kEntries = 20;
  http::HttpClient node0({"127.0.0.1", ports_[0]});

  // Populate: 20 distinct cacheable results on node 0.
  for (int i = 0; i < kEntries; ++i) {
    auto resp = node0.get("/cgi-bin/lookup?item=" + std::to_string(i));
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    ASSERT_EQ(resp.value().status, 200);
  }

  // Wait for a checkpoint that happened strictly after the whole burst, so
  // the on-disk manifest is guaranteed to reference all 20 entries.
  long long burst_checkpoints = -1;
  ASSERT_TRUE(wait_for_status(0, [&](const std::string& body) {
    burst_checkpoints = json_value(body, "checkpoints");
    return json_value(body, "cache_entries") >= kEntries &&
           burst_checkpoints >= 1;
  })) << "node 0 never checkpointed the burst";
  ASSERT_TRUE(wait_for_status(0, [&](const std::string& body) {
    return json_value(body, "checkpoints") > burst_checkpoints;
  })) << "no post-burst checkpoint";

  // A second burst is in flight when the node is SIGKILLed: some of these
  // writes land, some tear. No handler runs; only durable state survives.
  std::thread burst([&] {
    http::HttpClient client({"127.0.0.1", ports_[0]});
    for (int i = 100; i < 140; ++i) {
      auto resp = client.get("/cgi-bin/lookup?item=" + std::to_string(i));
      if (!resp.is_ok()) break;  // the node just died mid-burst; expected
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  kill_hard(0);
  burst.join();

  // Restart over the same cache directory and wait for the warm restore.
  spawn(0);
  ASSERT_TRUE(wait_for_http(ports_[0])) << "node 0 did not restart";
  ASSERT_TRUE(wait_for_status(0, [&](const std::string& body) {
    return json_value(body, "cache_entries") >= kEntries;
  })) << "restarted node did not restore the checkpointed entries";

  // The durability report is exposed and internally consistent, and the
  // scrub left no temp debris behind.
  http::HttpClient restarted({"127.0.0.1", ports_[0]});
  auto status = restarted.get("/swala-status");
  ASSERT_TRUE(status.is_ok());
  const std::string& body = status.value().body;
  EXPECT_NE(body.find("\"durability\""), std::string::npos);
  EXPECT_GE(json_value(body, "scrub_adopted"), kEntries);
  EXPECT_GE(json_value(body, "scrub_quarantined"), 0);
  EXPECT_GE(json_value(body, "scrub_temps_removed"), 0);
  EXPECT_EQ(json_value(body, "store_degraded"), 0);
  EXPECT_EQ(count_cache_files(0, ".tmp"), 0u);
  if (volume_mode()) {
    // One preallocated file holds everything; no per-entry files exist.
    EXPECT_NE(body.find("\"store_backend\": \"volume\""), std::string::npos);
    EXPECT_EQ(count_cache_files(0, ".cache"), 0u);
    EXPECT_TRUE(std::filesystem::exists(kRoot + "/cache0/volume.swala"));
  } else {
    // Every restored entry is exactly one verified file.
    EXPECT_NE(body.find("\"store_backend\": \"files\""), std::string::npos);
    EXPECT_EQ(static_cast<long long>(count_cache_files(0, ".cache")),
              json_value(body, "cache_entries"));
  }

  // Every checkpointed entry serves its exact bytes as a local hit on the
  // very first touch — restored from disk, CRC-verified, not re-executed.
  for (int i = 0; i < kEntries; ++i) {
    auto resp = restarted.get("/cgi-bin/lookup?item=" + std::to_string(i));
    ASSERT_TRUE(resp.is_ok());
    EXPECT_EQ(resp.value().headers.get("X-Swala-Cache"), "hit-local")
        << "item " << i << " was lost in the crash";
    EXPECT_NE(
        resp.value().body.find("result for item=" + std::to_string(i)),
        std::string::npos);
  }

  // The peer relearns the survivors over the cluster protocol (the restore
  // re-broadcast / resync) and serves them without executing anything.
  http::HttpClient node1({"127.0.0.1", ports_[1]});
  bool shared = false;
  std::string shared_state;
  for (int i = 0; i < 150 && !shared; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto resp = node1.get("/cgi-bin/lookup?item=7");
    ASSERT_TRUE(resp.is_ok());
    const auto state = resp.value().headers.get("X-Swala-Cache");
    if (state == "hit-remote" || state == "hit-local") {
      shared = true;
      EXPECT_NE(resp.value().body.find("result for item=7"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(shared) << "peer never served the restored entry from cache";
}

TEST_P(CrashRestartTest, SigtermDrainsInFlightRequestsBeforeExit) {
  // Three requests are mid-CGI (0.6 s each) when SIGTERM lands. The
  // graceful-drain path must let every one of them finish with a real
  // response, then save the manifest and exit cleanly — not cut them off.
  constexpr int kInFlight = 3;
  std::atomic<int> ok200{0};
  std::vector<std::thread> inflight;
  inflight.reserve(kInFlight);
  for (int i = 0; i < kInFlight; ++i) {
    inflight.emplace_back([this, i, &ok200] {
      http::HttpClient client({"127.0.0.1", ports_[0]}, 10000);
      const auto resp = client.get("/cgi-bin/slow?req=" + std::to_string(i));
      if (resp.is_ok() && resp.value().status == 200 &&
          resp.value().body.find("slow req=" + std::to_string(i)) !=
              std::string::npos) {
        ok200.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  ASSERT_EQ(::kill(pids_[0], SIGTERM), 0);
  for (auto& t : inflight) t.join();
  EXPECT_EQ(ok200.load(), kInFlight) << "drain cut an in-flight request";

  // The process exited of its own accord with status 0 (drain -> manifest
  // save -> stop), not via our TearDown SIGKILL.
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pids_[0], &wstatus, 0), pids_[0]);
  EXPECT_TRUE(WIFEXITED(wstatus));
  if (WIFEXITED(wstatus)) {
    EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  }
  pids_[0] = -1;
}

TEST_P(CrashRestartTest, RepeatedKillRestartLoop) {
  constexpr int kEntries = 10;
  {
    http::HttpClient node0({"127.0.0.1", ports_[0]});
    for (int i = 0; i < kEntries; ++i) {
      auto resp = node0.get("/cgi-bin/lookup?loop=" + std::to_string(i));
      ASSERT_TRUE(resp.is_ok());
    }
  }
  ASSERT_TRUE(wait_for_status(0, [&](const std::string& body) {
    return json_value(body, "cache_entries") >= kEntries &&
           json_value(body, "checkpoints") >= 1;
  }));
  // Give the post-populate checkpoint a moment to include every entry.
  const long long seen = [&] {
    http::HttpClient c({"127.0.0.1", ports_[0]});
    auto r = c.get("/swala-status");
    return r.is_ok() ? json_value(r.value().body, "checkpoints") : 0LL;
  }();
  ASSERT_TRUE(wait_for_status(0, [&](const std::string& body) {
    return json_value(body, "checkpoints") > seen;
  }));

  for (int round = 0; round < 10; ++round) {
    kill_hard(0);
    spawn(0);
    ASSERT_TRUE(wait_for_http(ports_[0]))
        << "node did not come back in round " << round;
    ASSERT_TRUE(wait_for_status(0, [&](const std::string& body) {
      return json_value(body, "cache_entries") >= kEntries;
    })) << "entries lost in round " << round;
    // Spot-check one entry each round: correct bytes, served from cache.
    http::HttpClient client({"127.0.0.1", ports_[0]});
    auto resp =
        client.get("/cgi-bin/lookup?loop=" + std::to_string(round % kEntries));
    ASSERT_TRUE(resp.is_ok());
    EXPECT_EQ(resp.value().headers.get("X-Swala-Cache"), "hit-local");
    EXPECT_EQ(count_cache_files(0, ".tmp"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Stores, CrashRestartTest,
                         ::testing::Values("files", "volume"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

}  // namespace
}  // namespace swala

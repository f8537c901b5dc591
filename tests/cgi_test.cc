// Tests for the CGI layer: document parsing, scripted handlers, registry
// dispatch, and real fork/exec execution of the bundled nullcgi program.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cgi/handler.h"
#include "cgi/process.h"
#include "cgi/registry.h"
#include "cgi/scripted.h"
#include "core/manager.h"
#include "http/message.h"

#ifndef SWALA_NULLCGI_PATH
#define SWALA_NULLCGI_PATH "./nullcgi"
#endif

namespace swala::cgi {
namespace {

http::Request make_request(const std::string& target) {
  http::Request req;
  req.method = http::Method::kGet;
  req.target = target;
  EXPECT_TRUE(http::parse_uri(target, &req.uri));
  return req;
}

// ---- parse_cgi_document ----

TEST(CgiDocumentTest, HeaderBlockParsed) {
  const auto out = parse_cgi_document(
      "Content-Type: text/plain\nStatus: 404 Not Found\n\nbody text", 0);
  EXPECT_TRUE(out.success);
  EXPECT_EQ(out.content_type, "text/plain");
  EXPECT_EQ(out.http_status, 404);
  EXPECT_EQ(out.body, "body text");
}

TEST(CgiDocumentTest, CrlfHeaders) {
  const auto out =
      parse_cgi_document("Content-Type: image/gif\r\n\r\nGIF89a...", 0);
  EXPECT_EQ(out.content_type, "image/gif");
  EXPECT_EQ(out.body, "GIF89a...");
}

TEST(CgiDocumentTest, NoHeadersTreatedAsBody) {
  const auto out = parse_cgi_document("just output\n\nwith blank line", 0);
  EXPECT_EQ(out.content_type, "text/html");
  EXPECT_EQ(out.body, "just output\n\nwith blank line");
}

TEST(CgiDocumentTest, NonZeroExitIsFailure) {
  const auto out = parse_cgi_document("Content-Type: text/html\n\nx", 3);
  EXPECT_FALSE(out.success);
}

TEST(CgiDocumentTest, EmptyOutput) {
  const auto out = parse_cgi_document("", 0);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(out.body.empty());
}

TEST(CgiDocumentTest, BogusStatusIgnored) {
  const auto out = parse_cgi_document("Status: banana\n\nx", 0);
  EXPECT_EQ(out.http_status, 200);
}

// ---- ScriptedCgi ----

TEST(ScriptedCgiTest, DeterministicOutputForSameTarget) {
  ScriptedOptions opts;
  opts.output_bytes = 256;
  ScriptedCgi cgi(opts);
  const auto req = make_request("/cgi-bin/x?q=1");
  auto a = cgi.run(req);
  auto b = cgi.run(req);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  // Bodies differ only in the execution counter comment line.
  EXPECT_EQ(a.value().body.substr(a.value().body.find('\n')),
            b.value().body.substr(b.value().body.find('\n')));
  EXPECT_EQ(cgi.execution_count(), 2u);
}

TEST(ScriptedCgiTest, DifferentTargetsDifferentBodies) {
  ScriptedCgi cgi(ScriptedOptions{.output_bytes = 128});
  auto a = cgi.run(make_request("/cgi-bin/x?q=1"));
  auto b = cgi.run(make_request("/cgi-bin/x?q=2"));
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_NE(a.value().body, b.value().body);
}

TEST(ScriptedCgiTest, OutputSizeRespected) {
  ScriptedCgi cgi(ScriptedOptions{.output_bytes = 1000});
  auto out = cgi.run(make_request("/cgi-bin/big"));
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().body.size(), 1000u);
}

TEST(ScriptedCgiTest, SleepModeTakesTime) {
  ScriptedOptions opts;
  opts.mode = ComputeMode::kSleep;
  opts.service_seconds = 0.05;
  ScriptedCgi cgi(opts);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(cgi.run(make_request("/cgi-bin/slow")).is_ok());
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed.count(), 0.045);
}

TEST(ScriptedCgiTest, BusyModeTakesTime) {
  ScriptedOptions opts;
  opts.mode = ComputeMode::kBusy;
  opts.service_seconds = 0.02;
  ScriptedCgi cgi(opts);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(cgi.run(make_request("/cgi-bin/busy")).is_ok());
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed.count(), 0.015);
}

TEST(ScriptedCgiTest, CostFromQueryOverrides) {
  ScriptedOptions opts;
  opts.mode = ComputeMode::kSleep;
  opts.service_seconds = 10.0;  // would time the test out if used
  opts.cost_from_query = true;
  ScriptedCgi cgi(opts);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(cgi.run(make_request("/cgi-bin/q?cost=0.01")).is_ok());
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 1.0);
}

TEST(ScriptedCgiTest, FailureMode) {
  ScriptedCgi cgi(ScriptedOptions{.fail = true});
  auto out = cgi.run(make_request("/cgi-bin/broken"));
  ASSERT_TRUE(out.is_ok());
  EXPECT_FALSE(out.value().success);
  EXPECT_EQ(out.value().http_status, 500);
}

TEST(DeterministicBodyTest, SeedAndLength) {
  EXPECT_EQ(deterministic_body(1, 64), deterministic_body(1, 64));
  EXPECT_NE(deterministic_body(1, 64), deterministic_body(2, 64));
  EXPECT_EQ(deterministic_body(9, 500).size(), 500u);
}

TEST(LambdaCgiTest, WrapsCallable) {
  LambdaCgi cgi([](const http::Request& req) -> swala::Result<CgiOutput> {
    CgiOutput out;
    out.success = true;
    out.body = "echo:" + req.uri.raw_query;
    return out;
  });
  auto out = cgi.run(make_request("/cgi-bin/echo?x=1"));
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().body, "echo:x=1");
}

TEST(LambdaCgiTest, PropagatesErrors) {
  LambdaCgi cgi([](const http::Request&) -> swala::Result<CgiOutput> {
    return swala::Status(swala::StatusCode::kInternal, "backend down");
  });
  auto out = cgi.run(make_request("/cgi-bin/x"));
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), swala::StatusCode::kInternal);
}

// ---- registry ----

TEST(RegistryTest, ExactAndPrefixMounts) {
  HandlerRegistry registry;
  auto a = std::make_shared<ScriptedCgi>(ScriptedOptions{});
  auto b = std::make_shared<ScriptedCgi>(ScriptedOptions{});
  registry.mount("/cgi-bin/", a);
  registry.mount("/cgi-bin/special", b);

  EXPECT_EQ(registry.find("/cgi-bin/anything"), a);
  EXPECT_EQ(registry.find("/cgi-bin/special"), b);  // longest match wins
  EXPECT_EQ(registry.find("/static/x.html"), nullptr);
  EXPECT_TRUE(registry.is_dynamic("/cgi-bin/q"));
  EXPECT_FALSE(registry.is_dynamic("/cgi-bin"));  // prefix requires the '/'
  EXPECT_EQ(registry.size(), 2u);
}

TEST(RegistryTest, RemountReplaces) {
  HandlerRegistry registry;
  auto a = std::make_shared<ScriptedCgi>(ScriptedOptions{});
  auto b = std::make_shared<ScriptedCgi>(ScriptedOptions{});
  registry.mount("/x", a);
  registry.mount("/x", b);
  EXPECT_EQ(registry.find("/x"), b);
  EXPECT_EQ(registry.size(), 1u);
}

// ---- ProcessCgi (real fork/exec) ----

/// Writes an executable `#!/bin/sh` script with `body` to `path`.
bool write_script(const std::string& path, const std::string& body) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fputs(("#!/bin/sh\n" + body).c_str(), f);
  fclose(f);
  return chmod(path.c_str(), 0755) == 0;
}

TEST(ProcessCgiTest, RunsNullCgi) {
  ProcessCgi cgi(SWALA_NULLCGI_PATH);
  auto out = cgi.run(make_request("/cgi-bin/null?x=1"));
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_TRUE(out.value().success);
  EXPECT_EQ(out.value().content_type, "text/html");
  EXPECT_NE(out.value().body.find("null cgi"), std::string::npos);
}

TEST(ProcessCgiTest, MissingExecutableFails) {
  ProcessCgi cgi("/nonexistent/program");
  auto out = cgi.run(make_request("/cgi-bin/x"));
  // fork+exec succeeds at fork level; the child exits 127.
  ASSERT_TRUE(out.is_ok());
  EXPECT_FALSE(out.value().success);
}

TEST(ProcessCgiTest, EnvironmentReachesChild) {
  // /bin/sh -c style program is overkill; use a tiny shell script.
  const std::string script = "/tmp/swala_test_cgi_env.sh";
  ASSERT_TRUE(write_script(
      script,
      "printf 'Content-Type: text/plain\\n\\nQ=%s M=%s\\n' "
      "\"$QUERY_STRING\" \"$REQUEST_METHOD\"\n"));
  ProcessCgi cgi(script);
  auto out = cgi.run(make_request("/cgi-bin/env?alpha=beta"));
  ASSERT_TRUE(out.is_ok());
  EXPECT_TRUE(out.value().success);
  EXPECT_NE(out.value().body.find("Q=alpha=beta"), std::string::npos);
  EXPECT_NE(out.value().body.find("M=GET"), std::string::npos);
  unlink(script.c_str());
}

TEST(ProcessCgiTest, TimeoutKillsChild) {
  const std::string script = "/tmp/swala_test_cgi_sleep.sh";
  ASSERT_TRUE(write_script(script, "sleep 30\n"));
  ProcessOptions opts;
  opts.timeout_seconds = 0.2;
  ProcessCgi cgi(script, opts);
  const auto start = std::chrono::steady_clock::now();
  auto out = cgi.run(make_request("/cgi-bin/sleep"));
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(out.is_ok());
  EXPECT_FALSE(out.value().success);
  EXPECT_EQ(out.value().http_status, 504);
  EXPECT_LT(elapsed.count(), 5.0);
  unlink(script.c_str());
}

// ---- failure paths: exec errors, runaway children, failed executions ----

TEST(ProcessCgiTest, ExecFailureReportsExit127) {
  ProcessOptions opts;
  auto result = run_cgi_process("/nonexistent/program",
                                make_request("/cgi-bin/x"), opts);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().exit_code, 127);  // shell convention: exec failed
  EXPECT_FALSE(result.value().timed_out);
  EXPECT_FALSE(result.value().oversized);
}

TEST(ProcessCgiTest, TimeoutFlagSetAndNotConfusedWithOversize) {
  const std::string script = "/tmp/swala_test_cgi_hang.sh";
  ASSERT_TRUE(write_script(script, "sleep 30\n"));
  ProcessOptions opts;
  opts.timeout_seconds = 0.2;
  auto result = run_cgi_process(script, make_request("/cgi-bin/hang"), opts);
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(result.value().timed_out);
  EXPECT_FALSE(result.value().oversized);
  unlink(script.c_str());
}

TEST(ProcessCgiTest, OversizedOutputKilledAndFails) {
  // A child that writes forever: without the output cap + SIGKILL it would
  // run until the 30s default deadline. The cap must fire fast.
  const std::string script = "/tmp/swala_test_cgi_flood.sh";
  ASSERT_TRUE(write_script(
      script, "while :; do printf 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx'; done\n"));
  ProcessOptions opts;
  opts.max_output_bytes = 64 * 1024;
  const auto start = std::chrono::steady_clock::now();
  auto result = run_cgi_process(script, make_request("/cgi-bin/flood"), opts);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(result.value().oversized);
  EXPECT_FALSE(result.value().timed_out);  // distinct failure modes
  EXPECT_LT(elapsed.count(), 5.0);

  // And through the handler: a 500, not a 504, and never a success.
  ProcessCgi cgi(script, opts);
  auto out = cgi.run(make_request("/cgi-bin/flood"));
  ASSERT_TRUE(out.is_ok());
  EXPECT_FALSE(out.value().success);
  EXPECT_EQ(out.value().http_status, 500);
  unlink(script.c_str());
}

/// True while `pid` exists and is not a zombie.
bool process_alive(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return false;
  const auto paren = line.rfind(')');
  return paren != std::string::npos && paren + 2 < line.size() &&
         line[paren + 2] != 'Z';
}

/// Process ids (zombies excluded) whose process group is `pgid`.
std::vector<pid_t> live_group_members(pid_t pgid) {
  std::vector<pid_t> members;
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream stat(entry.path() / "stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    const auto paren = line.rfind(')');
    if (paren == std::string::npos) continue;
    std::istringstream fields(line.substr(paren + 2));
    char state = 0;
    long ppid = 0, pgrp = 0;
    fields >> state >> ppid >> pgrp;
    if (pgrp == pgid && state != 'Z') members.push_back(std::stoi(name));
  }
  return members;
}

TEST(ProcessCgiTest, FastRunsDoNotWaitForConcurrentSlowCgi) {
  // A CGI forked while another request's pipes are open must not inherit
  // them: if it did, that request would see EOF only when the unrelated
  // child exits, so a fast CGI would take as long as a concurrent slow one.
  // The inheritance window is one fork wide, so several slow CGIs start
  // while fast ones run back to back.
  const std::string fast = "/tmp/swala_test_cgi_fast.sh";
  const std::string slow = "/tmp/swala_test_cgi_slow.sh";
  ASSERT_TRUE(write_script(
      fast, "printf 'Content-Type: text/plain\\n\\nfast'\n"));
  ASSERT_TRUE(write_script(
      slow, "sleep 2\nprintf 'Content-Type: text/plain\\n\\nslow'\n"));
  ProcessOptions opts;
  std::atomic<bool> slow_done{false};
  std::atomic<int> fast_runs{0};
  std::mutex mutex;
  double worst_fast = 0.0;
  std::vector<std::thread> fast_threads;
  for (int t = 0; t < 4; ++t) {
    fast_threads.emplace_back([&] {
      while (!slow_done.load()) {
        const auto start = std::chrono::steady_clock::now();
        auto result =
            run_cgi_process(fast, make_request("/cgi-bin/fast"), opts);
        const std::chrono::duration<double> took =
            std::chrono::steady_clock::now() - start;
        EXPECT_TRUE(result.is_ok());
        fast_runs.fetch_add(1);
        std::lock_guard<std::mutex> lock(mutex);
        worst_fast = std::max(worst_fast, took.count());
      }
    });
  }
  std::vector<std::thread> slow_threads;
  for (int t = 0; t < 8; ++t) {
    slow_threads.emplace_back([&, t] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50 + 37 * t));
      auto result = run_cgi_process(slow, make_request("/cgi-bin/slow"), opts);
      EXPECT_TRUE(result.is_ok());
    });
  }
  for (auto& thread : slow_threads) thread.join();
  slow_done = true;
  for (auto& thread : fast_threads) thread.join();
  EXPECT_GT(fast_runs.load(), 3);
  EXPECT_LT(worst_fast, 0.5)
      << "a fast CGI waited for a concurrent slow one's exit";
  unlink(fast.c_str());
  unlink(slow.c_str());
}

TEST(ProcessCgiTest, TimeoutKillsBackgroundedDescendants) {
  // The CGI backgrounds a long sleep and then hangs on it. The timeout kill
  // must reach the whole process group, not just the direct child, or the
  // sleep outlives the request (and holds every inherited descriptor).
  const std::string script = "/tmp/swala_test_cgi_bgsleep.sh";
  ASSERT_TRUE(write_script(script, "sleep 30 &\necho \"$$ $!\"\nwait\n"));
  ProcessOptions opts;
  opts.timeout_seconds = 0.5;
  auto result = run_cgi_process(script, make_request("/cgi-bin/bg"), opts);
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(result.value().timed_out);
  std::istringstream ids(result.value().stdout_data);
  pid_t group = 0, sleeper = 0;
  ASSERT_TRUE(ids >> group >> sleeper) << result.value().stdout_data;

  // SIGKILL is asynchronous for the grandchild: allow it a moment to die.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while ((process_alive(sleeper) || !live_group_members(group).empty()) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_FALSE(process_alive(sleeper)) << "backgrounded sleep survived";
  EXPECT_TRUE(live_group_members(group).empty());
  if (process_alive(sleeper)) ::kill(sleeper, SIGKILL);
  unlink(script.c_str());
}

TEST(ProcessCgiTest, NonzeroExitMeansFailureOutput) {
  const std::string script = "/tmp/swala_test_cgi_exit3.sh";
  ASSERT_TRUE(write_script(
      script, "printf 'Content-Type: text/plain\\n\\npartial'\nexit 3\n"));
  ProcessCgi cgi(script);
  auto out = cgi.run(make_request("/cgi-bin/exit3"));
  ASSERT_TRUE(out.is_ok());
  EXPECT_FALSE(out.value().success);
  unlink(script.c_str());
}

// Failed executions must never be cached: the manager's complete() drops
// unsuccessful outputs (Figure 2 only caches valid documents).
TEST(ProcessCgiTest, FailedExecutionIsNotCached) {
  core::ManagerOptions mo;
  mo.limits = {100, 0};
  core::RuleDecision d;
  d.cacheable = true;
  mo.rules.add_rule("/cgi-bin/*", d);
  mo.negative_ttl_seconds = 0.0;  // the retry below must re-execute
  core::CacheManager manager(0, 1, std::move(mo), RealClock::instance());

  const auto req = make_request("/cgi-bin/broken");
  auto lookup = manager.lookup(req.method, req.uri, Deadline());
  ASSERT_EQ(lookup.outcome, core::LookupOutcome::kMissMustExecute);

  ProcessCgi cgi("/nonexistent/program");
  auto out = cgi.run(req);
  ASSERT_TRUE(out.is_ok());
  ASSERT_FALSE(out.value().success);
  manager.complete(req.method, req.uri, lookup.rule, out.value(), 1.0);

  EXPECT_EQ(manager.store().entry_count(), 0u);
  EXPECT_EQ(manager.stats().inserts, 0u);
  EXPECT_EQ(manager.stats().failed_exec, 1u);
  // Next lookup is still a miss — nothing was poisoned into the cache.
  EXPECT_EQ(manager.lookup(req.method, req.uri, Deadline()).outcome,
            core::LookupOutcome::kMissMustExecute);
}

TEST(ProcessCgiTest, ChildStderrDoesNotReachServerStderr) {
  // A CGI's diagnostics must not land in the server's own stderr. Point
  // this process's fd 2 at a pipe while the CGI writes to its stderr:
  // nothing may arrive there.
  const std::string script = "/tmp/swala_test_cgi_stderr.sh";
  ASSERT_TRUE(write_script(
      script, "echo noise >&2\nprintf 'Content-Type: text/plain\\n\\nok'\n"));
  int capture[2];
  ASSERT_EQ(::pipe2(capture, O_CLOEXEC), 0);
  const int saved_stderr = ::dup(STDERR_FILENO);
  ::dup2(capture[1], STDERR_FILENO);
  ::close(capture[1]);
  ProcessCgi cgi(script);
  auto out = cgi.run(make_request("/cgi-bin/stderr"));
  ::dup2(saved_stderr, STDERR_FILENO);
  ::close(saved_stderr);

  // Every write end is closed again, so the read ends at EOF.
  std::string leaked;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(capture[0], buf, sizeof(buf))) > 0) {
    leaked.append(buf, static_cast<std::size_t>(n));
  }
  ::close(capture[0]);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().body, "ok");
  EXPECT_EQ(leaked, "");
  unlink(script.c_str());
}

TEST(ProcessCgiTest, BodyPipedToStdin) {
  const std::string script = "/tmp/swala_test_cgi_stdin.sh";
  ASSERT_TRUE(
      write_script(script, "printf 'Content-Type: text/plain\\n\\n'\ncat\n"));
  ProcessCgi cgi(script);
  http::Request req = make_request("/cgi-bin/echo");
  req.method = http::Method::kPost;
  req.body = "posted payload";
  auto out = cgi.run(req);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().body, "posted payload");
  unlink(script.c_str());
}

}  // namespace
}  // namespace swala::cgi

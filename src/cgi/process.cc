#include "cgi/process.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>

#include "common/logging.h"
#include "net/fd.h"

namespace swala::cgi {
namespace {

/// Builds the RFC 3875 environment block for a request.
std::vector<std::string> build_env(const http::Request& request,
                                   const std::string& executable,
                                   const ProcessOptions& options) {
  std::vector<std::string> env;
  env.push_back("GATEWAY_INTERFACE=CGI/1.1");
  env.push_back("SERVER_SOFTWARE=swala/1.0");
  env.push_back(std::string("SERVER_PROTOCOL=") +
                http::version_name(request.version));
  env.push_back(std::string("REQUEST_METHOD=") +
                http::method_name(request.method));
  env.push_back("SCRIPT_NAME=" + request.uri.path);
  env.push_back("SCRIPT_FILENAME=" + executable);
  env.push_back("QUERY_STRING=" + request.uri.raw_query);
  if (!request.body.empty()) {
    env.push_back("CONTENT_LENGTH=" + std::to_string(request.body.size()));
    if (const auto ct = request.headers.get("Content-Type")) {
      env.push_back("CONTENT_TYPE=" + std::string(*ct));
    }
  }
  if (const auto host = request.headers.get("Host")) {
    env.push_back("HTTP_HOST=" + std::string(*host));
  }
  env.push_back("PATH=/usr/bin:/bin");
  for (const auto& [key, value] : options.extra_env) {
    env.push_back(key + "=" + value);
  }
  return env;
}

}  // namespace

Result<ProcessResult> run_cgi_process(const std::string& executable,
                                      const http::Request& request,
                                      const ProcessOptions& options) {
  // Everything the child needs is built here, before the fork: between
  // fork and exec a child of a multithreaded server may only make
  // async-signal-safe calls, and allocation is not one of them.
  const auto env_strings = build_env(request, executable, options);
  std::vector<char*> envp;
  envp.reserve(env_strings.size() + 1);
  for (const auto& e : env_strings) envp.push_back(const_cast<char*>(e.c_str()));
  envp.push_back(nullptr);
  char* argv[] = {const_cast<char*>(executable.c_str()), nullptr};

  // The child's stderr is discarded rather than shared with the server.
  const net::UniqueFd dev_null(::open("/dev/null", O_WRONLY | O_CLOEXEC));
  if (!dev_null.valid()) {
    return Status(StatusCode::kIoError,
                  std::string("open /dev/null: ") + std::strerror(errno));
  }

  // Close-on-exec: a CGI forked concurrently by another request thread
  // must not inherit these ends, or this request's EOF would wait for that
  // unrelated child to exit. dup2 onto stdin/stdout clears the flag.
  int in_pipe[2];   // parent -> child stdin
  int out_pipe[2];  // child stdout -> parent
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) {
    return Status(StatusCode::kIoError, std::string("pipe: ") + std::strerror(errno));
  }
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return Status(StatusCode::kIoError, std::string("pipe: ") + std::strerror(errno));
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) ::close(fd);
    return Status(StatusCode::kResourceExhausted,
                  std::string("fork: ") + std::strerror(errno));
  }

  if (pid == 0) {
    // Child: lead a process group of its own, so a kill reaches everything
    // the CGI spawns; then wire pipes and /dev/null to stdio and exec. The
    // originals are close-on-exec.
    ::setpgid(0, 0);
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(dev_null.get(), STDERR_FILENO);
    ::execve(executable.c_str(), argv, envp.data());
    _exit(127);  // exec failed
  }

  // Parent. Set the group here too, so a kill cannot race the child's own
  // setpgid.
  ::setpgid(pid, pid);
  net::UniqueFd child_stdin(in_pipe[1]);
  net::UniqueFd child_stdout(out_pipe[0]);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);

  // Write the request body, then close to signal EOF.
  if (!request.body.empty()) {
    std::size_t off = 0;
    while (off < request.body.size()) {
      const ssize_t n = ::write(child_stdin.get(), request.body.data() + off,
                                request.body.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // child may have exited without reading; not fatal
      }
      off += static_cast<std::size_t>(n);
    }
  }
  child_stdin.reset();

  ProcessResult result;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(options.timeout_seconds);
  char buf[64 * 1024];
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      result.timed_out = true;
      break;
    }
    pollfd pfd{child_stdout.get(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (rc == 0) {
      result.timed_out = true;
      break;
    }
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const ssize_t n = ::read(child_stdout.get(), buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // EOF: child closed stdout
    result.stdout_data.append(buf, static_cast<std::size_t>(n));
    if (result.stdout_data.size() > options.max_output_bytes) {
      result.oversized = true;
      break;
    }
  }

  // Timeout (including a clamped request deadline) or oversize: kill the
  // whole group, so no backgrounded descendant outlives the request.
  if (result.timed_out || result.oversized) ::kill(-pid, SIGKILL);
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(wstatus)) {
    result.exit_code = WEXITSTATUS(wstatus);
  } else {
    result.exit_code = -1;
  }
  return result;
}

ProcessCgi::ProcessCgi(std::string executable, ProcessOptions options)
    : executable_(std::move(executable)), options_(std::move(options)) {}

Result<CgiOutput> ProcessCgi::run(const http::Request& request) {
  return run(request, Deadline());
}

Result<CgiOutput> ProcessCgi::run(const http::Request& request,
                                  const Deadline& deadline) {
  ProcessOptions effective = options_;
  if (!deadline.unlimited()) {
    effective.timeout_seconds =
        std::min(effective.timeout_seconds,
                 std::max(0.001, deadline.remaining_seconds()));
  }
  auto result = run_cgi_process(executable_, request, effective);
  if (!result) return result.status();
  const auto& proc = result.value();
  if (proc.timed_out) {
    CgiOutput out;
    out.success = false;
    out.http_status = 504;
    out.body = "CGI timeout\n";
    return out;
  }
  if (proc.oversized) {
    CgiOutput out;
    out.success = false;
    out.http_status = 500;
    out.body = "CGI output exceeded limit\n";
    return out;
  }
  return parse_cgi_document(proc.stdout_data, proc.exit_code);
}

}  // namespace swala::cgi

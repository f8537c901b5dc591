// TCP sockets — the transport under both the HTTP server and the
// inter-node cluster protocol. IPv4 only (the original Swala testbed was an
// IPv4 Ethernet LAN; nothing here needs more).
//
// Streams are blocking with SO_*TIMEO timeouts by default (the thread-per-
// connection servers); set_nonblocking() plus the *_nb / write_some_vec
// calls serve the epoll reactor, which must never park a thread in a
// syscall on behalf of one connection.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/fd.h"

namespace swala::net {

/// IPv4 address + port.
struct InetAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  std::string to_string() const { return host + ":" + std::to_string(port); }

  bool operator==(const InetAddress&) const = default;
};

/// A connected TCP stream. Move-only; closes on destruction.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(UniqueFd fd) : fd_(std::move(fd)) {}

  /// Connects with a timeout (milliseconds; <=0 means OS default blocking).
  /// The timeout is measured against a monotonic start, so signals that
  /// interrupt the internal poll never extend it.
  static Result<TcpStream> connect(const InetAddress& addr,
                                   int timeout_ms = 5000);

  [[nodiscard]] bool valid() const { return fd_.valid(); }
  [[nodiscard]] int raw_fd() const { return fd_.get(); }

  /// Disables Nagle; important for the small cluster-protocol messages.
  Status set_no_delay(bool on);

  /// SO_RCVTIMEO / SO_SNDTIMEO in milliseconds. 0 means unlimited (the same
  /// idiom as Deadline: 0 disables the budget, it never means "already
  /// expired"); negative values are clamped to unlimited rather than handed
  /// to setsockopt as a negative timeval (EINVAL). The configured value is
  /// remembered so the read/write retry loops can bound the *total* time of
  /// an operation even when signals (EINTR) restart the syscall with a
  /// fresh kernel timeout. set_send_timeout makes no syscall when the
  /// value is already in force.
  Status set_recv_timeout(int timeout_ms);
  Status set_send_timeout(int timeout_ms);

  /// O_NONBLOCK. After this, prefer read_nb()/write_some_vec(); the
  /// blocking-style calls would spin EAGAIN into kTimeout.
  Status set_nonblocking(bool on);

  /// Reads at most `len` bytes. Returns 0 on orderly peer close.
  Result<std::size_t> read_some(char* buf, std::size_t len);

  /// Non-blocking read: like read_some but EAGAIN yields kWouldBlock
  /// (re-arm the fd in the poller) instead of kTimeout.
  Result<std::size_t> read_nb(char* buf, std::size_t len);

  /// Reads exactly `len` bytes or fails (kClosed on early EOF).
  Status read_exact(char* buf, std::size_t len);

  /// Writes the entire buffer or fails.
  Status write_all(std::string_view data);

  /// Writes `head` then `body` as one vectored write (sendmsg), so a
  /// response goes out without concatenating header and body into a fresh
  /// buffer. Either view may be empty. Same failure contract as write_all.
  Status write_vec(std::string_view head, std::string_view body);

  /// One vectored write attempt for non-blocking fds: returns the number of
  /// bytes the kernel accepted (possibly 0 across both views), kWouldBlock
  /// when the socket buffer is full, kClosed on peer reset. The caller
  /// advances its own offsets and re-arms EPOLLOUT on kWouldBlock.
  Result<std::size_t> write_some_vec(std::string_view head,
                                     std::string_view body);

  /// Half-close of the write side (signals EOF to the peer).
  Status shutdown_write();

  void close() { fd_.reset(); }

 private:
  UniqueFd fd_;
  // Configured SO_*TIMEO values (0 = unlimited), kept so the retry loops can
  // enforce the budget across EINTR restarts. The send value starts at -1
  // (not set here: the fd's own value is unknown), so the first
  // set_send_timeout always reaches the kernel.
  int recv_timeout_ms_ = 0;
  int send_timeout_ms_ = -1;
};

/// A listening TCP socket.
class TcpListener {
 public:
  /// Binds and listens. Port 0 picks an ephemeral port (see `local_port`).
  static Result<TcpListener> listen(const InetAddress& addr, int backlog = 128);

  /// Accepts one connection; blocks up to `timeout_ms` (-1 = forever).
  /// Returns kTimeout if nothing arrived, kClosed if the listener was shut.
  Result<TcpStream> accept(int timeout_ms = -1);

  /// Non-blocking accept for the reactor: the returned stream is already
  /// non-blocking and close-on-exec. kWouldBlock when the backlog is empty,
  /// kClosed when the listener was shut.
  Result<TcpStream> try_accept();

  /// O_NONBLOCK on the listening socket (reactor mode).
  Status set_nonblocking(bool on);

  [[nodiscard]] int raw_fd() const { return fd_.get(); }
  [[nodiscard]] std::uint16_t local_port() const { return port_; }
  [[nodiscard]] bool valid() const { return fd_.valid(); }
  void close() { fd_.reset(); }

 private:
  UniqueFd fd_;
  std::uint16_t port_ = 0;
};

/// Waits until `fd` is readable; true on readable, false on timeout.
/// `timeout_ms` < 0 waits forever. Signals that interrupt the poll re-enter
/// it with the *remaining* time (recomputed from a monotonic start), so a
/// signal storm cannot stretch the wait past its budget.
bool wait_readable(int fd, int timeout_ms);

}  // namespace swala::net

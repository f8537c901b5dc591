// ExecGate: a counting semaphore over CGI execution. The paper's Figure 3
// shows per-request CGI overhead (fork/exec) dominating service time; under
// a miss burst, unbounded concurrent forks degrade into a fork storm. The
// gate caps concurrent executions; queue-wait counts against the caller's
// request deadline, so a request that cannot get a slot in time fails fast
// (the server sheds it with 503) instead of piling onto an overloaded box.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/clock.h"
#include "common/deadline.h"
#include "common/status.h"

namespace swala::cgi {

struct ExecGateStats {
  std::uint64_t queue_waits = 0;     ///< acquisitions that had to queue
  std::uint64_t queue_timeouts = 0;  ///< gave up: deadline expired in queue
  std::uint64_t active = 0;          ///< slots currently held (gauge)
  std::uint64_t waiting = 0;         ///< callers currently queued (gauge)
};

class ExecGate {
 public:
  /// `max_concurrent` of 0 means unlimited (the gate becomes a no-op).
  explicit ExecGate(std::size_t max_concurrent)
      : max_concurrent_(max_concurrent) {}

  ExecGate(const ExecGate&) = delete;
  ExecGate& operator=(const ExecGate&) = delete;

  /// Blocks until a slot is free or `deadline` expires. Returns kOk when a
  /// slot was acquired (release() must follow), kTimeout when the deadline
  /// ran out while queued. The wait polls in short slices so a ManualClock
  /// advanced by a test is noticed without any real-time dependence on it.
  Status acquire(const Deadline& deadline) {
    if (max_concurrent_ == 0) return Status::ok();
    std::unique_lock<std::mutex> lock(mutex_);
    if (stats_.active < max_concurrent_) {
      ++stats_.active;
      return Status::ok();
    }
    ++stats_.queue_waits;
    ++stats_.waiting;
    while (stats_.active >= max_concurrent_) {
      if (deadline.expired()) {
        --stats_.waiting;
        ++stats_.queue_timeouts;
        return Status(StatusCode::kTimeout, "CGI concurrency gate full");
      }
      const int slice_ms =
          deadline.unlimited() ? 50 : std::min(50, deadline.budget_ms(50));
      slot_free_.wait_for(lock, std::chrono::milliseconds(slice_ms));
    }
    --stats_.waiting;
    ++stats_.active;
    return Status::ok();
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stats_.active > 0) --stats_.active;
    }
    slot_free_.notify_one();
  }

  ExecGateStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  std::size_t capacity() const { return max_concurrent_; }

 private:
  const std::size_t max_concurrent_;
  mutable std::mutex mutex_;
  std::condition_variable slot_free_;
  ExecGateStats stats_;  // guarded by mutex_
};

/// RAII slot: acquires on construction, releases on destruction.
class ExecSlot {
 public:
  ExecSlot(ExecGate* gate, const Deadline& deadline) : gate_(gate) {
    if (gate_ != nullptr) status_ = gate_->acquire(deadline);
  }
  ~ExecSlot() {
    if (gate_ != nullptr && status_.is_ok()) gate_->release();
  }
  ExecSlot(const ExecSlot&) = delete;
  ExecSlot& operator=(const ExecSlot&) = delete;

  const Status& status() const { return status_; }
  bool acquired() const { return status_.is_ok(); }

 private:
  ExecGate* gate_;
  Status status_ = Status::ok();
};

}  // namespace swala::cgi

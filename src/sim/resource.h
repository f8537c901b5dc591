// FCFS single-server resource (one node's CPU). Work is queued in arrival
// order; the completion callback fires when the job's service finishes.
#pragma once

#include <algorithm>

#include "sim/engine.h"

namespace swala::sim {

class FcfsResource {
 public:
  explicit FcfsResource(SimEngine* engine) : engine_(engine) {}

  /// Enqueues a job needing `service_seconds`; `done` fires at completion.
  void submit(double service_seconds, SimEngine::Callback done) {
    const double start = std::max(engine_->now(), busy_until_);
    busy_until_ = start + service_seconds;
    busy_seconds_ += service_seconds;
    ++jobs_;
    engine_->schedule_at(busy_until_, std::move(done));
  }

  /// Total service time processed (for utilization).
  double busy_seconds() const { return busy_seconds_; }
  std::uint64_t jobs() const { return jobs_; }

  double utilization(double elapsed) const {
    return elapsed > 0 ? busy_seconds_ / elapsed : 0.0;
  }

 private:
  SimEngine* engine_;
  double busy_until_ = 0.0;
  double busy_seconds_ = 0.0;
  std::uint64_t jobs_ = 0;
};

}  // namespace swala::sim

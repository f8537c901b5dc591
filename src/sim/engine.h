// Deterministic discrete-event engine. Single-threaded: events fire in
// timestamp order (FIFO within a timestamp). A ManualClock mirrors virtual
// time so the production cache/directory code (which takes a Clock*) runs
// unmodified inside the simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>

#include "common/clock.h"

namespace swala::sim {

class SimEngine {
 public:
  using Callback = std::function<void()>;

  SimEngine() = default;

  /// Current virtual time in seconds.
  double now() const { return now_; }

  /// Clock view of virtual time for cache code.
  const Clock* clock() const { return &clock_; }

  /// Schedules `fn` at absolute virtual time `t` (>= now).
  void schedule_at(double t, Callback fn);

  /// Schedules `fn` `dt` seconds from now (dt >= 0).
  void schedule_in(double dt, Callback fn) { schedule_at(now_ + dt, std::move(fn)); }

  /// Runs events until the queue is empty.
  void run();

  /// Runs events with time <= `t_end`; leaves later events queued.
  void run_until(double t_end);

  std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    double time;
    std::uint64_t seq;  ///< FIFO tie-break
    Callback fn;

    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  void advance_to(double t);

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  ManualClock clock_;
};

}  // namespace swala::sim

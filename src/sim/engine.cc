#include "sim/engine.h"

#include <cassert>
#include <utility>

namespace swala::sim {

void SimEngine::schedule_at(double t, Callback fn) {
  if (t < now_) t = now_;  // clamp; events cannot fire in the past
  queue_.push(Event{t, next_seq_++, std::move(fn)});
}

void SimEngine::advance_to(double t) {
  now_ = t;
  clock_.set(from_seconds(t));
}

void SimEngine::run() {
  while (!queue_.empty()) {
    // priority_queue::top returns const&; the callback must be moved out
    // before pop, so copy the POD fields and const_cast the functor.
    Event event = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    advance_to(event.time);
    event.fn();
  }
}

void SimEngine::run_until(double t_end) {
  while (!queue_.empty() && queue_.top().time <= t_end) {
    Event event = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    advance_to(event.time);
    event.fn();
  }
  if (now_ < t_end) advance_to(t_end);
}

}  // namespace swala::sim

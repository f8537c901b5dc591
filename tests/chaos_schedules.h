// Chaos schedules shared by the chaos-harness tests and the substrate
// golden pins, so both run exactly the same scenario.
#pragma once

#include <string>
#include <utility>

#include "chaos/chaos.h"

namespace swala::chaos {

inline ChaosAction at(double t, ActionKind kind, core::NodeId node,
                      std::string key_or_pattern = "") {
  ChaosAction a;
  a.at_seconds = t;
  a.kind = kind;
  a.node = node;
  a.key_or_pattern = std::move(key_or_pattern);
  return a;
}

/// Membership churn scenario: node 3 starts outside the active set and
/// caches one entry stand-alone, joins mid-run (its pre-join entry must
/// become visible to the cluster), then node 0 decommissions gracefully —
/// handing its entries to ring successors — and an invalidation sweeps the
/// namespace under the post-churn membership.
inline ChaosSchedule churn_schedule() {
  ChaosSchedule s;
  s.nodes = 4;
  s.seed = 97;
  s.duration_seconds = 5.0;
  s.anti_entropy_interval_seconds = 1.0;
  s.slack_seconds = 0.5;
  s.initial_active = {0, 1, 2};
  s.actions.push_back(at(0.1, ActionKind::kInsert, 0, "/cgi-bin/churn/a"));
  s.actions.push_back(at(0.15, ActionKind::kInsert, 1, "/cgi-bin/churn/b"));
  s.actions.push_back(at(0.2, ActionKind::kInsert, 2, "/cgi-bin/churn/c"));
  s.actions.push_back(at(0.5, ActionKind::kInsert, 3, "/cgi-bin/churn/d"));
  s.actions.push_back(at(1.0, ActionKind::kJoinNode, 3));
  s.actions.push_back(at(1.5, ActionKind::kInsert, 3, "/cgi-bin/churn/e"));
  s.actions.push_back(at(2.0, ActionKind::kDecommissionNode, 0));
  s.actions.push_back(at(2.5, ActionKind::kInsert, 1, "/cgi-bin/churn/f"));
  s.actions.push_back(
      at(3.0, ActionKind::kInvalidate, 1, "GET /cgi-bin/churn/a*"));
  return s;
}

}  // namespace swala::chaos

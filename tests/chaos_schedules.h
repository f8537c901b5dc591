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

/// The anti-entropy acceptance scenario: three nodes each cache a key under
/// one namespace; node 0's sends of kInvalidate to node 2 are dropped 100%;
/// node 0 invalidates the namespace. Node 2 keeps serving its stale copy
/// until the anti-entropy layer pulls the missed invalidation.
inline ChaosSchedule drop_storm_schedule(double anti_entropy_interval) {
  ChaosSchedule s;
  s.nodes = 3;
  s.seed = 7;
  s.duration_seconds = 5.0;
  s.anti_entropy_interval_seconds = anti_entropy_interval;
  s.slack_seconds = 0.5;
  s.actions.push_back(at(0.1, ActionKind::kInsert, 0, "/cgi-bin/acc/a"));
  s.actions.push_back(at(0.15, ActionKind::kInsert, 1, "/cgi-bin/acc/b"));
  s.actions.push_back(at(0.2, ActionKind::kInsert, 2, "/cgi-bin/acc/c"));
  ChaosAction storm = at(0.5, ActionKind::kAddFault, 0);
  storm.rule.peer = 2;
  storm.rule.type = cluster::MsgType::kInvalidate;
  storm.rule.kind = cluster::FaultKind::kDrop;
  storm.rule.probability = 1.0;
  s.actions.push_back(storm);
  s.actions.push_back(
      at(1.0, ActionKind::kInvalidate, 0, "GET /cgi-bin/acc/*"));
  return s;
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

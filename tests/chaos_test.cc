// Chaos-harness tests: determinism of the sim substrate, the broken-oracle
// self-check (the oracle must be falsifiable), the acceptance scenario from
// the anti-entropy work (a 100% kInvalidate drop storm to one peer repairs
// within one anti-entropy round — and demonstrably does NOT with the repair
// layer disabled), duplicate-replay idempotency, the cluster protocol's
// decoder, membership checks, breaker and announcements running in virtual
// time, short live-TCP runs, and the sim-vs-live differential check.
#include <gtest/gtest.h>

#include <string>

#include "chaos/chaos.h"
#include "chaos_schedules.h"

namespace swala::chaos {
namespace {

TEST(ChaosSimTest, SameSeedSameScheduleIsByteDeterministic) {
  const ChaosSchedule schedule = make_random_schedule(42, 3, 6.0);
  const ChaosVerdict first = run_sim_chaos(schedule);
  const ChaosVerdict second = run_sim_chaos(schedule);
  EXPECT_EQ(first.passed, second.passed);
  EXPECT_EQ(first.log_text(), second.log_text());
  EXPECT_EQ(first.violations, second.violations);
  EXPECT_EQ(first.repair_frames, second.repair_frames);
  EXPECT_EQ(first.repair_bytes, second.repair_bytes);
  EXPECT_EQ(first.gaps_repaired, second.gaps_repaired);
  EXPECT_FALSE(first.log.empty());

  // A different seed must actually change the scenario (the generator is
  // seed-driven, not constant).
  const ChaosVerdict other = run_sim_chaos(make_random_schedule(43, 3, 6.0));
  EXPECT_NE(first.log_text(), other.log_text());
}

TEST(ChaosSimTest, BrokenOracleFailsOnAHealthyRun) {
  // No faults at all — yet "instant consistency" is an impossible claim
  // under nonzero propagation delay, so the oracle MUST fail. Guards
  // against a vacuous checker that never fires.
  ChaosSchedule s;
  s.nodes = 3;
  s.seed = 11;
  s.duration_seconds = 3.0;
  s.actions.push_back(at(0.1, ActionKind::kInsert, 0, "/cgi-bin/acc/a"));
  s.actions.push_back(at(0.15, ActionKind::kInsert, 1, "/cgi-bin/acc/b"));
  s.actions.push_back(at(1.0, ActionKind::kInvalidate, 0, "GET /cgi-bin/acc/*"));

  OracleOptions broken;
  broken.expect_instant_consistency = true;
  const ChaosVerdict verdict = run_sim_chaos(s, broken);
  EXPECT_FALSE(verdict.passed);
  EXPECT_FALSE(verdict.violations.empty());

  // The same run under the real bounded-staleness deadline passes.
  EXPECT_TRUE(run_sim_chaos(s).passed);
}

TEST(ChaosSimTest, DropStormRepairedWithinOneAntiEntropyRound) {
  const ChaosVerdict verdict = run_sim_chaos(drop_storm_schedule(1.0));
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_GE(verdict.gaps_repaired, 1u)
      << "node 2 must have pulled the dropped invalidation";
  EXPECT_GE(verdict.stale_serves_prevented, 1u);
  EXPECT_GE(verdict.anti_entropy_rounds, 1u);
  EXPECT_GT(verdict.repair_frames, 0u);
  EXPECT_GT(verdict.repair_bytes, 0u);

  // The stale window existed (node 2 held the dead entry for a while) but
  // closed before the deadline.
  bool saw_window = false;
  for (const auto& w : verdict.staleness_windows) {
    if (w.node == 2 && !w.violation) saw_window = true;
    EXPECT_FALSE(w.violation) << w.key;
  }
  EXPECT_TRUE(saw_window) << "expected a transient stale window on node 2";
}

TEST(ChaosSimTest, DisabledAntiEntropyReproducesStaleServeUntilTtl) {
  // Same scenario, repair layer off: node 2 serves the stale entry past
  // every deadline and the final directory state never reconverges.
  const ChaosVerdict verdict = run_sim_chaos(drop_storm_schedule(0.0));
  EXPECT_FALSE(verdict.passed);
  EXPECT_EQ(verdict.gaps_repaired, 0u);
  bool stale_on_node_2 = false;
  for (const auto& w : verdict.staleness_windows) {
    if (w.node == 2 && w.violation) stale_on_node_2 = true;
  }
  EXPECT_TRUE(stale_on_node_2) << verdict.log_text();
}

TEST(ChaosSimTest, DuplicateRepliesAreIdempotent) {
  // Every frame node 0 and node 1 send is delivered twice; version and
  // epoch guards must make the copies no-ops, so the run stays consistent.
  ChaosSchedule s;
  s.nodes = 3;
  s.seed = 21;
  s.duration_seconds = 4.0;
  for (int n = 0; n < 2; ++n) {
    ChaosAction dup = at(0.05, ActionKind::kAddFault,
                         static_cast<core::NodeId>(n));
    dup.rule.kind = cluster::FaultKind::kDuplicate;
    dup.rule.probability = 1.0;
    s.actions.push_back(dup);
  }
  s.actions.push_back(at(0.2, ActionKind::kInsert, 0, "/cgi-bin/dup/a"));
  s.actions.push_back(at(0.3, ActionKind::kInsert, 1, "/cgi-bin/dup/b"));
  s.actions.push_back(at(0.4, ActionKind::kInsert, 2, "/cgi-bin/dup/c"));
  s.actions.push_back(at(1.0, ActionKind::kInvalidate, 0, "GET /cgi-bin/dup/a*"));
  s.actions.push_back(at(1.5, ActionKind::kInvalidate, 1, "GET /cgi-bin/dup/b*"));

  const ChaosVerdict verdict = run_sim_chaos(s);
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
}

TEST(ChaosSimTest, CrashedNodeRejoinDropsEntriesInvalidatedWhilePartitioned) {
  // The rejoin-staleness scenario end to end on the sim substrate: node 2
  // crashes with a matching entry in its store, the invalidation fires
  // while it is away, and the rejoin epoch exchange must clean it up.
  ChaosSchedule s;
  s.nodes = 3;
  s.seed = 31;
  s.duration_seconds = 5.0;
  s.actions.push_back(at(0.1, ActionKind::kInsert, 0, "/cgi-bin/rj/a"));
  s.actions.push_back(at(0.2, ActionKind::kInsert, 2, "/cgi-bin/rj/c"));
  s.actions.push_back(at(0.5, ActionKind::kCrash, 2));
  s.actions.push_back(at(1.0, ActionKind::kInvalidate, 0, "GET /cgi-bin/rj/*"));
  s.actions.push_back(at(2.5, ActionKind::kRestart, 2));

  const ChaosVerdict verdict = run_sim_chaos(s);
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_GE(verdict.gaps_repaired, 1u);
  EXPECT_GE(verdict.stale_serves_prevented, 1u);
}

TEST(ChaosSimTest, MembershipChurnJoinThenDecommissionStaysConsistent) {
  const ChaosVerdict verdict = run_sim_chaos(churn_schedule());
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_EQ(verdict.membership_transitions, 2u);
  EXPECT_GE(verdict.handoff_frames, 1u)
      << "the decommission must hand entries to successors";
  EXPECT_GE(verdict.handoffs_adopted, 1u);
  EXPECT_GT(verdict.handoff_bytes, 0u);

  // Churn does not break determinism: same schedule, same byte-for-byte log.
  const ChaosVerdict second = run_sim_chaos(churn_schedule());
  EXPECT_EQ(verdict.log_text(), second.log_text());
  EXPECT_EQ(verdict.handoff_frames, second.handoff_frames);
}

TEST(ChaosSimTest, ChurnUnderDuplicateStormAdoptsEachEntryOnce) {
  // Every frame node 0 sends is delivered twice — including its handoff
  // frames at decommission. The already-cached guard in adopt_entry must
  // make the copies no-ops, so the run stays consistent and the adopted
  // count never exceeds the distinct entries shipped.
  ChaosSchedule s = churn_schedule();
  {
    ChaosAction dup = at(0.05, ActionKind::kAddFault, 0);
    dup.rule.kind = cluster::FaultKind::kDuplicate;
    dup.rule.probability = 1.0;
    s.actions.insert(s.actions.begin(), dup);
  }
  const ChaosVerdict verdict = run_sim_chaos(s);
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_EQ(verdict.membership_transitions, 2u);
  EXPECT_LE(verdict.handoffs_adopted, verdict.handoff_frames);
}

TEST(ChaosSimTest, TornFrameIsRejectedByTheReceiversDecoder) {
  // Every kInsert node 0 sends node 1 is torn mid-frame: the simulator
  // hands the partial bytes to node 1's decoder, which rejects them, and
  // the failed send counts against node 0's breaker — as on TCP.
  ChaosSchedule s;
  s.nodes = 3;
  s.seed = 41;
  s.duration_seconds = 2.0;
  {
    ChaosAction torn = at(0.05, ActionKind::kAddFault, 0);
    torn.rule.peer = 1;
    torn.rule.type = cluster::MsgType::kInsert;
    torn.rule.kind = cluster::FaultKind::kTruncate;
    s.actions.push_back(torn);
  }
  s.actions.push_back(at(0.2, ActionKind::kInsert, 0, "/cgi-bin/torn/a"));
  const ChaosVerdict verdict = run_sim_chaos(s);
  EXPECT_NE(verdict.log_text().find(
                "t=0.210 node 1: frame from node 0 rejected by the decoder"),
            std::string::npos)
      << verdict.log_text();
}

TEST(ChaosSimTest, StragglerDigestFromALeaverFailsTheMembershipCheck) {
  // Node 0's kDigest frames are held up past its decommission: by the time
  // the t=1.0 round's digest lands, the receivers have applied node 0's
  // kDecommission and drop the frame instead of comparing tables.
  ChaosSchedule s = churn_schedule();
  ChaosAction slow = at(0.9, ActionKind::kAddFault, 0);
  slow.rule.type = cluster::MsgType::kDigest;
  slow.rule.kind = cluster::FaultKind::kDelay;
  slow.rule.delay_ms = 1200;
  s.actions.push_back(slow);
  const ChaosVerdict verdict = run_sim_chaos(s);
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_NE(verdict.log_text().find(
                "t=2.210 node 1: ignored kDigest from non-member 0"),
            std::string::npos)
      << verdict.log_text();
}

TEST(ChaosSimTest, PeersLearnOfADecommissionFromItsAnnouncement) {
  // The leaver's kDecommission travels like any frame: peers deactivate it
  // one propagation delay after it hands off, so the t=2.0 digest round
  // (and any broadcast in between) still reaches it.
  const ChaosVerdict verdict = run_sim_chaos(churn_schedule());
  const std::string log = verdict.log_text();
  EXPECT_NE(log.find("t=2.000 node 0: DECOMMISSION"), std::string::npos)
      << log;
  for (const char* peer : {"1", "2", "3"}) {
    EXPECT_NE(log.find(std::string("t=2.010 node ") + peer +
                       ": peer 0 decommissioned (epoch 1)"),
              std::string::npos)
        << peer << "\n"
        << log;
  }
}

TEST(ChaosSimTest, CrashIsFoundByTheBreakerAndRejoinWaitsForAProbe) {
  // Nobody tells the survivors that node 2 crashed: failed sends open their
  // breakers, and the rejoin resync starts with the first HELLO probe that
  // reaches the restarted node (probe cadence 100 ms), not at the restart.
  // Each failure counts once its frame has used up its three attempts (5-20
  // ms of backoff), so the t=2.0 digest round opens the breaker at 2.012
  // and the probes follow from there.
  ChaosSchedule s;
  s.nodes = 3;
  s.seed = 31;
  s.duration_seconds = 5.0;
  s.actions.push_back(at(0.1, ActionKind::kInsert, 0, "/cgi-bin/rj/a"));
  s.actions.push_back(at(0.5, ActionKind::kCrash, 2));
  s.actions.push_back(at(2.58, ActionKind::kRestart, 2));
  const ChaosVerdict verdict = run_sim_chaos(s);
  const std::string log = verdict.log_text();
  EXPECT_TRUE(verdict.passed) << log;
  EXPECT_NE(log.find("t=2.012 node 0: peer 2 marked dead after 2 "
                     "consecutive failures"),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("t=2.650 node 0: peer 2 recovered; requesting resync"),
            std::string::npos)
      << log;
}

TEST(ChaosLiveTest, ScriptedRunOverRealTcpPasses) {
  // Short wall-clock smoke over loopback TCP: inserts, a kInvalidate drop
  // storm against one peer, an invalidation, repair via the real kDigest/
  // kInvSync exchange. Slack is generous — real threads, real timers.
  ChaosSchedule s = drop_storm_schedule(0.4);
  s.duration_seconds = 3.0;
  s.slack_seconds = 2.0;
  const ChaosVerdict verdict = run_live_chaos(s);
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_GE(verdict.gaps_repaired, 1u) << verdict.log_text();
  EXPECT_GE(verdict.anti_entropy_rounds, 1u);
}

TEST(ChaosLiveTest, MembershipChurnOverRealTcpPasses) {
  // The same churn story over loopback TCP: the staged joiner runs the real
  // two-phase kJoin exchange, the decommission ships real kInsert handoff
  // frames and broadcasts kDecommission, and the final oracle runs over the
  // post-churn membership.
  ChaosSchedule s = churn_schedule();
  s.duration_seconds = 4.0;
  s.anti_entropy_interval_seconds = 0.5;
  s.slack_seconds = 2.0;
  const ChaosVerdict verdict = run_live_chaos(s);
  EXPECT_TRUE(verdict.passed) << verdict.log_text();
  EXPECT_EQ(verdict.membership_transitions, 2u);
  EXPECT_GE(verdict.handoff_frames, 1u) << verdict.log_text();
  EXPECT_GE(verdict.handoffs_adopted, 1u);
}

TEST(ChaosLiveTest, SimAndLiveAgreeOnVerdictAndFinalKeys) {
  // One schedule, two shells around the same cluster::Protocol: the
  // verdict and every member's final cached keys must match. What may
  // differ is timing only, so it is not compared:
  //  * log timestamps and the order of same-instant events (wall clock vs
  //    virtual time);
  //  * anti-entropy rounds and repair frames (the live purge loop ticks on
  //    a drifting 50 ms sleep and runs a quiesce tail after the schedule);
  //  * when a gap is repaired within its deadline, and whether it was a
  //    digest round or a HELLO that found it.
  ChaosSchedule drop = drop_storm_schedule(0.4);
  drop.duration_seconds = 3.0;
  drop.slack_seconds = 2.0;
  ChaosSchedule churn = churn_schedule();
  churn.duration_seconds = 4.0;
  churn.anti_entropy_interval_seconds = 0.5;
  churn.slack_seconds = 2.0;
  for (const ChaosSchedule& s : {drop, churn}) {
    const ChaosVerdict sim = run_sim_chaos(s);
    const ChaosVerdict live = run_live_chaos(s);
    EXPECT_EQ(sim.passed, live.passed) << sim.log_text() << live.log_text();
    EXPECT_EQ(sim.member_keys, live.member_keys)
        << sim.log_text() << live.log_text();
    EXPECT_EQ(sim.membership_transitions, live.membership_transitions);
  }
}

}  // namespace
}  // namespace swala::chaos

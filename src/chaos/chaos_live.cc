// Wall-clock chaos driver: the same schedule language executed over a real
// loopback LocalCluster, with faults injected at the TCP transport's send
// side and crash/restart mapped to NodeGroup::stop()/start() (the store
// survives — a partition-like crash, which is exactly the rejoin-staleness
// scenario the repair layer exists for). Timing is real, so verdicts are
// reproducible in outcome but the log is not byte-deterministic; keep
// durations short and slack generous.
#include <algorithm>
#include <chrono>
#include <thread>

#include "chaos/chaos.h"
#include "chaos/internal.h"
#include "cluster/local_cluster.h"

namespace swala::chaos {
namespace {

using core::NodeId;

class LiveHarness final : public detail::Harness {
 public:
  LiveHarness(const ChaosSchedule& s, const OracleOptions& o)
      : Harness(s, o),
        cluster_(
            schedule.nodes,
            [this](NodeId) {
              return detail::chaos_manager_options(schedule);
            },
            RealClock::instance(),
            [this](NodeId id) {
              cluster::GroupOptions go = detail::chaos_group_options(schedule);
              go.fault_injector = injectors[id].get();
              return go;
            }) {}

  ChaosVerdict run() {
    log_header("chaos(live)");
    auto actions = schedule.actions;
    std::stable_sort(actions.begin(), actions.end(),
                     [](const ChaosAction& a, const ChaosAction& b) {
                       return a.at_seconds < b.at_seconds;
                     });
    // Single-threaded driver loop: real time, ~20 ms steps. The tail leaves
    // room for two repair rounds after the last scripted action.
    const double t_end = schedule.duration_seconds +
                         2.0 * schedule.anti_entropy_interval_seconds +
                         schedule.slack_seconds + 1.0;
    std::size_t next_action = 0;
    while (true) {
      const double t = now();
      while (next_action < actions.size() &&
             actions[next_action].at_seconds <= t) {
        apply(actions[next_action]);
        ++next_action;
      }
      poll();
      if (t >= t_end && next_action >= actions.size()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    cluster_.quiesce(5.0);
    poll();

    finish();
    for (std::size_t i = 0; i < schedule.nodes; ++i) {
      const auto gs = cluster_.group(i).stats();
      verdict.anti_entropy_rounds += gs.anti_entropy_rounds;
      verdict.repair_frames +=
          gs.digests_sent + 2 * gs.inv_syncs_pulled + gs.inv_syncs_served;
      verdict.handoff_frames += gs.handoff_frames_sent;
      verdict.handoffs_adopted += gs.handoffs_adopted;
    }
    cluster_.stop();
    return verdict;
  }

 protected:
  double now() const override {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  core::CacheManager& manager(std::size_t node) override {
    return cluster_.manager(node);
  }
  void crash(std::size_t node) override { cluster_.group(node).stop(); }
  Status restart(std::size_t node) override {
    return cluster_.group(node).start();
  }
  Status join(std::size_t node) override {
    return cluster_.group(node).join_cluster();
  }
  core::CacheManager::HandoffStats decommission(std::size_t node) override {
    return cluster_.group(node).decommission();
  }

 private:
  cluster::LocalCluster cluster_;
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

}  // namespace

ChaosVerdict run_live_chaos(const ChaosSchedule& schedule,
                            const OracleOptions& oracle) {
  return LiveHarness(schedule, oracle).run();
}

}  // namespace swala::chaos

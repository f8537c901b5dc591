// Virtual-time chaos driver: the whole scenario runs on the discrete-event
// engine over sim::VirtualBus, so every run of a given schedule is
// bit-for-bit identical — event log included. Each bus runs its node's
// cluster::Protocol, the protocol NodeGroup runs over TCP, so the repair
// exercised here (HELLO epoch piggyback, two-strike digest rounds, kInvSync
// pulls, circuit breaker and probes, recovery resync, join, decommission)
// is the server's; the protocol's events land in the run's log.
#include <memory>

#include "chaos/chaos.h"
#include "chaos/internal.h"
#include "sim/engine.h"
#include "sim/virtual_bus.h"

namespace swala::chaos {
namespace {

using core::NodeId;

constexpr double kDeliveryDelay = 0.01;  ///< virtual propagation latency
constexpr double kPollInterval = 0.05;   ///< staleness probe cadence
constexpr double kTickSeconds = 0.05;    ///< NodeGroup's purge-loop tick

/// One sim run. Single-threaded: only engine callbacks touch it.
class SimHarness final : public detail::Harness {
 public:
  SimHarness(const ChaosSchedule& s, const OracleOptions& o)
      : Harness(s, o) {
    const std::size_t n = schedule.nodes;
    const cluster::GroupOptions group_options =
        detail::chaos_group_options(schedule);
    for (std::size_t i = 0; i < n; ++i) {
      // No request is timed here, so probes carry no latency of their own.
      buses_.push_back(std::make_unique<sim::VirtualBus>(
          &engine_, &buses_, n, static_cast<NodeId>(i), kDeliveryDelay,
          /*probe_latency=*/0.0, injectors[i].get(), &alive, &traffic_,
          group_options));
      buses_[i]->protocol().set_tracer(
          [this](const std::string& line) { log(line); });
      managers_.push_back(std::make_unique<core::CacheManager>(
          static_cast<NodeId>(i), n, detail::chaos_manager_options(schedule),
          engine_.clock(), buses_[i].get()));
      buses_[i]->attach(managers_[i].get());
    }
  }

  ChaosVerdict run() {
    log_header("chaos");
    // Tail: enough for two repair rounds after the last scripted action.
    const double t_end = schedule.duration_seconds +
                         2.0 * schedule.anti_entropy_interval_seconds +
                         schedule.slack_seconds + 0.5;
    for (const auto& action : schedule.actions) {
      engine_.schedule_at(action.at_seconds, [this, action] { apply(action); });
    }
    // The protocols' timers (probes, anti-entropy rounds) on the TCP shell's
    // tick cadence.
    for (int k = 1; k * kTickSeconds < t_end; ++k) {
      engine_.schedule_at(k * kTickSeconds, [this] {
        for (auto& bus : buses_) bus->tick();
      });
    }
    if (oracle.check_bounded_staleness) {
      for (double t = kPollInterval; t < t_end; t += kPollInterval) {
        engine_.schedule_at(t, [this] { poll(); });
      }
    }
    engine_.run();

    finish();
    verdict.repair_frames = traffic_.repair.frames;
    verdict.repair_bytes = traffic_.repair.bytes;
    verdict.handoff_frames = traffic_.handoffs.frames;
    verdict.handoff_bytes = traffic_.handoffs.bytes;
    for (const auto& bus : buses_) {
      const auto& gs = bus->protocol().stats();
      verdict.anti_entropy_rounds += gs.anti_entropy_rounds;
      verdict.handoffs_adopted += gs.handoffs_adopted;
    }
    return verdict;
  }

 protected:
  double now() const override { return engine_.now(); }
  core::CacheManager& manager(std::size_t node) override {
    return *managers_[node];
  }
  // Off the network: the bus fails legs to a down node and drops frames
  // arriving at it; the store survives.
  void crash(std::size_t) override {}
  Status restart(std::size_t node) override {
    buses_[node]->protocol().reset();  // as NodeGroup::start does
    return Status::ok();
  }
  Status join(std::size_t node) override {
    return buses_[node]->join_cluster();
  }
  core::CacheManager::HandoffStats decommission(std::size_t node) override {
    return buses_[node]->decommission();
  }
  void after_invalidate() override {
    // Broken-oracle self-test: probe before the broadcast can land.
    if (oracle.expect_instant_consistency) {
      engine_.schedule_in(kDeliveryDelay / 2, [this] { poll(); });
    }
  }

 private:
  sim::SimEngine engine_;
  sim::VirtualTraffic traffic_;
  sim::BusList buses_;
  sim::ManagerList managers_;
};

}  // namespace

ChaosVerdict run_sim_chaos(const ChaosSchedule& schedule,
                           const OracleOptions& oracle) {
  return SimHarness(schedule, oracle).run();
}

}  // namespace swala::chaos

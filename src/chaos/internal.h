// Shared internals of the two chaos drivers (sim + live): the protocol
// options, event-log stamping, the bounded-staleness probe and the Harness
// that applies a schedule's actions and runs the oracle. Kept out of
// chaos.h — these are implementation details, not harness API.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "cluster/protocol.h"

namespace swala::chaos::detail {

/// The cooperation-protocol options both drivers run a schedule with: a
/// fast breaker and probes, the schedule's anti-entropy cadence, and one
/// update per frame (fault rules target single update types). The live
/// driver adds each node's FaultInjector.
cluster::GroupOptions chaos_group_options(const ChaosSchedule& schedule);

/// The manager options both drivers run a schedule with.
core::ManagerOptions chaos_manager_options(const ChaosSchedule& schedule);

/// `manager`'s resident cache keys, sorted.
std::vector<std::string> sorted_keys(const core::CacheManager& manager);

/// "t=1.250 <text>" — fixed %.3f formatting so the sim substrate's log is
/// byte-deterministic across runs.
std::string stamp(double t, const std::string& text);

/// "%.3f" of a time value (for embedding mid-sentence).
std::string fmt3(double t);

/// One invalidation the oracle is watching.
struct InvalidationTrack {
  std::string pattern;  ///< glob over full cache keys
  double at = 0.0;      ///< origination time (harness clock)
};

/// The bounded-staleness probe: called periodically by both drivers, it
/// scans every live node's store for entries matching a tracked pattern.
/// An observation is a StalenessWindow; one past the node's deadline is a
/// violation. A node's deadline restarts when the node does (a rejoiner is
/// entitled to one repair exchange before its copy must be gone).
struct StalenessProbe {
  double interval = 0.0;  ///< anti-entropy cadence (0 = disabled)
  double slack = 0.5;
  /// Broken-oracle mode: the deadline collapses to ~origination time, so
  /// any propagation delay at all trips it (oracle self-test).
  bool instant = false;

  std::vector<InvalidationTrack> invalidations;
  std::vector<double> restart_at;  ///< per node; < 0 = never restarted

  /// Deadline for `node` to have dropped entries invalidated at `t_inv`.
  double deadline_for(std::size_t node, double t_inv) const;

  /// Scans `nodes` (index = node id; skip when !alive[i]) at harness time
  /// `now`, appending windows/violations to `verdict`. Each (node, key,
  /// invalidation) is reported at most once per phase (seen / violated).
  void poll(double now, const std::vector<const core::CacheManager*>& nodes,
            const std::vector<char>& alive, ChaosVerdict* verdict);

 private:
  std::set<std::string> seen_;
  std::set<std::string> violated_;
};

/// One chaos run's scripted side, shared by both drivers: the per-node
/// fault injectors, the harness's view of who is up and who is a member,
/// the action semantics and the oracle. A driver supplies time and the
/// operations that differ between its substrates.
class Harness {
 public:
  Harness(const ChaosSchedule& schedule, const OracleOptions& oracle);
  virtual ~Harness() = default;

  void log(const std::string& text);
  /// The run's first log line.
  void log_header(const char* label);
  /// Applies one scripted action.
  void apply(const ChaosAction& action);
  /// One bounded-staleness scan (no-op when the oracle skips it).
  void poll();
  /// Final consistency oracle, per-node manager counters and final keys,
  /// then the verdict. The driver adds its protocol counters.
  void finish();

  const ChaosSchedule& schedule;
  const OracleOptions& oracle;
  std::vector<std::unique_ptr<cluster::FaultInjector>> injectors;
  std::vector<char> alive;
  /// Active-membership bookkeeping: nodes outside it are excluded from the
  /// oracle — a joiner has not been admitted yet, a decommissioned leaver
  /// handed its state off.
  std::vector<char> member;
  ChaosVerdict verdict;
  StalenessProbe probe;

 protected:
  virtual double now() const = 0;
  virtual core::CacheManager& manager(std::size_t node) = 0;
  virtual void crash(std::size_t node) = 0;
  virtual Status restart(std::size_t node) = 0;
  virtual Status join(std::size_t node) = 0;
  virtual core::CacheManager::HandoffStats decommission(std::size_t node) = 0;
  /// Called after a node originates an invalidation.
  virtual void after_invalidate() {}

 private:
  /// Live members, index = node id (null = down or not a member).
  std::vector<const core::CacheManager*> checked_nodes();
};

}  // namespace swala::chaos::detail

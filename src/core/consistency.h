// Store↔directory consistency checking.
//
// The commit protocol in CacheManager guarantees that a node's local result
// store and the self-table of its replicated directory always hold exactly
// the same set of keys (the paper's Section 3 invariant: the directory is a
// faithful mirror of each node's cache). `check_store_directory_consistency`
// cross-verifies that membership invariant; it is the machine-checked form
// of the property the cluster soak test asserts after quiesce, and is also
// exposed through CacheManager::debug_check_consistency() and the
// /swala-admin/check-consistency endpoint.
#pragma once

#include <string>
#include <vector>

#include "core/directory.h"
#include "core/store.h"

namespace swala::core {

/// Result of one consistency cross-check between a store and the owning
/// node's directory self-table.
struct ConsistencyReport {
  std::size_t store_entries = 0;      ///< keys in the local store
  std::size_t directory_entries = 0;  ///< keys in the directory self-table
  /// Keys present in the store but absent from the directory self-table.
  std::vector<std::string> missing_in_directory;
  /// Keys present in the directory self-table but absent from the store.
  std::vector<std::string> stale_in_directory;

  bool consistent() const {
    return missing_in_directory.empty() && stale_in_directory.empty();
  }

  /// Human-readable summary for logs and test failure messages.
  std::string to_string() const;
};

/// Compares the store's key set against `directory`'s self-table key set.
/// Membership-based: expired-but-unpurged entries count on both sides (the
/// purge daemon removes them from both under one commit). Callers that need
/// an exact answer must ensure no commit is in flight — CacheManager does so
/// by holding its commit mutex around this call.
ConsistencyReport check_store_directory_consistency(
    const CacheStore& store, const CacheDirectory& directory);

// ---- cluster-wide oracle (anti-entropy / chaos harness) ----

class CacheManager;  // manager.h includes this header; implemented in .cc

/// Cross-node drift: what `viewer`'s directory table for `subject` gets
/// wrong relative to the ground truth (what `subject` actually caches,
/// restricted to the keys `viewer` is responsible for tracking).
struct NodeDrift {
  NodeId viewer = kInvalidNode;
  NodeId subject = kInvalidNode;
  /// Keys `subject` caches (and `viewer` should track) that `viewer`'s
  /// table lacks — lost kInsert/kOwnerUpdate frames (false misses).
  std::vector<std::string> missing;
  /// Keys `viewer`'s table advertises for `subject` that `subject` no
  /// longer caches — lost kErase/kInvalidate frames (false hits, and the
  /// stale-serve hazard the anti-entropy layer exists to repair).
  std::vector<std::string> stale;
};

/// Global oracle verdict over a whole cluster snapshot.
struct ClusterConsistencyReport {
  /// Per-node store↔self-table checks (the local commit invariant).
  std::vector<ConsistencyReport> per_node;
  /// Cross-node directory drift (weak consistency means transient drift is
  /// legal mid-traffic; after quiesce + one anti-entropy round it is not).
  std::vector<NodeDrift> drift;
  /// Membership divergence: nodes whose active member set disagrees with
  /// the rest of the cluster (post-convergence every node must agree on who
  /// is in). Human-readable "node i: {…} != {…}" lines.
  std::vector<std::string> membership_divergence;
  /// Post-transition ownership violations (partitioned mode): a cached key
  /// whose current ring owner is not an active member of the caching
  /// node's own view — its directory record points into the void.
  std::vector<std::string> ownership_violations;

  bool consistent() const {
    for (const auto& r : per_node) {
      if (!r.consistent()) return false;
    }
    return drift.empty() && membership_divergence.empty() &&
           ownership_violations.empty();
  }

  std::string to_string() const;
};

/// Runs the global oracle over every manager in the cluster (index i must
/// be node i; null entries are skipped — a crashed node has no view to
/// check). Each manager's record_holder says who tracks a key: replicated
/// compares every viewer's table[j] against node j's store; partitioned
/// compares viewer i's table[j] against the subset of node j's store that
/// i owns on the ring. Quarantined tables are
/// skipped (a dead peer's table is deliberately stale pending resync).
/// Exactness requires the caller to quiesce traffic first.
///
/// Membership-aware (PR10): a viewer is only held responsible for subjects
/// it considers active, all nodes' active member sets must agree, and in
/// partitioned mode every cached key's ring owner must be an active member
/// (the post-transition ownership invariant — after a join/decommission
/// converges, no directory record may point at a departed owner).
ClusterConsistencyReport check_cluster_consistency(
    const std::vector<const CacheManager*>& managers);

}  // namespace swala::core

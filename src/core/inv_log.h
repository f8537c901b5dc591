// InvalidationLog: epoch-stamped replay log for application-driven
// invalidations (anti-entropy repair layer).
//
// The paper's invalidations are fire-and-forget broadcasts: a kInvalidate
// frame lost to a drop storm, a dead-peer breaker or a partition leaves the
// unlucky node serving the stale entry until TTL, silently. To make that
// loss detectable and repairable, every node stamps the invalidations it
// *originates* with a per-origin monotonic epoch and keeps a bounded FIFO
// replay log of every epoch-stamped invalidation it has *applied* (its own
// and its peers'). Peers exchange epoch vectors (piggybacked on HELLOs and
// the periodic anti-entropy digest); a node whose contiguous floor for some
// origin is below a peer's high-water mark knows it missed an invalidation
// and pulls the gap via kInvSync — from *any* peer that applied it, not
// just the origin, so repair works across partitions and restarts.
//
// Per-origin bookkeeping keeps an exact duplicate filter without unbounded
// memory: `floor` is the largest epoch E such that every epoch <= E has
// been applied; epochs above the floor sit in a (normally tiny) set until
// the hole closes. Epochs start at 1, so epoch 0 is always below the floor
// and never admitted.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/entry.h"

namespace swala::core {

/// One epoch-stamped invalidation, as logged and as shipped over kInvSync.
struct InvalidationRecord {
  NodeId origin = kInvalidNode;  ///< node whose invalidate() call this was
  std::uint64_t epoch = 0;       ///< per-origin monotonic stamp (1-based)
  std::string pattern;           ///< the shell-style key glob invalidated
};

/// Per-origin (high-water or floor) epoch vector, as exchanged on the wire.
using EpochVector = std::vector<std::pair<NodeId, std::uint64_t>>;

class InvalidationLog {
 public:
  /// `max_entries` bounds the replay log; evicting a record a peer still
  /// needs surfaces as `truncated` in entries_after (the peer then falls
  /// back to a conservative full purge).
  explicit InvalidationLog(std::size_t max_entries = 4096);

  /// Stamps a locally originated invalidation with the next epoch for
  /// `origin` (this node), applies it to the duplicate filter and logs it.
  InvalidationRecord originate(NodeId origin, std::string pattern);

  /// Exact duplicate filter for a peer's (or replayed) invalidation.
  /// Returns true when the record is new — the caller must apply it — and
  /// logs it; false when it was already applied (replayed frame: no-op).
  bool admit(const InvalidationRecord& record);

  /// Highest epoch applied per origin (what HELLO/digest advertises).
  EpochVector high_vector() const;

  /// Contiguous floor per origin (what a kInvSync pull asks "after").
  EpochVector floor_vector() const;

  /// True when `peer_high` proves this node may have missed an
  /// invalidation: some origin's advertised high-water mark exceeds our
  /// contiguous floor (either the peer is ahead of us, or we hold a hole
  /// the peer can fill).
  bool behind(const EpochVector& peer_high) const;

  /// Every logged record with an epoch above the requester's floor for its
  /// origin (missing origins count as floor 0), in log order. Sets
  /// `*truncated` when eviction may have discarded a record the requester
  /// has not applied — the requester must then fall back to a full purge.
  std::vector<InvalidationRecord> entries_after(const EpochVector& floors,
                                                bool* truncated) const;

  /// Records currently retained in the replay log.
  std::size_t size() const;

 private:
  struct OriginState {
    std::uint64_t floor = 0;  ///< every epoch <= floor has been applied
    std::uint64_t high = 0;   ///< max epoch applied
    std::set<std::uint64_t> above_floor;  ///< applied epochs > floor (holes)
    std::uint64_t evicted_high = 0;  ///< highest epoch evicted from the log
  };

  /// Applies `record` to the duplicate filter and the log. Caller holds
  /// mutex_. Returns false for an exact duplicate.
  bool admit_locked(const InvalidationRecord& record);

  mutable std::mutex mutex_;
  std::size_t max_entries_;
  std::deque<InvalidationRecord> log_;          // FIFO, bounded
  std::map<NodeId, OriginState> origins_;       // ordered → stable vectors
};

}  // namespace swala::core

// Cache replacement policies. The paper (§3) refers to five replacement
// methods implemented in Swala (detailed in UCSB TR TRCS97-30): we implement
// the five classical candidates that match the attributes it lists —
// "execution time, access frequency, time of access, size" — plus FIFO:
//
//   LRU   — time of access
//   LFU   — access frequency
//   FIFO  — insertion order
//   SIZE  — evict largest first (favours many small results)
//   GDS   — GreedyDual-Size with cost = CGI execution time (Cao & Irani [5],
//           cited by the paper), the "more advanced" method §3 alludes to
//
// A policy is nothing but a rank function over those attributes. CacheStore
// keeps every entry in one (rank, key) index and evicts its first element:
// the least rank goes first, ties broken by key. The store owns the index,
// the capacity checks and the two store-wide inputs in RankClock.
#pragma once

#include <optional>
#include <string_view>

#include "common/status.h"
#include "core/entry.h"

namespace swala::core {

enum class PolicyKind { kLru, kLfu, kFifo, kSize, kGreedyDualSize };

const char* policy_name(PolicyKind kind);

/// Parses "lru", "lfu", "fifo", "size", "gds"/"greedy-dual-size".
Result<PolicyKind> policy_from_name(std::string_view name);

/// The store-wide inputs of a rank.
struct RankClock {
  /// Bumped by the store before every insert and hit, so no two events
  /// share a tick.
  double tick = 0.0;
  /// GreedyDual-Size's L: the rank of the last evicted entry.
  double inflation = 0.0;
};

/// The rank `meta` takes on insert, or on a hit when `current` (its rank
/// before the hit) is given:
///   LRU   the tick of its last insert or hit
///   FIFO  the tick of its insert
///   LFU   access_count
///   SIZE  -size_bytes
///   GDS   L + max(1e-9, cost_seconds) / max(1, size_bytes)
double rank(PolicyKind kind, const EntryMeta& meta, const RankClock& clock,
            std::optional<double> current = std::nullopt);

}  // namespace swala::core

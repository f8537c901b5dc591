#include "core/replacement.h"

#include <algorithm>

#include "common/strings.h"

namespace swala::core {

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLru: return "lru";
    case PolicyKind::kLfu: return "lfu";
    case PolicyKind::kFifo: return "fifo";
    case PolicyKind::kSize: return "size";
    case PolicyKind::kGreedyDualSize: return "gds";
  }
  return "?";
}

Result<PolicyKind> policy_from_name(std::string_view name) {
  const std::string lower = to_lower(trim(name));
  if (lower == "lru") return PolicyKind::kLru;
  if (lower == "lfu") return PolicyKind::kLfu;
  if (lower == "fifo") return PolicyKind::kFifo;
  if (lower == "size") return PolicyKind::kSize;
  if (lower == "gds" || lower == "greedy-dual-size") {
    return PolicyKind::kGreedyDualSize;
  }
  return Status(StatusCode::kInvalidArgument,
                "unknown replacement policy: " + std::string(name));
}

double rank(PolicyKind kind, const EntryMeta& meta, const RankClock& clock,
            std::optional<double> current) {
  switch (kind) {
    case PolicyKind::kLru: return clock.tick;
    case PolicyKind::kFifo: return current.value_or(clock.tick);
    case PolicyKind::kLfu: return static_cast<double>(meta.access_count);
    case PolicyKind::kSize: return -static_cast<double>(meta.size_bytes);
    case PolicyKind::kGreedyDualSize: {
      // Saved time per byte of cache consumed, aged by L: an entry not hit
      // since L passed its rank is the next to go.
      const double size =
          std::max<double>(1.0, static_cast<double>(meta.size_bytes));
      return clock.inflation + std::max(1e-9, meta.cost_seconds) / size;
    }
  }
  return clock.tick;
}

}  // namespace swala::core

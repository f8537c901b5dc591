#include "core/inv_log.h"

namespace swala::core {

InvalidationLog::InvalidationLog(std::size_t max_entries)
    : max_entries_(max_entries > 0 ? max_entries : 1) {}

InvalidationRecord InvalidationLog::originate(NodeId origin,
                                              std::string pattern) {
  std::lock_guard<std::mutex> lock(mutex_);
  InvalidationRecord record;
  record.origin = origin;
  record.epoch = origins_[origin].high + 1;
  record.pattern = std::move(pattern);
  admit_locked(record);
  return record;
}

bool InvalidationLog::admit(const InvalidationRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  return admit_locked(record);
}

bool InvalidationLog::admit_locked(const InvalidationRecord& record) {
  OriginState& st = origins_[record.origin];
  if (record.epoch <= st.floor || st.above_floor.count(record.epoch) != 0) {
    return false;  // exact duplicate: already applied
  }
  st.above_floor.insert(record.epoch);
  while (st.above_floor.count(st.floor + 1) != 0) {
    st.above_floor.erase(st.floor + 1);
    ++st.floor;
  }
  if (record.epoch > st.high) st.high = record.epoch;

  log_.push_back(record);
  while (log_.size() > max_entries_) {
    const InvalidationRecord& evicted = log_.front();
    OriginState& evicted_origin = origins_[evicted.origin];
    if (evicted.epoch > evicted_origin.evicted_high) {
      evicted_origin.evicted_high = evicted.epoch;
    }
    log_.pop_front();
  }
  return true;
}

EpochVector InvalidationLog::high_vector() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EpochVector out;
  out.reserve(origins_.size());
  for (const auto& [origin, st] : origins_) out.emplace_back(origin, st.high);
  return out;
}

EpochVector InvalidationLog::floor_vector() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EpochVector out;
  out.reserve(origins_.size());
  for (const auto& [origin, st] : origins_) out.emplace_back(origin, st.floor);
  return out;
}

bool InvalidationLog::behind(const EpochVector& peer_high) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [origin, peer] : peer_high) {
    if (peer == 0) continue;
    const auto it = origins_.find(origin);
    const std::uint64_t floor = it == origins_.end() ? 0 : it->second.floor;
    // floor < high means we hold a hole a peer at `peer` >= high could
    // fill; peer > high means the peer saw epochs we never did. Both cases
    // reduce to "the peer's high-water mark exceeds our contiguous floor".
    if (peer > floor) return true;
  }
  return false;
}

std::vector<InvalidationRecord> InvalidationLog::entries_after(
    const EpochVector& floors, bool* truncated) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto floor_of = [&floors](NodeId origin) -> std::uint64_t {
    for (const auto& [o, f] : floors) {
      if (o == origin) return f;
    }
    return 0;
  };
  if (truncated != nullptr) {
    *truncated = false;
    // A record evicted from the log above the requester's floor may be one
    // the requester never applied; entries alone cannot repair it.
    for (const auto& [origin, st] : origins_) {
      if (st.evicted_high > floor_of(origin)) {
        *truncated = true;
        break;
      }
    }
  }
  std::vector<InvalidationRecord> out;
  for (const auto& record : log_) {
    if (record.epoch > floor_of(record.origin)) out.push_back(record);
  }
  return out;
}

std::size_t InvalidationLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return log_.size();
}

}  // namespace swala::core

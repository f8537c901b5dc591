#include "core/directory.h"

#include <mutex>

#include "common/strings.h"

namespace swala::core {

const char* locking_mode_name(LockingMode mode) {
  switch (mode) {
    case LockingMode::kWholeDirectory: return "whole-directory";
    case LockingMode::kPerTable: return "per-table";
    case LockingMode::kPerEntry: return "per-entry";
    case LockingMode::kMultiGranularity: return "multi-granularity";
  }
  return "?";
}

const char* directory_mode_name(DirectoryMode mode) {
  switch (mode) {
    case DirectoryMode::kReplicated: return "replicated";
    case DirectoryMode::kPartitioned: return "partitioned";
  }
  return "?";
}

std::optional<DirectoryMode> directory_mode_from_name(std::string_view name) {
  if (name == "replicated") return DirectoryMode::kReplicated;
  if (name == "partitioned") return DirectoryMode::kPartitioned;
  return std::nullopt;
}

CacheDirectory::CacheDirectory(NodeId self, std::size_t num_nodes,
                               LockingMode mode)
    : clock_(RealClock::instance()),
      self_(self),
      mode_(mode),
      quarantined_(num_nodes) {
  tables_.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    tables_.push_back(std::make_unique<Table>());
  }
}

void CacheDirectory::set_quarantined(NodeId node, bool quarantined) {
  if (node >= quarantined_.size() || node == self_) return;
  quarantined_[node].store(quarantined, std::memory_order_release);
}

bool CacheDirectory::quarantined(NodeId node) const {
  if (node >= quarantined_.size()) return false;
  return quarantined_[node].load(std::memory_order_acquire);
}

std::size_t CacheDirectory::clear_table(NodeId node) {
  if (node >= tables_.size()) return 0;
  Table& table = *tables_[node];
  std::unique_lock lock(mode_ == LockingMode::kWholeDirectory ? whole_mutex_
                                                              : table.mutex);
  ++stats_.lock_acquisitions;
  const std::size_t dropped = table.entries.size();
  table.entries.clear();
  stats_.erases += dropped;
  return dropped;
}

CacheDirectory::Record::Record(const EntryMeta& meta)
    : size_bytes(meta.size_bytes),
      cost_seconds(meta.cost_seconds),
      insert_time(meta.insert_time),
      expire_time(meta.expire_time),
      version(meta.version),
      content_type(meta.content_type),
      http_status(meta.http_status) {}

EntryMeta CacheDirectory::Record::meta(const std::string& key,
                                       NodeId owner) const {
  return EntryMeta{.key = key,
                   .owner = owner,
                   .size_bytes = size_bytes,
                   .cost_seconds = cost_seconds,
                   .insert_time = insert_time,
                   .expire_time = expire_time,
                   .content_type = content_type,
                   .http_status = http_status,
                   .version = version};
}

void CacheDirectory::apply_insert(const EntryMeta& meta) {
  if (meta.owner >= tables_.size()) return;
  Table& table = *tables_[meta.owner];
  Record record(meta);

  std::unique_lock lock(mode_ == LockingMode::kWholeDirectory ? whole_mutex_
                                                              : table.mutex);
  ++stats_.lock_acquisitions;
  table.entries.insert_or_assign(meta.key, std::move(record));
  ++stats_.inserts;
}

void CacheDirectory::apply_erase(NodeId owner, const std::string& key,
                                 std::uint64_t version) {
  if (owner >= tables_.size()) return;
  Table& table = *tables_[owner];

  std::unique_lock lock(mode_ == LockingMode::kWholeDirectory ? whole_mutex_
                                                              : table.mutex);
  ++stats_.lock_acquisitions;
  const auto it = table.entries.find(key);
  if (it == table.entries.end()) return;
  if (version != 0 && it->second.version > version) return;
  table.entries.erase(it);
  ++stats_.erases;
}

std::optional<EntryMeta> CacheDirectory::find_in(NodeId node,
                                                 const std::string& key,
                                                 LockingMode mode,
                                                 TimeNs now) const {
  const Table& table = *tables_[node];
  const auto visible = [&]() -> std::optional<EntryMeta> {
    const auto it = table.entries.find(key);
    if (it == table.entries.end() || it->second.expired(now)) {
      return std::nullopt;
    }
    return it->second.meta(key, node);
  };
  switch (mode) {
    case LockingMode::kWholeDirectory:
      return visible();  // the caller holds whole_mutex_
    case LockingMode::kPerTable: {
      std::shared_lock lock(table.mutex);
      ++stats_.lock_acquisitions;
      return visible();
    }
    case LockingMode::kPerEntry: {
      // Structural lock to locate the record, then its entry lock to read
      // it — two acquisitions per table that holds the key, which is
      // exactly the overhead the paper rejects this mode for.
      std::shared_lock lock(table.mutex);
      ++stats_.lock_acquisitions;
      const auto it = table.entries.find(key);
      if (it == table.entries.end()) return std::nullopt;
      std::lock_guard<std::mutex> entry_lock(
          table.entry_locks[std::hash<std::string>{}(key) % kEntryLockStripes]);
      ++stats_.lock_acquisitions;
      if (it->second.expired(now)) return std::nullopt;
      return it->second.meta(key, node);
    }
    case LockingMode::kMultiGranularity:
      break;  // resolved per table by lookup(); never passed here
  }
  return std::nullopt;
}

std::optional<EntryMeta> CacheDirectory::lookup(const std::string& key) const {
  ++stats_.lookups;
  const TimeNs now = clock_->now();

  // Multi-granularity (§4.2's fourth option): entry locks on the local
  // table, table locks on the remote tables.
  const auto mode_for = [&](NodeId node) {
    if (mode_ != LockingMode::kMultiGranularity) return mode_;
    return node == self_ ? LockingMode::kPerEntry : LockingMode::kPerTable;
  };
  std::shared_lock whole(whole_mutex_, std::defer_lock);
  if (mode_ == LockingMode::kWholeDirectory) {
    whole.lock();
    ++stats_.lock_acquisitions;
  }
  // Scan order: local table first, then peers, so a locally cached result
  // always wins over a remote copy.
  std::optional<EntryMeta> found = find_in(self_, key, mode_for(self_), now);
  for (NodeId n = 0; n < tables_.size() && !found; ++n) {
    if (n == self_ || quarantined(n)) continue;
    found = find_in(n, key, mode_for(n), now);
  }
  if (found) ++stats_.lookup_hits;
  return found;
}

std::optional<EntryMeta> CacheDirectory::lookup_at(NodeId node,
                                                   const std::string& key) const {
  if (node >= tables_.size()) return std::nullopt;
  const TimeNs now = clock_->now();
  if (mode_ == LockingMode::kWholeDirectory) {
    std::shared_lock lock(whole_mutex_);
    ++stats_.lock_acquisitions;
    return find_in(node, key, LockingMode::kWholeDirectory, now);
  }
  return find_in(node, key, LockingMode::kPerTable, now);
}

std::vector<std::string> CacheDirectory::expired_keys(NodeId node,
                                                      TimeNs now) const {
  std::vector<std::string> out;
  if (node >= tables_.size()) return out;
  const Table& table = *tables_[node];
  std::shared_lock lock(mode_ == LockingMode::kWholeDirectory ? whole_mutex_
                                                              : table.mutex);
  ++stats_.lock_acquisitions;
  for (const auto& [key, record] : table.entries) {
    if (record.expired(now)) out.push_back(key);
  }
  return out;
}

std::size_t CacheDirectory::erase_matching(std::string_view pattern) {
  std::size_t removed = 0;
  for (auto& table_ptr : tables_) {
    Table& table = *table_ptr;
    std::unique_lock lock(mode_ == LockingMode::kWholeDirectory ? whole_mutex_
                                                                : table.mutex);
    ++stats_.lock_acquisitions;
    for (auto it = table.entries.begin(); it != table.entries.end();) {
      if (glob_match(pattern, it->first)) {
        it = table.entries.erase(it);
        ++removed;
        ++stats_.erases;
      } else {
        ++it;
      }
    }
  }
  return removed;
}

std::size_t CacheDirectory::size() const {
  std::size_t total = 0;
  for (NodeId n = 0; n < tables_.size(); ++n) total += table_size(n);
  return total;
}

std::vector<std::string> CacheDirectory::keys_at(NodeId node) const {
  std::vector<std::string> out;
  if (node >= tables_.size()) return out;
  const Table& table = *tables_[node];
  std::shared_lock lock(mode_ == LockingMode::kWholeDirectory ? whole_mutex_
                                                              : table.mutex);
  out.reserve(table.entries.size());
  for (const auto& [key, record] : table.entries) out.push_back(key);
  return out;
}

std::vector<EntryMeta> CacheDirectory::metas_at(NodeId node) const {
  std::vector<EntryMeta> out;
  if (node >= tables_.size()) return out;
  const Table& table = *tables_[node];
  std::shared_lock lock(mode_ == LockingMode::kWholeDirectory ? whole_mutex_
                                                              : table.mutex);
  out.reserve(table.entries.size());
  for (const auto& [key, record] : table.entries) {
    out.push_back(record.meta(key, node));
  }
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
CacheDirectory::key_versions_at(NodeId node) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  if (node >= tables_.size()) return out;
  const Table& table = *tables_[node];
  std::shared_lock lock(mode_ == LockingMode::kWholeDirectory ? whole_mutex_
                                                              : table.mutex);
  out.reserve(table.entries.size());
  for (const auto& [key, record] : table.entries) {
    out.emplace_back(key, record.version);
  }
  return out;
}

std::size_t CacheDirectory::table_size(NodeId node) const {
  if (node >= tables_.size()) return 0;
  const Table& table = *tables_[node];
  std::shared_lock lock(mode_ == LockingMode::kWholeDirectory ? whole_mutex_
                                                              : table.mutex);
  return table.entries.size();
}

}  // namespace swala::core

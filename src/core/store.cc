#include "core/store.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "common/strings.h"
#include "http/uri.h"

namespace swala::core {

namespace {

/// The blob the hot-blob cache admits for `data`, stored under `id`: the
/// backend's own blob when it keeps one in memory (a body is then resident
/// once), else a copy. Built before the caller takes the store mutex (an
/// 8 KB memcpy has no business inside the metadata lock). Null when the
/// cache is off or `data` exceeds its budget.
std::shared_ptr<const std::string> hot_candidate(const StoreLimits& limits,
                                                 StorageBackend& backend,
                                                 StorageId id,
                                                 std::string_view data) {
  if (limits.hot_bytes == 0 || data.size() > limits.hot_bytes) return nullptr;
  if (auto shared = backend.resident(id)) return shared;
  return std::make_shared<const std::string>(data);
}

}  // namespace

CacheStore::CacheStore(StoreLimits limits, PolicyKind policy,
                       std::unique_ptr<StorageBackend> backend,
                       const Clock* clock, NodeId owner)
    : limits_(limits),
      policy_(make_policy(policy)),
      backend_(std::move(backend)),
      clock_(clock),
      owner_(owner) {}

Result<EntryMeta> CacheStore::insert(const CacheKey& key, std::string_view data,
                                     double cost_seconds, double ttl_seconds,
                                     std::string content_type, int http_status,
                                     std::vector<EntryMeta>* evicted) {
  if (limits_.max_bytes != 0 && data.size() > limits_.max_bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rejected_too_large;
    return Status(StatusCode::kResourceExhausted,
                  "entry larger than cache byte limit");
  }

  // Write the blob before taking the mutex: the put (fsync + rename on the
  // disk backend) is the expensive part and must not stall readers. Losers
  // of a concurrent same-key race are handled below — the second install
  // dooms the first install's storage like any other replacement.
  auto id = backend_->put(data, key.hash());
  if (!id) return id.status();

  auto hot_blob = hot_candidate(limits_, *backend_, id.value(), data);

  std::vector<Pin> doomed;
  EntryMeta meta;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Replace any existing copy first so its bytes do not count against us.
    if (entries_.find(key.text) != entries_.end()) {
      remove_locked(key.text, /*count_eviction=*/false, nullptr, &doomed);
    }
    make_room(data.size(), evicted, &doomed);

    const TimeNs now = clock_->now();
    Slot slot;
    slot.pin = std::make_shared<PinnedStorage>(backend_, id.value());
    slot.meta.key = key.text;
    slot.meta.owner = owner_;
    slot.meta.size_bytes = data.size();
    slot.meta.cost_seconds = cost_seconds;
    slot.meta.insert_time = now;
    slot.meta.expire_time =
        ttl_seconds > 0 ? now + from_seconds(ttl_seconds) : TimeNs{0};
    slot.meta.last_access = now;
    slot.meta.access_count = 0;
    slot.meta.content_type = std::move(content_type);
    slot.meta.http_status = http_status;
    slot.meta.version = ++version_counter_;

    policy_->on_insert(slot.meta);
    bytes_used_ += slot.meta.size_bytes;
    ++stats_.inserts;
    meta = slot.meta;
    auto& installed = entries_[key.text];
    installed = std::move(slot);
    // The data just came through this thread verified; keep it hot.
    if (hot_blob) hot_admit_locked(key.text, &installed, std::move(hot_blob));
  }
  // `doomed` destructs here, unlinking replaced/evicted blobs (or deferring
  // to a pinned reader) with the mutex released.
  return meta;
}

void CacheStore::make_room(std::uint64_t incoming_bytes,
                           std::vector<EntryMeta>* evicted,
                           std::vector<Pin>* doomed) {
  const auto over = [&] {
    if (limits_.max_entries != 0 && entries_.size() + 1 > limits_.max_entries) {
      return true;
    }
    if (limits_.max_bytes != 0 && bytes_used_ + incoming_bytes > limits_.max_bytes) {
      return true;
    }
    return false;
  };
  while (over() && !entries_.empty()) {
    const auto victim = policy_->victim();
    if (!victim) break;  // policy out of sync; bail rather than spin
    remove_locked(*victim, /*count_eviction=*/true, evicted, doomed);
  }
}

void CacheStore::remove_locked(const std::string& key, bool count_eviction,
                               std::vector<EntryMeta>* out,
                               std::vector<Pin>* doomed) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  bytes_used_ -= it->second.meta.size_bytes;
  hot_drop_locked(&it->second);
  if (it->second.pin) {
    it->second.pin->doomed.store(true, std::memory_order_release);
    doomed->push_back(std::move(it->second.pin));
  }
  policy_->on_erase(key);
  if (count_eviction) ++stats_.evictions;
  if (out) out->push_back(std::move(it->second.meta));
  entries_.erase(it);
}

std::optional<CachedResult> CacheStore::fetch(std::string_view key) {
  Pin pin;
  EntryMeta meta;
  std::shared_ptr<const std::string> hot_blob;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(std::string(key));
    if (it == entries_.end() || it->second.meta.expired(clock_->now())) {
      ++stats_.misses;
      return std::nullopt;
    }
    Slot& slot = it->second;
    if (slot.hot) {
      slot.meta.last_access = clock_->now();
      ++slot.meta.access_count;
      policy_->on_access(slot.meta);
      ++stats_.hits;
      ++stats_.hot_hits;
      hot_touch_locked(&slot);
      hot_blob = slot.hot;
      meta = slot.meta;
    } else {
      pin = slot.pin;
      meta = slot.meta;
    }
  }
  if (hot_blob) {
    // Copy the blob outside the mutex; the shared_ptr keeps it alive even
    // if the entry is evicted concurrently.
    return CachedResult{std::move(meta), *hot_blob};
  }

  // Read the backend with the mutex released; the pin keeps the blob alive
  // (and defers any concurrent unlink) until we are done.
  active_pins_.fetch_add(1, std::memory_order_relaxed);
  auto data = pin->backend->get(pin->id);
  active_pins_.fetch_sub(1, std::memory_order_relaxed);

  if (!data) {
    // Backing file vanished (e.g. external cleanup). Report a miss but keep
    // the entry resident: removal must go through the manager's commit
    // protocol so the directory erase and its broadcast are published with
    // the store change (the next complete() for the key replaces it).
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    return std::nullopt;
  }

  // First verified read: promote to the hot-blob cache so later hits skip
  // the disk and the checksum. The pin keeps `pin->id` in the backend.
  auto promoted = hot_candidate(limits_, *pin->backend, pin->id, data.value());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(std::string(key));
    if (it != entries_.end() && it->second.pin == pin) {
      Slot& slot = it->second;
      slot.meta.last_access = clock_->now();
      ++slot.meta.access_count;
      policy_->on_access(slot.meta);
      meta = slot.meta;
      if (promoted && !slot.hot) {
        hot_admit_locked(it->first, &slot, std::move(promoted));
      }
    }
    // Entry replaced/removed while we read: the data was valid when read,
    // so still serve it (with the meta snapshotted before the read).
    ++stats_.hits;
    ++stats_.hot_misses;
  }
  return CachedResult{std::move(meta), std::move(data.value())};
}

std::optional<EntryMeta> CacheStore::peek(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(std::string(key));
  if (it == entries_.end() || it->second.meta.expired(clock_->now())) {
    return std::nullopt;
  }
  return it->second.meta;
}

std::optional<EntryMeta> CacheStore::erase(std::string_view key) {
  std::vector<EntryMeta> out;
  std::vector<Pin> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    remove_locked(std::string(key), /*count_eviction=*/false, &out, &doomed);
  }
  if (out.empty()) return std::nullopt;
  return std::move(out.front());
}

std::vector<EntryMeta> CacheStore::purge_expired() {
  std::vector<EntryMeta> out;
  std::vector<Pin> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const TimeNs now = clock_->now();
    std::vector<std::string> expired;
    for (const auto& [key, slot] : entries_) {
      if (slot.meta.expired(now)) expired.push_back(key);
    }
    for (const auto& key : expired) {
      remove_locked(key, /*count_eviction=*/false, &out, &doomed);
      ++stats_.expirations;
    }
  }
  return out;
}

std::vector<EntryMeta> CacheStore::erase_matching(std::string_view pattern) {
  std::vector<EntryMeta> out;
  std::vector<Pin> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> matched;
    for (const auto& [key, slot] : entries_) {
      if (glob_match(pattern, key)) matched.push_back(key);
    }
    for (const auto& key : matched) {
      remove_locked(key, /*count_eviction=*/false, &out, &doomed);
    }
  }
  return out;
}

std::vector<EntryMeta> CacheStore::resident_metas() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<EntryMeta> out;
  out.reserve(entries_.size());
  for (const auto& [key, slot] : entries_) out.push_back(slot.meta);
  return out;
}

std::vector<std::string> CacheStore::keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [key, slot] : entries_) out.push_back(key);
  return out;
}

void CacheStore::clear() {
  std::vector<Pin> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> keys;
    keys.reserve(entries_.size());
    for (const auto& [key, slot] : entries_) keys.push_back(key);
    for (const auto& key : keys) {
      remove_locked(key, /*count_eviction=*/false, nullptr, &doomed);
    }
  }
}

Status CacheStore::save_manifest(const std::string& path) const {
  // Snapshot the manifest content under the mutex, but keep the disk write
  // (fsync + rename) outside it so a slow checkpoint cannot stall the hit
  // path.
  std::string content;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    content = "swala-manifest " + std::to_string(kManifestFormatVersion) + "\n";
    const TimeNs now = clock_->now();
    char line[4096];
    for (const auto& [key, slot] : entries_) {
      const EntryMeta& meta = slot.meta;
      if (meta.expired(now)) continue;
      const double age = to_seconds(now - meta.insert_time);
      const double ttl_remaining =
          meta.expire_time == 0 ? -1.0 : to_seconds(meta.expire_time - now);
      const double idle = to_seconds(now - meta.last_access);
      // content_type is percent-encoded (it may contain spaces, e.g.
      // "text/html; charset=..."); the key goes last and keeps its spaces.
      const int n = std::snprintf(
          line, sizeof(line), "%llu %llu %.9f %.6f %.6f %.6f %llu %d %llu %s %s\n",
          static_cast<unsigned long long>(slot.pin ? slot.pin->id : 0),
          static_cast<unsigned long long>(meta.size_bytes), meta.cost_seconds,
          age, ttl_remaining, idle,
          static_cast<unsigned long long>(meta.access_count), meta.http_status,
          static_cast<unsigned long long>(meta.version),
          http::percent_encode(meta.content_type).c_str(), key.c_str());
      if (n < 0 || static_cast<std::size_t>(n) >= sizeof(line)) {
        SWALA_LOG(Warn) << "manifest entry too long, skipped: " << key;
        continue;
      }
      content.append(line, static_cast<std::size_t>(n));
    }
  }
  // Drain the backend's write buffer first (volume store): the manifest must
  // never reference data that is still only in RAM, or a crash would leave
  // manifest entries pointing at nothing.
  if (auto st = backend_->sync(); !st.is_ok()) return st;
  // Atomic + durable replacement: a crash mid-checkpoint must leave the
  // previous manifest readable, never a torn mix.
  if (auto st = write_file_atomic(backend_->fs(), path, content);
      !st.is_ok()) {
    return st;
  }
  backend_->set_retain_on_destruction(true);
  return Status::ok();
}

Result<std::size_t> CacheStore::load_manifest(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return Status(StatusCode::kNotFound, "no manifest: " + path);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const TimeNs now = clock_->now();
  std::size_t restored = 0;
  char line[4096];
  // Header line: refuse manifests written by a newer format. Everything on
  // disk stays untouched (the newer version may still understand it), so a
  // rollback never silently destroys a newer deployment's cache.
  int version = 0;
  if (std::fgets(line, sizeof(line), file) == nullptr ||
      std::sscanf(line, "swala-manifest %d", &version) != 1) {
    std::fclose(file);
    return Status(StatusCode::kCorrupt, "manifest missing header: " + path);
  }
  if (version > kManifestFormatVersion) {
    std::fclose(file);
    return Status(StatusCode::kUnavailable,
                  "manifest format v" + std::to_string(version) +
                      " is newer than supported v" +
                      std::to_string(kManifestFormatVersion));
  }
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    unsigned long long storage = 0, size = 0, accesses = 0, version = 0;
    double cost = 0, age = 0, ttl_remaining = 0, idle = 0;
    int http_status = 0;
    char content_type[256] = {0};
    int consumed = 0;
    if (std::sscanf(line, "%llu %llu %lf %lf %lf %lf %llu %d %llu %255s %n",
                    &storage, &size, &cost, &age, &ttl_remaining, &idle,
                    &accesses, &http_status, &version, content_type,
                    &consumed) != 10) {
      continue;  // corrupt line; skip
    }
    std::string key(trim(std::string_view(line + consumed)));
    if (key.empty()) continue;
    if (entries_.count(key) != 0) continue;

    if (auto st = backend_->adopt(storage, size, fnv1a64(key)); !st.is_ok()) {
      SWALA_LOG(Warn) << "manifest entry skipped: " << st.to_string();
      continue;
    }

    Slot slot;
    slot.pin = std::make_shared<PinnedStorage>(backend_, storage);
    slot.meta.key = key;
    slot.meta.owner = owner_;
    slot.meta.size_bytes = size;
    slot.meta.cost_seconds = cost;
    slot.meta.insert_time = now - from_seconds(age);
    slot.meta.expire_time =
        ttl_remaining < 0 ? TimeNs{0} : now + from_seconds(ttl_remaining);
    slot.meta.last_access = now - from_seconds(idle);
    slot.meta.access_count = accesses;
    std::string decoded_type;
    if (!http::percent_decode(content_type, &decoded_type)) {
      decoded_type = "text/html";
    }
    slot.meta.content_type = std::move(decoded_type);
    slot.meta.http_status = http_status;
    slot.meta.version = version;

    policy_->on_insert(slot.meta);
    bytes_used_ += size;
    // Future versions must stay above every restored one so post-restart
    // re-inserts still win against stale erase broadcasts.
    version_counter_ = std::max(version_counter_, slot.meta.version);
    entries_[key] = std::move(slot);
    ++restored;
  }
  std::fclose(file);
  return restored;
}

ScrubReport CacheStore::scrub_backend() { return backend_->scrub(); }

std::size_t CacheStore::entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t CacheStore::bytes_used() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_used_;
}

StoreStats CacheStore::stats() const {
  StoreStats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s = stats_;
    s.hot_bytes = hot_bytes_used_;
  }
  s.pinned_entries = active_pins_.load(std::memory_order_relaxed);
  return s;
}

PolicyKind CacheStore::policy() const { return policy_->kind(); }

// ---- hot-blob cache ----

void CacheStore::hot_admit_locked(const std::string& key, Slot* slot,
                                  std::shared_ptr<const std::string> blob) {
  if (limits_.hot_bytes == 0 || !blob || blob->size() > limits_.hot_bytes) {
    return;
  }
  if (slot->hot) {
    hot_touch_locked(slot);
    return;
  }
  while (hot_bytes_used_ + blob->size() > limits_.hot_bytes &&
         !hot_lru_.empty()) {
    const std::string victim = hot_lru_.back();
    const auto it = entries_.find(victim);
    if (it != entries_.end() && it->second.hot) {
      hot_bytes_used_ -= it->second.hot->size();
      it->second.hot.reset();
    }
    hot_lru_.pop_back();
  }
  hot_bytes_used_ += blob->size();
  hot_lru_.push_front(key);
  slot->hot_it = hot_lru_.begin();
  slot->hot = std::move(blob);
}

void CacheStore::hot_touch_locked(Slot* slot) {
  hot_lru_.splice(hot_lru_.begin(), hot_lru_, slot->hot_it);
}

void CacheStore::hot_drop_locked(Slot* slot) {
  if (!slot->hot) return;
  hot_bytes_used_ -= slot->hot->size();
  hot_lru_.erase(slot->hot_it);
  slot->hot.reset();
}

}  // namespace swala::core

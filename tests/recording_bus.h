// The one CooperationBus test double shared by the core test binaries.
// It records every insert, erase and (pattern, epoch) invalidation a
// manager broadcasts, serves remote fetches from a scripted table, and can
// forward inserts and erases to a peer manager to wire two managers
// together (dropping them while `drop_link` is set).
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/manager.h"

namespace swala::core {

class RecordingBus : public CooperationBus {
 public:
  struct Erase {
    NodeId owner;
    std::string key;
    std::uint64_t version;
  };

  void broadcast_insert(const EntryMeta& meta) override {
    {
      std::lock_guard<std::mutex> lock(mutex);
      inserts.push_back(meta);
    }
    if (peer != nullptr && !drop_link) peer->on_peer_insert(meta);
  }

  void broadcast_erase(NodeId owner, const std::string& key,
                       std::uint64_t version) override {
    {
      std::lock_guard<std::mutex> lock(mutex);
      erases.push_back({owner, key, version});
    }
    if (peer != nullptr && !drop_link) peer->on_peer_erase(owner, key, version);
  }

  void broadcast_invalidate(const std::string& pattern,
                            std::uint64_t epoch) override {
    std::lock_guard<std::mutex> lock(mutex);
    invalidations.push_back({pattern, epoch});
  }

  /// Serves `key` from `remote_data` as `owner`'s copy; kNotFound (a false
  /// hit) when the key is not scripted.
  Result<CachedResult> fetch_remote(NodeId owner,
                                    const std::string& key) override {
    std::lock_guard<std::mutex> lock(mutex);
    ++fetches;
    const auto it = remote_data.find(key);
    if (it == remote_data.end()) {
      return Status(StatusCode::kNotFound, "not scripted: " + key);
    }
    CachedResult r;
    r.meta.key = key;
    r.meta.owner = owner;
    r.meta.content_type = "text/html";
    r.meta.http_status = 200;
    r.data = it->second;
    return r;
  }

  std::mutex mutex;  ///< guards the recorded fields and fetch counter
  std::vector<EntryMeta> inserts;
  std::vector<Erase> erases;
  std::vector<std::pair<std::string, std::uint64_t>> invalidations;
  std::map<std::string, std::string> remote_data;
  int fetches = 0;

  /// Optional peer that receives forwarded inserts and erases, called
  /// outside `mutex`. Neither field is guarded: only single-threaded tests
  /// set them.
  CacheManager* peer = nullptr;
  bool drop_link = false;  ///< while set, forwarded updates are lost
};

}  // namespace swala::core

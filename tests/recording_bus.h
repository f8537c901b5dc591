// The one CooperationBus test double shared by the core test binaries.
// It records every insert, erase and (pattern, epoch) invalidation a
// manager broadcasts and every partitioned owner update and owner probe it
// sends, serves remote fetches and owner probes from scripted tables (or
// refuses a probe, as to a departed member), and
// can forward inserts and erases to a peer manager to wire two managers
// together (dropping them while `drop_link` is set).
#pragma once

#include <map>
#include <mutex>
#include <set>
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

  /// One kOwnerUpdate: `cache_node` now caches (insert) or dropped `key`.
  struct OwnerUpdate {
    NodeId ring_owner;
    NodeId cache_node;
    std::string key;
    bool insert;
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

  void send_owner_insert(NodeId ring_owner, const EntryMeta& meta) override {
    {
      std::lock_guard<std::mutex> lock(mutex);
      owner_updates.push_back({ring_owner, meta.owner, meta.key, true});
    }
    if (peer != nullptr && !drop_link && peer->self() == ring_owner) {
      peer->on_peer_insert(meta);
    }
  }

  void send_owner_erase(NodeId ring_owner, NodeId cache_node,
                        const std::string& key,
                        std::uint64_t version) override {
    {
      std::lock_guard<std::mutex> lock(mutex);
      owner_updates.push_back({ring_owner, cache_node, key, false});
    }
    if (peer != nullptr && !drop_link && peer->self() == ring_owner) {
      peer->on_peer_erase(cache_node, key, version);
    }
  }

  /// Answers from `owner_records` — (ring owner, key) → the caching node
  /// that owner knows of; kNotFound when not scripted, kUnavailable when
  /// the owner is in `refused`.
  Result<EntryMeta> lookup_at_owner(NodeId ring_owner, const std::string& key,
                                    int budget_ms) override {
    (void)budget_ms;
    std::lock_guard<std::mutex> lock(mutex);
    owner_probes.push_back(ring_owner);
    if (refused.count(ring_owner) != 0) {
      return Status(StatusCode::kUnavailable, "not an active member");
    }
    const auto it = owner_records.find({ring_owner, key});
    if (it == owner_records.end()) {
      return Status(StatusCode::kNotFound, "owner knows no copy: " + key);
    }
    EntryMeta meta;
    meta.key = key;
    meta.owner = it->second;
    return meta;
  }

  std::mutex mutex;  ///< guards the recorded fields and fetch counter
  std::vector<EntryMeta> inserts;
  std::vector<Erase> erases;
  std::vector<std::pair<std::string, std::uint64_t>> invalidations;
  std::map<std::string, std::string> remote_data;
  int fetches = 0;
  std::vector<OwnerUpdate> owner_updates;
  std::vector<NodeId> owner_probes;  ///< ring owner asked, in order
  std::map<std::pair<NodeId, std::string>, NodeId> owner_records;
  /// Owners whose probes fail at once, as NodeGroup refuses a departed
  /// member.
  std::set<NodeId> refused;

  /// Optional peer that receives forwarded inserts and erases (owner
  /// updates only when addressed to it), called outside `mutex`. Neither field is guarded: only single-threaded tests
  /// set them.
  CacheManager* peer = nullptr;
  bool drop_link = false;  ///< while set, forwarded updates are lost
};

}  // namespace swala::core

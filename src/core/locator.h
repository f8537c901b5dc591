// Locator: the one place the directory mode (DirectoryMode) shows. It
// decides how a node finds a copy of a key cached on another node and what
// the node tells the group about its own copies. CacheManager builds one
// from ManagerOptions::directory_mode and calls it wherever the modes
// differ; neither CacheManager nor cluster::Protocol branches on the mode.
// One file per mode: replicated_locator.cc, partitioned_locator.cc.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/manager.h"

namespace swala::core {

/// How long a partitioned ring transition keeps its dual-read window open:
/// time for the remapped records to reach their new owners.
inline constexpr double kRingSettleSeconds = 0.5;

/// Receives one peer's share of a state push; cluster::Protocol renders
/// each call as a frame to that peer.
class PeerSink {
 public:
  virtual ~PeerSink() = default;
  virtual void insert(const EntryMeta& meta) = 0;        ///< a kInsert
  virtual void owner_insert(const EntryMeta& meta) = 0;  ///< a kOwnerUpdate
};

/// What a locator works on, all owned by the CacheManager that builds it.
struct LocatorContext {
  NodeId self = kInvalidNode;
  const Clock* clock = nullptr;
  CooperationBus* bus = nullptr;  ///< null = stand-alone cache
  const CacheDirectory* directory = nullptr;
  const CacheStore* store = nullptr;
  ManagerStats* stats = nullptr;
  /// CacheManager's fetch of one advertised copy into the lookup result:
  /// ok on a hit, kNotFound on a false hit (the local record is dropped).
  std::function<Status(const EntryMeta&, const Deadline&, LookupResult*)>
      fetch;
};

class Locator {
 public:
  explicit Locator(LocatorContext context) : ctx_(std::move(context)) {}
  virtual ~Locator() = default;

  /// Tells the group that this node now caches `meta`, or dropped `key`
  /// (announce_erase returns whether a frame was sent). Called inside a
  /// commit section, only with a bus and while this node is a member.
  virtual void announce_insert(const EntryMeta& meta) = 0;
  virtual bool announce_erase(const std::string& key,
                              std::uint64_t version) = 0;

  /// Find-on-miss, called with a bus when no local table knows `key`.
  /// True when `out` holds a hit fetched from the node found to cache it.
  virtual bool find(const std::string& key, const Deadline& deadline,
                    LookupResult* out) = 0;

  /// The node that should hold `key`'s directory record; nullopt = every
  /// member. It decides what the anti-entropy digests compare and what the
  /// cluster consistency oracle expects each table to hold.
  virtual std::optional<NodeId> record_holder(const std::string& key) const = 0;

  /// Who takes `key` over when this node leaves `members`; self if nobody.
  virtual NodeId successor_for(const std::string& key,
                               const std::vector<NodeId>& members) const = 0;

  /// What `peer` needs from this node after it lost its view of this node
  /// (a resync or a recovery) or, with `joining`, on its admission.
  virtual void push_state(NodeId peer, PeerSink* sink, bool joining) const = 0;

  // ---- placement that follows the active set (default: none does) ----

  /// The active set gained (`joined`) or lost `node`; returns what was
  /// forwarded to keep every record findable.
  virtual CacheManager::HandoffStats member_changed(NodeId, bool) {
    return {};
  }
  /// A joiner adopted `members` (sorted) as the whole active set.
  virtual void adopt_members(const std::vector<NodeId>&) {}
  /// Decommission: forwards the records this node holds for other caches
  /// to their next holders; returns how many.
  virtual std::size_t forward_records() { return 0; }
  /// True while lookups also probe the pre-transition placement.
  virtual bool ring_transition_active() const { return false; }

 protected:
  LocatorContext ctx_;
};

std::unique_ptr<Locator> make_replicated_locator(LocatorContext context);
std::unique_ptr<Locator> make_partitioned_locator(
    LocatorContext context, std::uint64_t ring_seed, std::size_t ring_vnodes,
    const std::vector<NodeId>& members);

/// The locator for `options.directory_mode` over the initial `members`.
inline std::unique_ptr<Locator> make_locator(
    const ManagerOptions& options, LocatorContext context,
    const std::vector<NodeId>& members) {
  if (options.directory_mode == DirectoryMode::kPartitioned) {
    return make_partitioned_locator(std::move(context), options.ring_seed,
                                    options.ring_vnodes, members);
  }
  return make_replicated_locator(std::move(context));
}

}  // namespace swala::core

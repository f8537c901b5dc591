// The partitioned locator: a consistent-hash ring over the active members
// names each key's owner, which alone holds the key's directory record.
// A membership change resizes the ring and forwards only the remapped
// records; for kRingSettleSeconds after it (on the manager's clock) a miss
// asks the pre-transition owner first, while it is still a member — the
// dual-read window — so no lookup misses a record still on its way to its
// new owner.
//
// Lock order: CacheManager's commit_mutex_ → ring_mutex_ (announce_insert
// and announce_erase run inside commit sections and read the ring). Nothing
// here takes commit_mutex_, and ring_mutex_ is never held across a send.
#include <shared_mutex>

#include "common/logging.h"
#include "core/locator.h"

namespace swala::core {
namespace {

class PartitionedLocator final : public Locator {
 public:
  PartitionedLocator(LocatorContext context, std::uint64_t ring_seed,
                     std::size_t ring_vnodes,
                     const std::vector<NodeId>& members)
      : Locator(std::move(context)), ring_(ring_seed, ring_vnodes) {
    for (const NodeId n : members) ring_.add_node(n);
  }

  void announce_insert(const EntryMeta& meta) override {
    const NodeId owner = owner_of(meta.key);
    if (owner != ctx_.self) ctx_.bus->send_owner_insert(owner, meta);
  }

  bool announce_erase(const std::string& key,
                      std::uint64_t version) override {
    const NodeId owner = owner_of(key);
    if (owner == ctx_.self) return false;
    ctx_.bus->send_owner_erase(owner, ctx_.self, key, version);
    return true;
  }

  bool find(const std::string& key, const Deadline& deadline,
            LookupResult* out) override {
    NodeId previous = ctx_.self;
    NodeId current = ctx_.self;
    {
      std::shared_lock lock(ring_mutex_);
      current = holder(ring_.owner_of(key));
      // A pre-transition owner that has left is no one to ask: its records
      // went to their new owners with its decommission.
      const std::uint32_t before =
          window_open() ? prev_ring_->owner_of(key) : HashRing::kNoOwner;
      previous = ring_.contains(before) ? holder(before) : current;
    }
    if (previous != current) {
      ++ctx_.stats->dual_read_probes;
      if (probe(previous, key, deadline, out)) return true;
    }
    return probe(current, key, deadline, out);
  }

  std::optional<NodeId> record_holder(const std::string& key) const override {
    return owner_of(key);
  }

  NodeId successor_for(const std::string& key,
                       const std::vector<NodeId>&) const override {
    std::shared_lock lock(ring_mutex_);
    return holder(ring_.successor_of(key, ctx_.self));
  }

  // A rejoining owner lost its partition: every survivor re-announces the
  // entries it owns. A joiner already got its slice from member_changed.
  void push_state(NodeId peer, PeerSink* sink, bool joining) const override {
    if (joining) return;
    for (const auto& meta : ctx_.store->resident_metas()) {
      if (owner_of(meta.key) == peer) sink->owner_insert(meta);
    }
  }

  CacheManager::HandoffStats member_changed(NodeId node,
                                            bool joined) override {
    return transition([node, joined](HashRing* ring) {
      joined ? ring->add_node(node) : ring->remove_node(node);
    });
  }

  // The joiner's manager re-announces its whole store after adopting.
  void adopt_members(const std::vector<NodeId>& members) override {
    std::unique_lock lock(ring_mutex_);
    open_window();
    ring_ = HashRing(ring_.seed(), ring_.vnodes());
    for (const NodeId n : members) ring_.add_node(n);
  }

  // Records of our own departing cache are not forwarded: those entries
  // were shipped whole, and each adoption re-announces its copy.
  std::size_t forward_records() override {
    const HashRing before = snapshot();
    HashRing after = before;
    after.remove_node(ctx_.self);
    return forward_owned(before, after);
  }

  bool ring_transition_active() const override {
    std::shared_lock lock(ring_mutex_);
    return window_open();
  }

 private:
  /// A ring answer as a node id; self (no remote owner) on an empty ring.
  NodeId holder(std::uint32_t owner) const {
    return owner == HashRing::kNoOwner ? ctx_.self : static_cast<NodeId>(owner);
  }

  NodeId owner_of(const std::string& key) const {
    std::shared_lock lock(ring_mutex_);
    return holder(ring_.owner_of(key));
  }

  HashRing snapshot() const {
    std::shared_lock lock(ring_mutex_);
    return ring_;
  }

  /// Forwards the records this node holds for other caches and owns under
  /// `before` to their owners under `after`; returns how many it sent.
  std::size_t forward_owned(const HashRing& before, const HashRing& after) {
    if (ctx_.bus == nullptr) return 0;
    std::size_t records = 0;
    for (NodeId t = 0; t < ctx_.directory->num_nodes(); ++t) {
      if (t == ctx_.self) continue;
      for (const auto& meta : ctx_.directory->metas_at(t)) {
        const NodeId to = holder(after.owner_of(meta.key));
        if (holder(before.owner_of(meta.key)) != ctx_.self || to == ctx_.self) {
          continue;
        }
        ctx_.bus->send_owner_insert(to, meta);
        ++records;
      }
    }
    return records;
  }

  /// Requires ring_mutex_ held. Without a clock the window stays open
  /// until the next transition replaces it.
  bool window_open() const {
    return prev_ring_.has_value() &&
           (ctx_.clock == nullptr || ctx_.clock->now() < window_closes_);
  }

  /// Requires ring_mutex_ held exclusively: the current ring becomes the
  /// pre-transition one for the next kRingSettleSeconds.
  void open_window() {
    prev_ring_ = ring_;
    if (ctx_.clock != nullptr) {
      window_closes_ = ctx_.clock->now() + from_seconds(kRingSettleSeconds);
    }
  }

  /// Applies `change` to the ring under the dual-read window, then forwards
  /// the remapped slice: own entries whose owner moved, and the records
  /// this node owned for other caches. The stale record at an old owner
  /// stays: it serves dual reads, then ages out via expiry or a
  /// version-guarded erase.
  template <typename Change>
  CacheManager::HandoffStats transition(Change change) {
    HashRing before;
    HashRing after;
    {
      std::unique_lock lock(ring_mutex_);
      open_window();
      change(&ring_);
      before = *prev_ring_;
      after = ring_;
    }
    CacheManager::HandoffStats stats;
    if (ctx_.bus == nullptr) return stats;
    for (const auto& meta : ctx_.store->resident_metas()) {
      const NodeId to = holder(after.owner_of(meta.key));
      if (to == ctx_.self || to == holder(before.owner_of(meta.key))) continue;
      ctx_.bus->send_owner_insert(to, meta);
      ++stats.entries;
    }
    stats.records = forward_owned(before, after);
    ctx_.stats->handoff_records_sent += stats.records + stats.entries;
    return stats;
  }

  /// Asks `owner` for `key`'s record and fetches the copy it names; true
  /// when `out` holds a hit. A quarantined (dead) owner takes its key range
  /// with it: the request executes locally, as on the dead-peer fetch path.
  bool probe(NodeId owner, const std::string& key, const Deadline& deadline,
             LookupResult* out) {
    if (owner == ctx_.self || ctx_.directory->quarantined(owner)) return false;
    ++ctx_.stats->remote_dir_lookups;
    auto entry = ctx_.bus->lookup_at_owner(owner, key, deadline.budget_ms(0));
    if (entry && entry.value().owner != ctx_.self) {
      ++ctx_.stats->remote_dir_hits;
      EntryMeta meta = std::move(entry.value());
      meta.key = key;  // defend against a lying/mis-keyed answer
      const Status fetched = ctx_.fetch(meta, deadline, out);
      const NodeId current = owner_of(key);
      if (fetched.code() == StatusCode::kNotFound && current != ctx_.self) {
        // A false hit: the owner's record is stale too, so tell it.
        ctx_.bus->send_owner_erase(current, meta.owner, key, 0);
      }
      return fetched.is_ok();
    }
    if (entry) {
      // The owner names *us*, but our store just said no: a stale record
      // (our erase is in flight, or lost). Nudge the owner; the unversioned
      // erase is the replicated false-hit cleanup's tradeoff.
      ctx_.bus->send_owner_erase(owner, ctx_.self, key, 0);
    } else if (entry.status().code() != StatusCode::kNotFound) {
      ++ctx_.stats->fallback_executions;
      SWALA_LOG(Warn) << "directory lookup at owner " << owner << " failed ("
                      << entry.status().to_string()
                      << "); falling back to local execution";
    }
    return false;
  }

  mutable std::shared_mutex ring_mutex_;
  HashRing ring_;                      ///< guarded by ring_mutex_
  std::optional<HashRing> prev_ring_;  ///< guarded by ring_mutex_
  TimeNs window_closes_ = 0;           ///< guarded by ring_mutex_
};

}  // namespace

std::unique_ptr<Locator> make_partitioned_locator(
    LocatorContext context, std::uint64_t ring_seed, std::size_t ring_vnodes,
    const std::vector<NodeId>& members) {
  return std::make_unique<PartitionedLocator>(std::move(context), ring_seed,
                                              ring_vnodes, members);
}

}  // namespace swala::core

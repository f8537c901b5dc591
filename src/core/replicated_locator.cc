// The replicated locator: the paper's broadcast directory (§3, Table 4).
// Every node mirrors every table, so a key no table knows is a true miss,
// and a peer that lost its view of this node gets the whole self table.
#include "core/locator.h"

namespace swala::core {
namespace {

class ReplicatedLocator final : public Locator {
 public:
  using Locator::Locator;

  void announce_insert(const EntryMeta& meta) override {
    ctx_.bus->broadcast_insert(meta);
  }

  bool announce_erase(const std::string& key,
                      std::uint64_t version) override {
    ctx_.bus->broadcast_erase(ctx_.self, key, version);
    return true;
  }

  bool find(const std::string&, const Deadline&, LookupResult*) override {
    return false;
  }

  std::optional<NodeId> record_holder(const std::string&) const override {
    return std::nullopt;
  }

  // A deterministic key-hash pick among the other members.
  NodeId successor_for(const std::string& key,
                       const std::vector<NodeId>& members) const override {
    std::vector<NodeId> others;
    for (const NodeId n : members) {
      if (n != ctx_.self) others.push_back(n);
    }
    if (others.empty()) return ctx_.self;
    return others[mix64(fnv1a64(key)) % others.size()];
  }

  // A joiner starts with an empty directory, so it gets the full state too.
  void push_state(NodeId, PeerSink* sink, bool) const override {
    for (const auto& meta : ctx_.store->resident_metas()) sink->insert(meta);
  }
};

}  // namespace

std::unique_ptr<Locator> make_replicated_locator(LocatorContext context) {
  return std::make_unique<ReplicatedLocator>(std::move(context));
}

}  // namespace swala::core

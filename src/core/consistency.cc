#include "core/consistency.h"

#include <algorithm>
#include <unordered_set>

#include "core/locator.h"

namespace swala::core {

namespace {

/// Appends " label=[k1, k2, …]" for a non-empty key list, capped at eight
/// keys so failure messages stay readable.
void append_keys(std::string* out, const char* label,
                 const std::vector<std::string>& keys) {
  if (keys.empty()) return;
  *out += std::string(" ") + label + "=[";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i != 0) *out += ", ";
    if (i == 8) {
      *out += "… +" + std::to_string(keys.size() - i) + " more";
      break;
    }
    *out += keys[i];
  }
  *out += "]";
}

std::string members_to_string(const std::vector<NodeId>& members) {
  std::string out = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(members[i]);
  }
  return out + "}";
}

}  // namespace

std::string ConsistencyReport::to_string() const {
  std::string out = "store=" + std::to_string(store_entries) +
                    " directory=" + std::to_string(directory_entries);
  if (consistent()) return out + " (consistent)";
  append_keys(&out, "missing_in_directory", missing_in_directory);
  append_keys(&out, "stale_in_directory", stale_in_directory);
  return out;
}

ConsistencyReport check_store_directory_consistency(
    const CacheStore& store, const CacheDirectory& directory) {
  ConsistencyReport report;
  auto store_keys = store.keys();
  auto dir_keys = directory.keys_at(directory.self());
  report.store_entries = store_keys.size();
  report.directory_entries = dir_keys.size();

  const std::unordered_set<std::string> in_store(store_keys.begin(),
                                                 store_keys.end());
  const std::unordered_set<std::string> in_dir(dir_keys.begin(),
                                               dir_keys.end());
  for (const auto& key : store_keys) {
    if (in_dir.count(key) == 0) report.missing_in_directory.push_back(key);
  }
  for (const auto& key : dir_keys) {
    if (in_store.count(key) == 0) report.stale_in_directory.push_back(key);
  }
  std::sort(report.missing_in_directory.begin(),
            report.missing_in_directory.end());
  std::sort(report.stale_in_directory.begin(), report.stale_in_directory.end());
  return report;
}

std::string ClusterConsistencyReport::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < per_node.size(); ++i) {
    out += "node " + std::to_string(i) + ": " + per_node[i].to_string() + "\n";
  }
  for (const auto& d : drift) {
    out += "drift: node " + std::to_string(d.viewer) + " view of node " +
           std::to_string(d.subject);
    append_keys(&out, "missing", d.missing);
    append_keys(&out, "stale", d.stale);
    out += "\n";
  }
  if (drift.empty()) out += "no cross-node drift\n";
  for (const auto& line : membership_divergence) {
    out += "membership divergence: " + line + "\n";
  }
  for (const auto& line : ownership_violations) {
    out += "ownership violation: " + line + "\n";
  }
  return out;
}

ClusterConsistencyReport check_cluster_consistency(
    const std::vector<const CacheManager*>& managers) {
  ClusterConsistencyReport report;
  report.per_node.resize(managers.size());
  for (std::size_t i = 0; i < managers.size(); ++i) {
    if (managers[i] == nullptr) continue;
    report.per_node[i] = managers[i]->debug_check_consistency();
  }
  // Membership agreement: after convergence every live node must hold the
  // same active set (transient disagreement mid-join/decommission is legal;
  // the oracle runs post-quiesce).
  {
    const CacheManager* reference = nullptr;
    std::vector<NodeId> reference_members;
    for (std::size_t i = 0; i < managers.size(); ++i) {
      if (managers[i] == nullptr) continue;
      if (reference == nullptr) {
        reference = managers[i];
        reference_members = reference->active_members();
        continue;
      }
      const auto members = managers[i]->active_members();
      if (members != reference_members) {
        report.membership_divergence.push_back(
            "node " + std::to_string(i) + ": " + members_to_string(members) +
            " != node " + std::to_string(reference->self()) + ": " +
            members_to_string(reference_members));
      }
    }
  }
  // Post-transition ownership invariant (where one node holds a key's
  // record): every cached key must map to a holder the caching node itself
  // considers active — a record announced to a departed owner would be
  // unreachable forever.
  for (std::size_t i = 0; i < managers.size(); ++i) {
    const CacheManager* m = managers[i];
    if (m == nullptr) continue;
    for (const auto& key : m->store().keys()) {
      const auto holder = m->locator().record_holder(key);
      if (holder && !m->is_member(*holder)) {
        report.ownership_violations.push_back(
            "node " + std::to_string(i) + ": key \"" + key +
            "\" maps to inactive owner " + std::to_string(*holder));
      }
    }
  }
  // Whether `viewer` should hold `key`'s record, as `judge` places it.
  const auto tracks = [](const CacheManager* judge, const std::string& key,
                         std::size_t viewer) {
    const auto holder = judge->locator().record_holder(key);
    return !holder || *holder == static_cast<NodeId>(viewer);
  };
  for (std::size_t i = 0; i < managers.size(); ++i) {
    const CacheManager* viewer = managers[i];
    if (viewer == nullptr) continue;
    for (std::size_t j = 0; j < managers.size(); ++j) {
      const CacheManager* subject = managers[j];
      if (i == j || subject == nullptr) continue;
      const NodeId subject_id = static_cast<NodeId>(j);
      // A viewer is only responsible for subjects it considers active; a
      // decommissioned slot's table was deliberately cleared.
      if (!viewer->is_member(subject_id)) continue;
      // A quarantined table is deliberately stale: the viewer wrote the
      // peer off and the rejoin resync will rebuild it.
      if (viewer->directory().quarantined(subject_id)) continue;
      // Ground truth: what the subject actually caches right now,
      // restricted to the keys this viewer is responsible for tracking.
      std::unordered_set<std::string> truth;
      for (const auto& key : subject->store().keys()) {
        if (tracks(subject, key, i)) truth.insert(key);
      }
      std::unordered_set<std::string> view;
      for (const auto& key : viewer->directory().keys_at(subject_id)) {
        // A mis-routed record is not this viewer's responsibility.
        if (tracks(viewer, key, i)) view.insert(key);
      }
      NodeDrift d;
      d.viewer = static_cast<NodeId>(i);
      d.subject = subject_id;
      for (const auto& key : truth) {
        if (view.count(key) == 0) d.missing.push_back(key);
      }
      for (const auto& key : view) {
        if (truth.count(key) == 0) d.stale.push_back(key);
      }
      if (d.missing.empty() && d.stale.empty()) continue;
      std::sort(d.missing.begin(), d.missing.end());
      std::sort(d.stale.begin(), d.stale.end());
      report.drift.push_back(std::move(d));
    }
  }
  return report;
}

}  // namespace swala::core

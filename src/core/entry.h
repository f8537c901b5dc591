// Cache entry metadata: what the replicated global directory stores about
// every cached CGI result on every node.
#pragma once

#include <cstdint>
#include <string>

#include "common/clock.h"
#include "common/hash.h"

namespace swala::core {

/// Identifies a node within the server group (dense, 0-based).
using NodeId = std::uint32_t;

constexpr NodeId kInvalidNode = ~NodeId{0};

/// Canonical cache key: "<METHOD> <canonical-target>". Two requests with the
/// same key are the same CGI invocation and may share a cached result.
struct CacheKey {
  std::string text;

  static CacheKey make(std::string_view method, std::string_view canonical_target) {
    CacheKey k;
    k.text.reserve(method.size() + 1 + canonical_target.size());
    k.text.append(method);
    k.text.push_back(' ');
    k.text.append(canonical_target);
    return k;
  }

  std::uint64_t hash() const { return fnv1a64(text); }
  bool operator==(const CacheKey&) const = default;
};

/// Directory-visible metadata for one cached entry.
struct EntryMeta {
  std::string key;            ///< CacheKey::text
  NodeId owner = kInvalidNode;
  std::uint64_t size_bytes = 0;
  double cost_seconds = 0.0;  ///< CGI execution time that the entry saves
  TimeNs insert_time = 0;
  TimeNs expire_time = 0;     ///< 0 = never expires
  /// The owning store's access statistics. The directory does not keep
  /// them: directory lookups and directory-originated frames carry 0.
  TimeNs last_access = 0;
  std::uint64_t access_count = 0;
  std::string content_type = "text/html";
  int http_status = 200;
  /// Drawn from the owning store's monotonic counter at insert time; a
  /// re-insert of the same key always gets a strictly larger version, so
  /// version-guarded directory erases can never kill a newer entry.
  std::uint64_t version = 0;

  bool expired(TimeNs now) const { return expire_time != 0 && now >= expire_time; }
};

}  // namespace swala::core

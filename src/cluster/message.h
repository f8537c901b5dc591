// Inter-node wire protocol. Two channels per node, as in the paper (§4.1):
//   * info channel — peers stream INSERT/ERASE directory updates
//     (asynchronous broadcast, weak consistency)
//   * data channel — request/response FETCH of cached content
//
// Framing: u32 little-endian payload length, then the payload:
//   u8 type | u32 sender | type-specific fields
// Strings are u32 length + bytes. All integers little-endian.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/entry.h"
#include "core/inv_log.h"

namespace swala::cluster {

/// Carried by every HELLO; a peer greeting with any other version is
/// refused (the frame fails to decode and the connection drops).
constexpr std::uint8_t kProtocolVersion = 1;

enum class MsgType : std::uint8_t {
  kHello = 1,       ///< first message on an info connection: sender id,
                    ///< protocol version, epochs, membership epoch
  kInsert = 2,      ///< directory update: sender cached an entry
  kErase = 3,       ///< directory update: sender dropped an entry
  kFetchReq = 4,    ///< data request: give me this entry
  kFetchResp = 5,   ///< data response
  kInvalidate = 6,  ///< application-driven invalidation of a key glob
  kSyncReq = 7,     ///< "re-announce your cached entries to me" (rejoin)
  kBatch = 8,       ///< several info-channel updates packed into one frame
  kOwnerUpdate = 9, ///< partitioned mode: unicast insert/erase to ring owner
  kQuery = 10,      ///< query mode: "do you know who caches this key?"
  kQueryHit = 11,   ///< answer to kQuery (meta when found)
  kDigest = 12,     ///< anti-entropy round: epoch vector + directory digest
  kInvSync = 13,    ///< "send me the invalidations after these floors"
  kInvSyncResp = 14,///< answer to kInvSync: missed invalidation records
  kJoin = 15,       ///< data request: "admit me to the cluster"
  kJoinAck = 16,    ///< answer to kJoin: membership epoch + active members
  kDecommission = 17,///< info broadcast: sender is leaving gracefully
};

/// kOwnerUpdate sub-operation (wire byte; anything else is rejected).
enum class OwnerOp : std::uint8_t { kInsert = 1, kErase = 2 };

/// A decoded protocol message (tagged union kept flat for simplicity).
struct Message {
  MsgType type = MsgType::kHello;
  core::NodeId sender = core::kInvalidNode;

  core::EntryMeta meta;   // kInsert/kOwnerUpdate-insert (full), kFetchResp /
                          // kQueryHit (subset); owner = caching node for
                          // kOwnerUpdate-erase
  std::string key;        // kErase, kFetchReq, kQuery, kOwnerUpdate-erase;
                          // the glob for kInvalidate
  std::uint64_t version = 0;  // kErase, kOwnerUpdate-erase
  bool found = false;     // kFetchResp, kQueryHit
  std::string data;       // kFetchResp body
  OwnerOp owner_op = OwnerOp::kInsert;  // kOwnerUpdate
  std::vector<Message> batch;  // kBatch: inner messages, applied in order

  // Anti-entropy fields (PR8).
  std::uint64_t epoch = 0;     // kInvalidate: origin epoch (1-based)
  core::EpochVector epochs;    // kHello, kDigest: high-water
                               // vector; kInvSync: requester floors
  bool has_digest = false;     // kDigest: directory digest present
  std::uint64_t digest = 0;    // kDigest: xor digest of directory versions
  std::vector<core::InvalidationRecord> inv_entries;  // kInvSyncResp
  bool truncated = false;      // kInvSyncResp: log evicted needed records

  // Dynamic membership fields (PR10).
  std::uint64_t membership_epoch = 0;  // kHello, kJoinAck, kDecommission
  std::vector<core::NodeId> members;   // kJoinAck: active member ids
  bool handoff = false;  // kInsert: optional body tail present (state
                         // handoff; the receiver adopts the entry)

  /// Greeting and dead-peer probe: the sender's invalidation high-water
  /// vector (empty before a manager is attached) and membership epoch.
  static Message hello(core::NodeId sender, core::EpochVector epochs,
                       std::uint64_t membership_epoch);
  static Message insert(core::NodeId sender, const core::EntryMeta& meta);
  static Message erase(core::NodeId sender, std::string key,
                       std::uint64_t version);
  static Message fetch_req(core::NodeId sender, std::string key);
  static Message fetch_resp_found(core::NodeId sender,
                                  const core::EntryMeta& meta,
                                  std::string data);
  static Message fetch_resp_miss(core::NodeId sender);
  /// `epoch` is the origin's stamp; decoding rejects epoch 0.
  static Message invalidate(core::NodeId sender, std::string pattern,
                            std::uint64_t epoch);
  static Message sync_req(core::NodeId sender);
  /// Anti-entropy round: high-water epochs + optional directory digest.
  static Message make_digest(core::NodeId sender, core::EpochVector epochs,
                             bool has_digest, std::uint64_t digest);
  /// Pull request: "send every logged invalidation above these floors".
  static Message inv_sync(core::NodeId sender, core::EpochVector floors);
  static Message inv_sync_resp(core::NodeId sender,
                               std::vector<core::InvalidationRecord> entries,
                               bool truncated);
  /// Partitioned mode: tell the ring owner that `meta.owner` now caches it.
  static Message owner_insert(core::NodeId sender, const core::EntryMeta& meta);
  /// Partitioned mode: tell the ring owner that `cache_node` dropped `key`.
  static Message owner_erase(core::NodeId sender, core::NodeId cache_node,
                             std::string key, std::uint64_t version);
  static Message query(core::NodeId sender, std::string key);
  static Message query_hit(core::NodeId sender, const core::EntryMeta& meta);
  static Message query_miss(core::NodeId sender);
  /// Packs `messages` into one frame. Nesting is not allowed: decoding
  /// rejects a batch inside a batch.
  static Message make_batch(core::NodeId sender, std::vector<Message> messages);

  // ---- dynamic membership (PR10) ----
  /// Data-channel request: "admit me to the cluster" (answered by kJoinAck).
  static Message join(core::NodeId sender);
  /// Admission answer: the responder's membership epoch + active member ids.
  static Message join_ack(core::NodeId sender, std::uint64_t membership_epoch,
                          std::vector<core::NodeId> members);
  /// Info broadcast: the sender has drained and is leaving; peers must
  /// deactivate it without quarantining (its state is already handed off).
  static Message decommission(core::NodeId sender,
                              std::uint64_t membership_epoch);
  /// kInsert with the entry body attached (state handoff): the receiver
  /// adopts the entry into its own store instead of recording a pointer.
  static Message insert_handoff(core::NodeId sender,
                                const core::EntryMeta& meta, std::string body);
};

/// Maximum accepted frame (defends the daemons against garbage).
constexpr std::uint32_t kMaxFrameBytes = 64u * 1024 * 1024;

/// Serializes a message into its framed wire form.
std::string encode_message(const Message& msg);

/// Decodes one frame payload (excluding the length prefix).
Result<Message> decode_message(std::string_view payload);

}  // namespace swala::cluster

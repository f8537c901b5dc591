#include "cluster/message.h"

#include <cstring>

namespace swala::cluster {
namespace {

// ---- primitive writers ----

void put_u8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void put_u32(std::string* out, std::uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xFF);
  b[1] = static_cast<char>((v >> 8) & 0xFF);
  b[2] = static_cast<char>((v >> 16) & 0xFF);
  b[3] = static_cast<char>((v >> 24) & 0xFF);
  out->append(b, 4);
}

void put_u64(std::string* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFF));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_double(std::string* out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_string(std::string* out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out->append(s);
}

// ---- primitive readers ----

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool u8(std::uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }

  bool u32(std::uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    const auto* p = reinterpret_cast<const unsigned char*>(data_.data() + pos_);
    *v = static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
    pos_ += 4;
    return true;
  }

  bool u64(std::uint64_t* v) {
    std::uint32_t lo = 0, hi = 0;
    if (!u32(&lo) || !u32(&hi)) return false;
    *v = static_cast<std::uint64_t>(lo) | (static_cast<std::uint64_t>(hi) << 32);
    return true;
  }

  bool f64(double* v) {
    std::uint64_t bits = 0;
    if (!u64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool str(std::string* v) {
    std::uint32_t len = 0;
    if (!u32(&len)) return false;
    if (pos_ + len > data_.size()) return false;
    v->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

void put_meta(std::string* out, const core::EntryMeta& meta) {
  put_string(out, meta.key);
  put_u32(out, meta.owner);
  put_u64(out, meta.size_bytes);
  put_double(out, meta.cost_seconds);
  put_u64(out, static_cast<std::uint64_t>(meta.insert_time));
  put_u64(out, static_cast<std::uint64_t>(meta.expire_time));
  put_u64(out, static_cast<std::uint64_t>(meta.last_access));
  put_u64(out, meta.access_count);
  put_string(out, meta.content_type);
  put_u32(out, static_cast<std::uint32_t>(meta.http_status));
  put_u64(out, meta.version);
}

bool read_meta(Reader* r, core::EntryMeta* meta) {
  std::uint64_t tmp = 0;
  std::uint32_t status = 0;
  if (!r->str(&meta->key)) return false;
  if (!r->u32(&meta->owner)) return false;
  if (!r->u64(&meta->size_bytes)) return false;
  if (!r->f64(&meta->cost_seconds)) return false;
  if (!r->u64(&tmp)) return false;
  meta->insert_time = static_cast<TimeNs>(tmp);
  if (!r->u64(&tmp)) return false;
  meta->expire_time = static_cast<TimeNs>(tmp);
  if (!r->u64(&tmp)) return false;
  meta->last_access = static_cast<TimeNs>(tmp);
  if (!r->u64(&meta->access_count)) return false;
  if (!r->str(&meta->content_type)) return false;
  if (!r->u32(&status)) return false;
  meta->http_status = static_cast<int>(status);
  if (!r->u64(&meta->version)) return false;
  return true;
}

void put_epochs(std::string* out, const core::EpochVector& epochs) {
  put_u32(out, static_cast<std::uint32_t>(epochs.size()));
  for (const auto& [origin, epoch] : epochs) {
    put_u32(out, origin);
    put_u64(out, epoch);
  }
}

bool read_epochs(Reader* r, std::string_view payload,
                 core::EpochVector* epochs) {
  std::uint32_t count = 0;
  if (!r->u32(&count)) return false;
  // Each pair costs 12 bytes on the wire; a lying count cannot exceed what
  // the payload could physically hold.
  if (count > payload.size() / 12) return false;
  epochs->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t origin = 0;
    std::uint64_t epoch = 0;
    if (!r->u32(&origin) || !r->u64(&epoch)) return false;
    epochs->emplace_back(origin, epoch);
  }
  return true;
}

}  // namespace

Message Message::hello(core::NodeId sender, core::EpochVector epochs,
                       std::uint64_t membership_epoch) {
  Message m;
  m.type = MsgType::kHello;
  m.sender = sender;
  m.epochs = std::move(epochs);
  m.membership_epoch = membership_epoch;
  return m;
}

Message Message::insert(core::NodeId sender, const core::EntryMeta& meta) {
  Message m;
  m.type = MsgType::kInsert;
  m.sender = sender;
  m.meta = meta;
  return m;
}

Message Message::erase(core::NodeId sender, std::string key,
                       std::uint64_t version) {
  Message m;
  m.type = MsgType::kErase;
  m.sender = sender;
  m.key = std::move(key);
  m.version = version;
  return m;
}

Message Message::fetch_req(core::NodeId sender, std::string key) {
  Message m;
  m.type = MsgType::kFetchReq;
  m.sender = sender;
  m.key = std::move(key);
  return m;
}

Message Message::fetch_resp_found(core::NodeId sender,
                                  const core::EntryMeta& meta,
                                  std::string data) {
  Message m;
  m.type = MsgType::kFetchResp;
  m.sender = sender;
  m.found = true;
  m.meta = meta;
  m.data = std::move(data);
  return m;
}

Message Message::fetch_resp_miss(core::NodeId sender) {
  Message m;
  m.type = MsgType::kFetchResp;
  m.sender = sender;
  m.found = false;
  return m;
}

Message Message::invalidate(core::NodeId sender, std::string pattern,
                            std::uint64_t epoch) {
  Message m;
  m.type = MsgType::kInvalidate;
  m.sender = sender;
  m.key = std::move(pattern);
  m.epoch = epoch;
  return m;
}

Message Message::sync_req(core::NodeId sender) {
  Message m;
  m.type = MsgType::kSyncReq;
  m.sender = sender;
  return m;
}

Message Message::make_digest(core::NodeId sender, core::EpochVector epochs,
                             bool has_digest, std::uint64_t digest) {
  Message m;
  m.type = MsgType::kDigest;
  m.sender = sender;
  m.epochs = std::move(epochs);
  m.has_digest = has_digest;
  m.digest = digest;
  return m;
}

Message Message::inv_sync(core::NodeId sender, core::EpochVector floors) {
  Message m;
  m.type = MsgType::kInvSync;
  m.sender = sender;
  m.epochs = std::move(floors);
  return m;
}

Message Message::inv_sync_resp(core::NodeId sender,
                               std::vector<core::InvalidationRecord> entries,
                               bool truncated) {
  Message m;
  m.type = MsgType::kInvSyncResp;
  m.sender = sender;
  m.inv_entries = std::move(entries);
  m.truncated = truncated;
  return m;
}

Message Message::owner_insert(core::NodeId sender,
                              const core::EntryMeta& meta) {
  Message m;
  m.type = MsgType::kOwnerUpdate;
  m.sender = sender;
  m.owner_op = OwnerOp::kInsert;
  m.meta = meta;
  return m;
}

Message Message::owner_erase(core::NodeId sender, core::NodeId cache_node,
                             std::string key, std::uint64_t version) {
  Message m;
  m.type = MsgType::kOwnerUpdate;
  m.sender = sender;
  m.owner_op = OwnerOp::kErase;
  m.meta.owner = cache_node;
  m.key = std::move(key);
  m.version = version;
  return m;
}

Message Message::query(core::NodeId sender, std::string key) {
  Message m;
  m.type = MsgType::kQuery;
  m.sender = sender;
  m.key = std::move(key);
  return m;
}

Message Message::query_hit(core::NodeId sender, const core::EntryMeta& meta) {
  Message m;
  m.type = MsgType::kQueryHit;
  m.sender = sender;
  m.found = true;
  m.meta = meta;
  return m;
}

Message Message::query_miss(core::NodeId sender) {
  Message m;
  m.type = MsgType::kQueryHit;
  m.sender = sender;
  m.found = false;
  return m;
}

Message Message::make_batch(core::NodeId sender,
                            std::vector<Message> messages) {
  Message m;
  m.type = MsgType::kBatch;
  m.sender = sender;
  m.batch = std::move(messages);
  return m;
}

Message Message::join(core::NodeId sender) {
  Message m;
  m.type = MsgType::kJoin;
  m.sender = sender;
  return m;
}

Message Message::join_ack(core::NodeId sender, std::uint64_t membership_epoch,
                          std::vector<core::NodeId> members) {
  Message m;
  m.type = MsgType::kJoinAck;
  m.sender = sender;
  m.membership_epoch = membership_epoch;
  m.members = std::move(members);
  return m;
}

Message Message::decommission(core::NodeId sender,
                              std::uint64_t membership_epoch) {
  Message m;
  m.type = MsgType::kDecommission;
  m.sender = sender;
  m.membership_epoch = membership_epoch;
  return m;
}

Message Message::insert_handoff(core::NodeId sender,
                                const core::EntryMeta& meta,
                                std::string body) {
  Message m;
  m.type = MsgType::kInsert;
  m.sender = sender;
  m.meta = meta;
  m.handoff = true;
  m.data = std::move(body);
  return m;
}

std::string encode_message(const Message& msg) {
  std::string payload;
  put_u8(&payload, static_cast<std::uint8_t>(msg.type));
  put_u32(&payload, msg.sender);
  switch (msg.type) {
    case MsgType::kHello:
      put_u8(&payload, kProtocolVersion);
      put_epochs(&payload, msg.epochs);
      put_u64(&payload, msg.membership_epoch);
      break;
    case MsgType::kSyncReq:
      break;
    case MsgType::kInsert:
      put_meta(&payload, msg.meta);
      // Optional handoff tail: flags byte + entry body. Plain directory
      // updates stay byte-identical to every prior build.
      if (msg.handoff) {
        put_u8(&payload, 1);
        put_string(&payload, msg.data);
      }
      break;
    case MsgType::kErase:
      put_string(&payload, msg.key);
      put_u64(&payload, msg.version);
      break;
    case MsgType::kFetchReq:
      put_string(&payload, msg.key);
      break;
    case MsgType::kInvalidate:
      put_string(&payload, msg.key);
      put_u64(&payload, msg.epoch);
      break;
    case MsgType::kFetchResp:
      put_u8(&payload, msg.found ? 1 : 0);
      if (msg.found) {
        put_meta(&payload, msg.meta);
        put_string(&payload, msg.data);
      }
      break;
    case MsgType::kOwnerUpdate:
      put_u8(&payload, static_cast<std::uint8_t>(msg.owner_op));
      if (msg.owner_op == OwnerOp::kInsert) {
        put_meta(&payload, msg.meta);
      } else {
        put_u32(&payload, msg.meta.owner);  // the caching node
        put_string(&payload, msg.key);
        put_u64(&payload, msg.version);
      }
      break;
    case MsgType::kQuery:
      put_string(&payload, msg.key);
      break;
    case MsgType::kQueryHit:
      put_u8(&payload, msg.found ? 1 : 0);
      if (msg.found) put_meta(&payload, msg.meta);
      break;
    case MsgType::kBatch:
      // Each inner message keeps its full framed form (u32 length + payload)
      // so the decoder can delimit them with the ordinary string reader.
      put_u32(&payload, static_cast<std::uint32_t>(msg.batch.size()));
      for (const Message& inner : msg.batch) payload += encode_message(inner);
      break;
    case MsgType::kDigest:
      put_epochs(&payload, msg.epochs);
      put_u8(&payload, msg.has_digest ? 1 : 0);
      if (msg.has_digest) put_u64(&payload, msg.digest);
      break;
    case MsgType::kInvSync:
      put_epochs(&payload, msg.epochs);
      break;
    case MsgType::kInvSyncResp:
      put_u8(&payload, msg.truncated ? 1 : 0);
      put_u32(&payload, static_cast<std::uint32_t>(msg.inv_entries.size()));
      for (const auto& rec : msg.inv_entries) {
        put_u32(&payload, rec.origin);
        put_u64(&payload, rec.epoch);
        put_string(&payload, rec.pattern);
      }
      break;
    case MsgType::kJoin:
      break;
    case MsgType::kJoinAck:
      put_u64(&payload, msg.membership_epoch);
      put_u32(&payload, static_cast<std::uint32_t>(msg.members.size()));
      for (const core::NodeId id : msg.members) put_u32(&payload, id);
      break;
    case MsgType::kDecommission:
      put_u64(&payload, msg.membership_epoch);
      break;
  }
  std::string frame;
  frame.reserve(4 + payload.size());
  put_u32(&frame, static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  return frame;
}

Result<Message> decode_message(std::string_view payload) {
  Reader r(payload);
  std::uint8_t type = 0;
  Message msg;
  if (!r.u8(&type) || !r.u32(&msg.sender)) {
    return Status(StatusCode::kInvalidArgument, "truncated message header");
  }
  msg.type = static_cast<MsgType>(type);
  bool ok = true;
  switch (msg.type) {
    case MsgType::kHello: {
      std::uint8_t version = 0;
      if (r.u8(&version) && version != kProtocolVersion) {
        return Status(StatusCode::kInvalidArgument,
                      "unsupported protocol version " +
                          std::to_string(version) + " (expected " +
                          std::to_string(kProtocolVersion) + ")");
      }
      ok = read_epochs(&r, payload, &msg.epochs) &&
           r.u64(&msg.membership_epoch);
      break;
    }
    case MsgType::kSyncReq:
      break;
    case MsgType::kInsert:
      ok = read_meta(&r, &msg.meta);
      // Optional handoff tail: flags byte + body (absent on plain updates).
      if (ok && !r.done()) {
        std::uint8_t flags = 0;
        ok = r.u8(&flags) && flags == 1 && r.str(&msg.data);
        msg.handoff = ok;
      }
      break;
    case MsgType::kErase:
      ok = r.str(&msg.key) && r.u64(&msg.version);
      break;
    case MsgType::kFetchReq:
      ok = r.str(&msg.key);
      break;
    case MsgType::kInvalidate:
      // Origin epochs start at 1 (InvalidationLog::originate).
      ok = r.str(&msg.key) && r.u64(&msg.epoch) && msg.epoch != 0;
      break;
    case MsgType::kFetchResp: {
      std::uint8_t found = 0;
      ok = r.u8(&found);
      msg.found = found != 0;
      if (ok && msg.found) ok = read_meta(&r, &msg.meta) && r.str(&msg.data);
      break;
    }
    case MsgType::kOwnerUpdate: {
      std::uint8_t op = 0;
      ok = r.u8(&op);
      if (ok && op == static_cast<std::uint8_t>(OwnerOp::kInsert)) {
        msg.owner_op = OwnerOp::kInsert;
        ok = read_meta(&r, &msg.meta);
      } else if (ok && op == static_cast<std::uint8_t>(OwnerOp::kErase)) {
        msg.owner_op = OwnerOp::kErase;
        ok = r.u32(&msg.meta.owner) && r.str(&msg.key) && r.u64(&msg.version);
      } else {
        ok = false;  // unknown owner-update op
      }
      break;
    }
    case MsgType::kQuery:
      ok = r.str(&msg.key);
      break;
    case MsgType::kQueryHit: {
      std::uint8_t found = 0;
      ok = r.u8(&found);
      msg.found = found != 0;
      if (ok && msg.found) ok = read_meta(&r, &msg.meta);
      break;
    }
    case MsgType::kBatch: {
      std::uint32_t count = 0;
      ok = r.u32(&count);
      // A lying count cannot exceed what the payload could physically hold:
      // every inner message costs at least its 4-byte length prefix plus a
      // 5-byte header.
      if (ok && count > payload.size() / 9) ok = false;
      for (std::uint32_t i = 0; ok && i < count; ++i) {
        std::string inner;
        if (!r.str(&inner)) {
          ok = false;
          break;
        }
        auto decoded = decode_message(inner);
        if (!decoded || decoded.value().type == MsgType::kBatch) {
          ok = false;  // malformed inner, or an (unsupported) nested batch
          break;
        }
        msg.batch.push_back(std::move(decoded.value()));
      }
      break;
    }
    case MsgType::kDigest: {
      std::uint8_t has = 0;
      ok = read_epochs(&r, payload, &msg.epochs) && r.u8(&has);
      msg.has_digest = has != 0;
      if (ok && msg.has_digest) ok = r.u64(&msg.digest);
      break;
    }
    case MsgType::kInvSync:
      ok = read_epochs(&r, payload, &msg.epochs);
      break;
    case MsgType::kInvSyncResp: {
      std::uint8_t trunc = 0;
      std::uint32_t count = 0;
      ok = r.u8(&trunc) && r.u32(&count);
      msg.truncated = trunc != 0;
      // Each record costs at least 16 bytes (u32 origin + u64 epoch + u32
      // pattern length); a lying count cannot exceed that bound.
      if (ok && count > payload.size() / 16) ok = false;
      for (std::uint32_t i = 0; ok && i < count; ++i) {
        core::InvalidationRecord rec;
        ok = r.u32(&rec.origin) && r.u64(&rec.epoch) && rec.epoch != 0 &&
             r.str(&rec.pattern);
        if (ok) msg.inv_entries.push_back(std::move(rec));
      }
      break;
    }
    case MsgType::kJoin:
      break;
    case MsgType::kJoinAck: {
      std::uint32_t count = 0;
      ok = r.u64(&msg.membership_epoch) && r.u32(&count);
      // Each member id costs 4 bytes on the wire; a lying count cannot
      // exceed what the payload could physically hold.
      if (ok && count > payload.size() / 4) ok = false;
      for (std::uint32_t i = 0; ok && i < count; ++i) {
        core::NodeId id = 0;
        ok = r.u32(&id);
        if (ok) msg.members.push_back(id);
      }
      break;
    }
    case MsgType::kDecommission:
      ok = r.u64(&msg.membership_epoch);
      break;
    default:
      return Status(StatusCode::kInvalidArgument,
                    "unknown message type " + std::to_string(type));
  }
  if (!ok || !r.done()) {
    return Status(StatusCode::kInvalidArgument, "malformed message payload");
  }
  return msg;
}

}  // namespace swala::cluster

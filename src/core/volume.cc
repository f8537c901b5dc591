#include "core/volume.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include "common/hash.h"
#include "common/logging.h"

namespace swala::core {

namespace {

void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t get_u32(std::string_view in, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[off + i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(std::string_view in, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[off + i]))
         << (8 * i);
  }
  return v;
}

std::string encode_segment_header(std::uint64_t seq, std::uint64_t capacity) {
  std::string h;
  h.reserve(kVolumeSegmentHeaderSize);
  put_u32(&h, kVolumeSegmentMagic);
  put_u32(&h, kVolumeFormatVersion);
  put_u64(&h, seq);
  put_u32(&h, static_cast<std::uint32_t>(capacity));
  put_u32(&h, 0);  // reserved
  put_u32(&h, crc32c(h));  // first 24 bytes
  put_u32(&h, 0);  // pad to 32
  return h;
}

std::string encode_record_header(std::uint64_t seq, StorageId id,
                                 std::uint64_t key_hash,
                                 std::string_view payload) {
  std::string h;
  h.reserve(kVolumeRecordHeaderSize);
  put_u32(&h, kVolumeRecordMagic);
  put_u32(&h, kVolumeFormatVersion);
  put_u64(&h, seq);
  put_u64(&h, id);
  put_u64(&h, key_hash);
  put_u32(&h, static_cast<std::uint32_t>(payload.size()));
  put_u32(&h, 0);  // flags
  put_u32(&h, crc32c(payload));
  put_u32(&h, crc32c(h));  // first 44 bytes
  return h;
}

/// Structural validation of a 48-byte record header (magic, version, CRC).
/// Does NOT check the payload or the sequence binding.
bool record_header_valid(std::string_view h) {
  if (h.size() < kVolumeRecordHeaderSize) return false;
  if (get_u32(h, 0) != kVolumeRecordMagic) return false;
  if (get_u32(h, 4) != kVolumeFormatVersion) return false;
  return get_u32(h, 44) == crc32c(h.substr(0, 44));
}

bool all_zero(std::string_view bytes) {
  for (const char c : bytes) {
    if (c != '\0') return false;
  }
  return true;
}

}  // namespace

VolumeBackend::VolumeBackend(std::string dir, VolumeOptions options, FsOps* fs,
                             const Clock* clock)
    : dir_(std::move(dir)),
      options_(options),
      fs_(fs != nullptr ? fs : FsOps::real()),
      clock_(clock != nullptr ? clock : RealClock::instance()) {
  counters_.backend = "volume";
  init_status_ = make_dirs(fs_, dir_);
  if (!init_status_.is_ok()) {
    SWALA_LOG(Error) << "volume directory unusable: "
                     << init_status_.to_string();
    return;
  }
  if (options_.segment_bytes <=
      kVolumeSegmentHeaderSize + kVolumeRecordHeaderSize) {
    init_status_ = Status(StatusCode::kInvalidArgument,
                          "volume segment_bytes too small");
    return;
  }
  const std::uint64_t slots = options_.volume_bytes / options_.segment_bytes;
  if (slots < 2) {
    init_status_ = Status(
        StatusCode::kInvalidArgument,
        "volume_bytes must hold at least two segments of segment_bytes");
    return;
  }
  slot_count_ = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(slots, 0xFFFFFFFEull));

  const std::string path = volume_path();
  fd_ = fs_->open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    init_status_ = Status(StatusCode::kIoError,
                          "open " + path + ": " + std::strerror(errno));
    return;
  }
  const off_t existing = ::lseek(fd_, 0, SEEK_END);
  const std::uint64_t total =
      static_cast<std::uint64_t>(slot_count_) * options_.segment_bytes;
  if (existing < 0 || static_cast<std::uint64_t>(existing) < total) {
    // Preallocate up front so steady-state flushes never extend the file
    // (and ENOSPC surfaces here, at startup, not mid-flush).
    if (fs_->ftruncate(fd_, static_cast<off_t>(total)) != 0) {
      init_status_ =
          Status(StatusCode::kIoError,
                 "preallocate " + path + ": " + std::strerror(errno));
      (void)fs_->close(fd_);
      fd_ = -1;
      return;
    }
  }
  segments_.assign(slot_count_, Segment{});
  if (existing > 0) recover();
  load_sidecar_index();
  last_flush_ = clock_->now();
}

VolumeBackend::~VolumeBackend() {
  // No lock: destruction implies no concurrent users (outstanding pins hold
  // the backend via shared_ptr, so the destructor runs after the last one).
  if (fd_ >= 0) {
    if (retain_.load(std::memory_order_relaxed)) {
      (void)flush_locked();  // best effort: don't strand the buffered tail
      (void)fs_->close(fd_);
    } else {
      (void)fs_->close(fd_);
      (void)fs_->unlink(volume_path().c_str());
      (void)fs_->unlink(index_path().c_str());
    }
    fd_ = -1;
  }
}

Status VolumeBackend::read_at(std::uint64_t offset, std::size_t len,
                              char* out) const {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n =
        fs_->pread(fd_, out + off, len - off, static_cast<off_t>(offset + off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status(StatusCode::kIoError,
                    "volume pread: " + std::string(std::strerror(errno)));
    }
    if (n == 0) {
      return Status(StatusCode::kIoError, "volume pread: unexpected EOF");
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

void VolumeBackend::recover() {
  // One sequential pass, no per-entry file opens: read every slot header,
  // then scan the records of each valid segment. Later sequence numbers win
  // when two segments carry the same storage id (compaction copies).
  struct Candidate {
    std::uint32_t slot;
    std::uint64_t seq;
  };
  std::vector<Candidate> candidates;
  char hdr[kVolumeSegmentHeaderSize];
  std::uint64_t max_seq = 0;
  std::uint32_t max_seq_slot = kBufferSlot;
  for (std::uint32_t slot = 0; slot < slot_count_; ++slot) {
    if (!read_at(slot_base(slot), sizeof(hdr), hdr).is_ok()) continue;
    const std::string_view h(hdr, sizeof(hdr));
    if (get_u32(h, 0) != kVolumeSegmentMagic) continue;
    if (get_u32(h, 4) != kVolumeFormatVersion) continue;
    if (get_u32(h, 24) != crc32c(h.substr(0, 24))) continue;
    if (get_u32(h, 16) != options_.segment_bytes) continue;  // resized
    const std::uint64_t seq = get_u64(h, 8);
    if (seq == 0) continue;
    candidates.push_back({slot, seq});
    if (seq > max_seq) {
      max_seq = seq;
      max_seq_slot = slot;
    }
  }
  next_seq_ = max_seq + 1;

  std::string blob;
  for (const auto& cand : candidates) {
    const bool open_tail = cand.slot == max_seq_slot;
    blob.resize(options_.segment_bytes);
    if (!read_at(slot_base(cand.slot), options_.segment_bytes, blob.data())
             .is_ok()) {
      continue;
    }
    const std::string_view seg(blob);
    std::size_t pos = kVolumeSegmentHeaderSize;
    while (pos + kVolumeRecordHeaderSize <= seg.size()) {
      const std::string_view rh = seg.substr(pos, kVolumeRecordHeaderSize);
      if (!record_header_valid(rh)) {
        if (all_zero(rh)) break;  // never-written space: clean end
        if (open_tail) {
          // The crash tore the last flush group; everything from here on is
          // the lost tail. Adopt nothing past the last valid record.
          ++counters_.torn_tail_truncated;
          break;
        }
        // Sealed segment: a damaged record. Resync on the next structurally
        // valid header bound to this segment's sequence number.
        std::size_t next = std::string::npos;
        for (std::size_t p = pos + 1;
             p + kVolumeRecordHeaderSize <= seg.size(); ++p) {
          if (get_u32(seg, p) != kVolumeRecordMagic) continue;
          const std::string_view cand_h =
              seg.substr(p, kVolumeRecordHeaderSize);
          if (!record_header_valid(cand_h)) continue;
          if (get_u64(cand_h, 8) != cand.seq) continue;
          next = p;
          break;
        }
        ++counters_.corrupt_records_skipped;
        if (next == std::string::npos) break;
        pos = next;
        continue;
      }
      if (get_u64(rh, 8) != cand.seq) break;  // stale older generation: end
      const StorageId id = get_u64(rh, 16);
      const std::uint64_t key_hash = get_u64(rh, 24);
      const std::uint32_t len = get_u32(rh, 32);
      if (pos + kVolumeRecordHeaderSize + len > seg.size()) {
        if (open_tail) {
          ++counters_.torn_tail_truncated;
        } else {
          ++counters_.corrupt_records_skipped;
        }
        break;
      }
      const std::string_view payload =
          seg.substr(pos + kVolumeRecordHeaderSize, len);
      if (get_u32(rh, 40) != crc32c(payload)) {
        if (open_tail) {
          // Torn payload in the final flush group.
          ++counters_.torn_tail_truncated;
          break;
        }
        ++counters_.corrupt_records_skipped;
        pos += kVolumeRecordHeaderSize + len;
        continue;
      }
      const auto it = recovered_.find(id);
      if (it == recovered_.end() || it->second.seq < cand.seq) {
        recovered_[id] = RecoveredRec{
            cand.slot, slot_base(cand.slot) + pos, len, key_hash, cand.seq};
      }
      if (id >= next_id_) next_id_ = id + 1;
      pos += kVolumeRecordHeaderSize + len;
    }
    Segment& s = segments_[cand.slot];
    s.state = SegState::kSealed;
    s.seq = cand.seq;
    s.write_off = pos;
    s.live_bytes = 0;  // accumulated by adopt()
  }
  const StorageCounters& c = counters_;
  if (c.torn_tail_truncated != 0 || c.corrupt_records_skipped != 0) {
    SWALA_LOG(Warn) << "volume recovery walk: " << recovered_.size()
                    << " records recovered, " << c.corrupt_records_skipped
                    << " corrupt skipped, " << c.torn_tail_truncated
                    << " torn tails truncated";
  }
}

void VolumeBackend::load_sidecar_index() {
  // The recovery walk is authoritative; the sidecar written by sync() is
  // only cross-checked so silent divergence (index/manifest mismatch)
  // becomes a visible counter instead of a latent wrong answer.
  const std::string path = index_path();
  const int fd = fs_->open(path.c_str(), O_RDONLY, 0);
  if (fd < 0) return;  // absent is normal on first boot
  std::string content;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = fs_->read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      (void)fs_->close(fd);
      return;
    }
    if (n == 0) break;
    content.append(buf, static_cast<std::size_t>(n));
  }
  (void)fs_->close(fd);

  std::size_t pos = 0;
  const auto next_line = [&]() -> std::string_view {
    if (pos >= content.size()) return {};
    const auto nl = content.find('\n', pos);
    const auto end = nl == std::string::npos ? content.size() : nl;
    const std::string_view line(content.data() + pos, end - pos);
    pos = end + 1;
    return line;
  };
  const std::string_view header = next_line();
  if (header != "swala-volindex 1") {
    ++counters_.index_mismatches;
    return;
  }
  while (pos < content.size()) {
    const std::string_view line = next_line();
    if (line.empty()) continue;
    std::uint64_t id = 0, offset = 0, len = 0;
    if (std::sscanf(std::string(line).c_str(), "%llu %llu %llu",
                    reinterpret_cast<unsigned long long*>(&id),
                    reinterpret_cast<unsigned long long*>(&offset),
                    reinterpret_cast<unsigned long long*>(&len)) != 3) {
      ++counters_.index_mismatches;
      continue;
    }
    const auto it = recovered_.find(id);
    if (it == recovered_.end() || it->second.offset != offset ||
        it->second.payload_len != len) {
      ++counters_.index_mismatches;
    }
  }
  if (counters_.index_mismatches != 0) {
    SWALA_LOG(Warn) << "volume sidecar index disagrees with recovery walk on "
                    << counters_.index_mismatches << " entries (walk wins)";
  }
}

void VolumeBackend::append_record_locked(StorageId id, std::uint64_t key_hash,
                                         std::string_view payload) {
  const std::uint64_t buf_off = buffer_.size();
  buffer_ += encode_record_header(segments_[active_slot_].seq, id, key_hash,
                                  payload);
  buffer_.append(payload.data(), payload.size());
  buffered_.push_back(
      {id, buf_off, static_cast<std::uint32_t>(payload.size())});
  index_[id] = IndexEntry{kBufferSlot, buf_off,
                          static_cast<std::uint32_t>(payload.size()), key_hash};
}

Status VolumeBackend::open_segment_locked() {
  auto find_free = [&]() -> std::uint32_t {
    for (std::uint32_t s = 0; s < slot_count_; ++s) {
      if (segments_[s].state == SegState::kFree) return s;
    }
    return kBufferSlot;
  };
  std::uint32_t slot = find_free();
  if (slot == kBufferSlot && !compacting_) {
    if (const Status st = compact_locked(); !st.is_ok()) return st;
    slot = find_free();
  }
  if (slot == kBufferSlot) {
    return Status(StatusCode::kResourceExhausted,
                  "volume full: no free segment");
  }
  Segment& s = segments_[slot];
  s.state = SegState::kOpen;
  s.seq = next_seq_++;
  s.write_off = 0;
  s.live_bytes = 0;
  active_slot_ = slot;
  buffer_disk_base_ = slot_base(slot);
  // The segment header rides in the buffer; it becomes durable with the
  // first flush, so a crash before that leaves the slot looking free.
  buffer_ += encode_segment_header(s.seq, options_.segment_bytes);
  return Status::ok();
}

Status VolumeBackend::flush_locked() {
  if (buffer_.empty()) return Status::ok();
  // One sequential pwrite of the whole flush group, then ONE fsync — this is
  // the entire per-group durability cost, versus five metadata syscalls per
  // record in DiskBackend. On failure the buffer is kept (entries stay
  // readable from RAM) and a later put/sync retries the same bytes at the
  // same offsets.
  std::size_t off = 0;
  while (off < buffer_.size()) {
    const ssize_t n =
        fs_->pwrite(fd_, buffer_.data() + off, buffer_.size() - off,
                    static_cast<off_t>(buffer_disk_base_ + off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status(StatusCode::kIoError,
                    "volume flush pwrite: " + std::string(std::strerror(errno)));
    }
    if (n == 0) {
      return Status(StatusCode::kIoError, "volume flush pwrite: no progress");
    }
    off += static_cast<std::size_t>(n);
  }
  if (fs_->fsync(fd_) != 0) {
    return Status(StatusCode::kIoError,
                  "volume flush fsync: " + std::string(std::strerror(errno)));
  }
  Segment& seg = segments_[active_slot_];
  for (const BufferedRec& rec : buffered_) {
    const auto it = index_.find(rec.id);
    if (it != index_.end() && it->second.slot == kBufferSlot &&
        it->second.offset == rec.buf_off) {
      it->second.slot = active_slot_;
      it->second.offset = buffer_disk_base_ + rec.buf_off;
      seg.live_bytes += kVolumeRecordHeaderSize + rec.payload_len;
      ++counters_.flushed_records;
    } else {
      // Erased (or failed) while buffered: its bytes land on disk dead.
      dead_bytes_ += kVolumeRecordHeaderSize + rec.payload_len;
    }
  }
  seg.write_off = buffer_disk_base_ + buffer_.size() - slot_base(active_slot_);
  buffer_disk_base_ += buffer_.size();
  buffer_.clear();
  buffered_.clear();
  ++counters_.flushes;
  last_flush_ = clock_->now();

  if (!compacting_) {
    // Keep one free slot in reserve so compaction's own appends can always
    // seal into fresh space (the low-watermark that guarantees progress).
    std::uint32_t free_slots = 0;
    for (const Segment& s : segments_) {
      if (s.state == SegState::kFree) ++free_slots;
    }
    if (free_slots <= 1) (void)compact_locked();
  }
  return Status::ok();
}

Status VolumeBackend::compact_locked() {
  compacting_ = true;
  const auto done = [&](Status st) {
    compacting_ = false;
    return st;
  };
  std::uint32_t victim = kBufferSlot;
  for (std::uint32_t s = 0; s < slot_count_; ++s) {
    if (segments_[s].state != SegState::kSealed) continue;
    if (victim == kBufferSlot ||
        segments_[s].live_bytes < segments_[victim].live_bytes) {
      victim = s;
    }
  }
  if (victim == kBufferSlot) {
    return done(Status(StatusCode::kResourceExhausted,
                       "volume full: no compactable segment"));
  }
  Segment& seg = segments_[victim];
  if (seg.live_bytes == 0) {
    seg.state = seg.readers > 0 ? SegState::kDraining : SegState::kFree;
    ++counters_.compactions;
    return done(Status::ok());
  }

  // Collect the victim's live records, then relocate them through the
  // normal buffered write path. The single write buffer orders the copies
  // ahead of any reuse of this slot, so a crash at any point leaves either
  // the originals (old seq) or durable copies (new seq) adoptable.
  struct Move {
    StorageId id;
    IndexEntry entry;
  };
  std::vector<Move> moves;
  for (const auto& [id, entry] : index_) {
    if (entry.slot == victim) moves.push_back({id, entry});
  }
  std::string blob(seg.write_off, '\0');
  if (const Status st = read_at(slot_base(victim), seg.write_off, blob.data());
      !st.is_ok()) {
    return done(st);
  }
  const std::string_view data(blob);
  std::uint64_t moved = 0;
  for (const Move& m : moves) {
    const std::size_t rel = m.entry.offset - slot_base(victim);
    const std::string_view rh = data.substr(rel, kVolumeRecordHeaderSize);
    const std::string_view payload =
        data.substr(rel + kVolumeRecordHeaderSize, m.entry.payload_len);
    if (!record_header_valid(rh) || get_u64(rh, 16) != m.id ||
        get_u32(rh, 40) != crc32c(payload)) {
      // Bit rot since the record was written; drop it rather than copy
      // garbage forward under a fresh checksum.
      ++counters_.corrupt_records_skipped;
      bytes_ -= m.entry.payload_len;
      seg.live_bytes -= kVolumeRecordHeaderSize + m.entry.payload_len;
      index_.erase(m.id);
      continue;
    }
    if (const Status st =
            ensure_fit_locked(kVolumeRecordHeaderSize + payload.size());
        !st.is_ok()) {
      // Partial compaction: already-moved records are fine, the rest still
      // point at the victim, which stays sealed.
      return done(st);
    }
    append_record_locked(m.id, m.entry.key_hash, payload);
    seg.live_bytes -= kVolumeRecordHeaderSize + m.entry.payload_len;
    ++moved;
  }
  seg.live_bytes = 0;
  seg.state = seg.readers > 0 ? SegState::kDraining : SegState::kFree;
  ++counters_.compactions;
  counters_.compacted_records += moved;
  return done(Status::ok());
}

Status VolumeBackend::ensure_fit_locked(std::uint64_t record_size) {
  if (active_slot_ == kBufferSlot) {
    if (const Status st = open_segment_locked(); !st.is_ok()) return st;
  }
  // Backpressure: if flushes keep failing the buffer must not grow without
  // bound; past 4 flush groups the failure surfaces to the caller.
  if (buffer_.size() + record_size > 4 * options_.write_buffer_bytes +
                                         kVolumeSegmentHeaderSize) {
    if (const Status st = flush_locked(); !st.is_ok()) return st;
  }
  const auto remaining = [&]() {
    const std::uint64_t used =
        buffer_disk_base_ + buffer_.size() - slot_base(active_slot_);
    return options_.segment_bytes - used;
  };
  if (remaining() >= record_size) return Status::ok();
  // Record would cross the segment boundary: drain the buffer into the open
  // segment, seal it, and start a fresh one.
  if (const Status st = flush_locked(); !st.is_ok()) return st;
  if (remaining() >= record_size) return Status::ok();
  segments_[active_slot_].state = SegState::kSealed;
  active_slot_ = kBufferSlot;
  return open_segment_locked();
}

Result<StorageId> VolumeBackend::put(std::string_view data,
                                     std::uint64_t key_hash) {
  if (!init_status_.is_ok()) return init_status_;
  const std::uint64_t record_size = kVolumeRecordHeaderSize + data.size();
  if (record_size > options_.segment_bytes - kVolumeSegmentHeaderSize) {
    return Status(StatusCode::kResourceExhausted,
                  "object larger than a volume segment");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (const Status st = ensure_fit_locked(record_size); !st.is_ok()) return st;
  const StorageId id = next_id_++;
  append_record_locked(id, key_hash, data);
  bytes_ += data.size();
  const bool flush_now =
      buffer_.size() >= options_.write_buffer_bytes ||
      clock_->now() - last_flush_ >=
          from_millis(static_cast<double>(options_.flush_interval_ms));
  if (flush_now) {
    if (const Status st = flush_locked(); !st.is_ok()) {
      // This put is being reported as failed; take its entry back so the
      // store never references data we could not promise. Its bytes stay in
      // the buffer as a dead record (the flip loop skips missing ids).
      index_.erase(id);
      bytes_ -= data.size();
      return st;
    }
  }
  return id;
}

Result<std::string> VolumeBackend::get(StorageId id) {
  IndexEntry entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(id);
    if (it == index_.end()) {
      return Status(StatusCode::kNotFound,
                    "no volume record " + std::to_string(id));
    }
    entry = it->second;
    if (entry.slot == kBufferSlot) {
      // Still in the write buffer: serve straight from RAM (just encoded,
      // nothing to verify).
      return std::string(
          buffer_.data() + entry.offset + kVolumeRecordHeaderSize,
          entry.payload_len);
    }
    // Pin the slot against reuse while the pread is in flight.
    ++segments_[entry.slot].readers;
  }
  std::string rec(kVolumeRecordHeaderSize + entry.payload_len, '\0');
  const Status read_st = read_at(entry.offset, rec.size(), rec.data());
  Status verify_st = Status::ok();
  if (read_st.is_ok()) {
    const std::string_view rh(rec.data(), kVolumeRecordHeaderSize);
    const std::string_view payload(rec.data() + kVolumeRecordHeaderSize,
                                   entry.payload_len);
    if (!record_header_valid(rh) || get_u64(rh, 16) != id ||
        get_u32(rh, 32) != entry.payload_len ||
        (entry.key_hash != 0 && get_u64(rh, 24) != entry.key_hash) ||
        get_u32(rh, 40) != crc32c(payload)) {
      verify_st = Status(StatusCode::kCorrupt,
                         "volume record " + std::to_string(id) +
                             " failed integrity verification");
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    release_reader_locked(entry.slot);
  }
  if (!read_st.is_ok()) return read_st;
  if (!verify_st.is_ok()) {
    SWALA_LOG(Warn) << verify_st.to_string();
    return verify_st;
  }
  rec.erase(0, kVolumeRecordHeaderSize);
  return rec;
}

void VolumeBackend::release_reader_locked(std::uint32_t slot) {
  Segment& s = segments_[slot];
  if (--s.readers == 0 && s.state == SegState::kDraining) {
    s.state = SegState::kFree;
  }
}

void VolumeBackend::erase(StorageId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  const IndexEntry& entry = it->second;
  bytes_ -= entry.payload_len;
  if (entry.slot != kBufferSlot) {
    // The bytes stay dead in the segment until compaction reclaims it.
    segments_[entry.slot].live_bytes -=
        kVolumeRecordHeaderSize + entry.payload_len;
    dead_bytes_ += kVolumeRecordHeaderSize + entry.payload_len;
  }
  index_.erase(it);
}

std::uint64_t VolumeBackend::bytes_stored() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

Status VolumeBackend::adopt(StorageId id, std::uint64_t size,
                            std::uint64_t key_hash) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = recovered_.find(id);
  if (it == recovered_.end()) {
    return Status(StatusCode::kNotFound,
                  "no recovered volume record " + std::to_string(id));
  }
  const RecoveredRec rec = it->second;
  if (rec.payload_len != size ||
      (key_hash != 0 && rec.key_hash != 0 && rec.key_hash != key_hash)) {
    recovered_.erase(it);
    return Status(StatusCode::kCorrupt,
                  "recovered volume record " + std::to_string(id) +
                      " does not match manifest");
  }
  recovered_.erase(it);
  index_[id] =
      IndexEntry{rec.slot, rec.offset, rec.payload_len, rec.key_hash};
  segments_[rec.slot].live_bytes += kVolumeRecordHeaderSize + rec.payload_len;
  bytes_ += rec.payload_len;
  if (id >= next_id_) next_id_ = id + 1;
  ++adopted_;
  return Status::ok();
}

ScrubReport VolumeBackend::scrub() {
  std::lock_guard<std::mutex> lock(mutex_);
  ScrubReport report;
  report.adopted = adopted_;
  report.quarantined = counters_.corrupt_records_skipped;
  // Records the walk found but no manifest claimed: drop them as dead
  // bytes; compaction reclaims the space. Nothing valid is quarantined.
  report.orphans_removed = recovered_.size();
  for (const auto& [id, rec] : recovered_) {
    (void)id;
    dead_bytes_ += kVolumeRecordHeaderSize + rec.payload_len;
  }
  recovered_.clear();
  for (Segment& s : segments_) {
    if (s.state == SegState::kSealed && s.live_bytes == 0 && s.readers == 0) {
      s.state = SegState::kFree;
    }
  }
  if (report.orphans_removed != 0 || report.quarantined != 0 ||
      counters_.torn_tail_truncated != 0) {
    SWALA_LOG(Info) << "volume scrub: " << report.adopted << " adopted, "
                    << report.quarantined << " corrupt records skipped, "
                    << report.orphans_removed << " orphans dropped, "
                    << counters_.torn_tail_truncated << " torn tails truncated";
  }
  return report;
}

Status VolumeBackend::sync() {
  if (!init_status_.is_ok()) return init_status_;
  std::string sidecar;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const Status st = flush_locked(); !st.is_ok()) return st;
    sidecar = "swala-volindex 1\n";
    char line[96];
    for (const auto& [id, entry] : index_) {
      std::snprintf(line, sizeof(line), "%llu %llu %llu\n",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(entry.offset),
                    static_cast<unsigned long long>(entry.payload_len));
      sidecar += line;
    }
  }
  return write_file_atomic(fs_, index_path(), sidecar);
}

StorageCounters VolumeBackend::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StorageCounters c = counters_;
  c.segments_total = slot_count_;
  for (const Segment& s : segments_) {
    if (s.state == SegState::kFree) ++c.segments_free;
  }
  c.live_bytes = bytes_;
  c.dead_bytes = dead_bytes_;
  return c;
}

}  // namespace swala::core

// VolumeBackend: a log-structured, single-file alternative to DiskBackend.
//
// The paper's file-per-entry disk cache pays a create + write + fsync +
// rename + fsync(dir) round-trip per insert and exhausts inodes and
// directory-scan time long before the "millions of users" target. The
// volume store instead preallocates ONE large file, divides it into
// fixed-size segments, and batches inserts in an in-memory write buffer
// that is flushed sequentially with a single pwrite + fsync per flush
// group (trafficserver's cyclone cache is the exemplar).
//
// On-disk format (all integers little-endian, CRC-32C like the PR 3
// cache-file header):
//
//   segment header (32 bytes, at each slot boundary):
//     u32 magic "SWVS"  u32 version  u64 seq  u32 capacity  u32 reserved
//     u32 header_crc32c(first 24)  u32 pad
//   record header (48 bytes, records never cross a segment boundary):
//     u32 magic "SWVR"  u32 version  u64 seq(== segment seq)
//     u64 storage_id  u64 key_hash  u32 payload_len  u32 flags
//     u32 payload_crc32c  u32 header_crc32c(first 44)
//
// Segment seq numbers are ever-increasing, so a reused slot's stale
// records (old seq) are distinguishable from live ones without zeroing.
// Space is reclaimed by segment-granularity compaction: the sealed
// segment with the least live bytes has its live records re-appended
// through the normal buffered write path (copies become durable before
// the victim slot can be overwritten, because a slot is only reused
// after the single write buffer — which holds the copies — has flushed).
//
// Restart rebuilds the id → location index by a sequential segment walk
// ordered by seq: the torn tail of the highest-seq (open) segment is
// truncated at the last valid record; corrupt records in sealed segments
// are skipped (and counted) with a byte-wise magic resync. No per-entry
// file opens, no directory scan.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/fs_ops.h"
#include "core/storage.h"

namespace swala::core {

constexpr std::uint32_t kVolumeSegmentMagic = 0x53565753;  // "SWVS" LE
constexpr std::uint32_t kVolumeRecordMagic = 0x52565753;   // "SWVR" LE
constexpr std::uint32_t kVolumeFormatVersion = 1;
constexpr std::size_t kVolumeSegmentHeaderSize = 32;
constexpr std::size_t kVolumeRecordHeaderSize = 48;

/// Tuning knobs, populated from the `[cache]` config section.
struct VolumeOptions {
  std::uint64_t volume_bytes = 0;  ///< total preallocated size; required
  std::uint64_t segment_bytes = 4ull << 20;        ///< compaction granularity
  std::uint64_t write_buffer_bytes = 256ull << 10; ///< flush-group target
  std::uint64_t flush_interval_ms = 100;  ///< max buffering delay (0 = every put)
};

class VolumeBackend final : public StorageBackend {
 public:
  /// Opens (or creates + preallocates) `<dir>/volume.swala` and rebuilds the
  /// index by the sequential recovery walk. `fs`/`clock` null = real ones.
  VolumeBackend(std::string dir, VolumeOptions options, FsOps* fs = nullptr,
                const Clock* clock = nullptr);
  ~VolumeBackend() override;

  using StorageBackend::put;
  Result<StorageId> put(std::string_view data, std::uint64_t key_hash) override;
  Result<std::string> get(StorageId id) override;
  void erase(StorageId id) override;
  std::uint64_t bytes_stored() const override;
  Status adopt(StorageId id, std::uint64_t size,
               std::uint64_t key_hash) override;
  void set_retain_on_destruction(bool retain) override {
    retain_.store(retain, std::memory_order_relaxed);
  }
  Status init_status() const override { return init_status_; }
  ScrubReport scrub() override;
  Status sync() override;
  StorageCounters counters() const override;
  FsOps* fs() const override { return fs_; }

  const std::string& dir() const { return dir_; }
  /// Path of the one volume file (tests corrupt it in place).
  std::string volume_path() const { return dir_ + "/volume.swala"; }
  /// Path of the sidecar index checkpoint written by sync().
  std::string index_path() const { return dir_ + "/volume.idx"; }

 private:
  enum class SegState : std::uint8_t { kFree, kOpen, kSealed, kDraining };

  struct Segment {
    SegState state = SegState::kFree;
    std::uint64_t seq = 0;
    std::uint64_t write_off = 0;   ///< next free byte within the slot
    std::uint64_t live_bytes = 0;  ///< header+payload bytes of live records
    int readers = 0;               ///< active preads; blocks reuse (pins)
  };

  /// Where a record lives: a disk slot, or kBufferSlot while still in the
  /// write buffer (readable from RAM before it is durable).
  static constexpr std::uint32_t kBufferSlot = 0xFFFFFFFFu;
  struct IndexEntry {
    std::uint32_t slot = 0;
    std::uint64_t offset = 0;  ///< absolute file offset of the record header
                               ///< (disk) or offset within the buffer
    std::uint32_t payload_len = 0;
    std::uint64_t key_hash = 0;
  };

  struct BufferedRec {
    StorageId id;
    std::uint64_t buf_off;
    std::uint32_t payload_len;
  };

  /// A record seen by the recovery walk, awaiting adopt()/scrub().
  struct RecoveredRec {
    std::uint32_t slot;
    std::uint64_t offset;  ///< absolute
    std::uint32_t payload_len;
    std::uint64_t key_hash;
    std::uint64_t seq;
  };

  std::uint64_t slot_base(std::uint32_t slot) const {
    return static_cast<std::uint64_t>(slot) * options_.segment_bytes;
  }

  // All helpers below require mutex_ held.
  Status ensure_fit_locked(std::uint64_t record_size);
  Status open_segment_locked();
  Status flush_locked();
  Status compact_locked();
  void append_record_locked(StorageId id, std::uint64_t key_hash,
                            std::string_view payload);
  void release_reader_locked(std::uint32_t slot);

  /// pread of [offset, offset+len) with retry; kIoError on failure.
  Status read_at(std::uint64_t offset, std::size_t len, char* out) const;

  void recover();  // constructor only, no locking needed
  void load_sidecar_index();

  std::string dir_;
  VolumeOptions options_;
  FsOps* fs_;
  const Clock* clock_;
  Status init_status_;
  int fd_ = -1;
  std::uint32_t slot_count_ = 0;

  mutable std::mutex mutex_;
  std::vector<Segment> segments_;
  std::unordered_map<StorageId, IndexEntry> index_;
  std::unordered_map<StorageId, RecoveredRec> recovered_;
  StorageId next_id_ = 1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t bytes_ = 0;  ///< live payload bytes (bookkeeping)
  std::uint64_t dead_bytes_ = 0;

  /// The single write buffer, destined for the open segment at
  /// buffer_disk_base_. Holding one buffer (not a queue) is what orders
  /// compaction copies before any reuse of their source slot.
  std::string buffer_;
  std::vector<BufferedRec> buffered_;
  std::uint64_t buffer_disk_base_ = 0;
  std::uint32_t active_slot_ = kBufferSlot;  ///< kBufferSlot = none open
  TimeNs last_flush_ = 0;
  bool compacting_ = false;

  std::atomic<bool> retain_{false};

  /// Flush/compaction/recovery counters (guarded by mutex_ where written on
  /// hot paths); counters() fills the segment and byte gauges on a copy.
  StorageCounters counters_;
  std::uint64_t adopted_ = 0;
};

}  // namespace swala::core

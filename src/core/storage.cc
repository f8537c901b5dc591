#include "core/storage.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace swala::core {

// ---- cache-file format ----

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

}  // namespace

std::string encode_cache_header(std::uint64_t key_hash,
                                std::string_view payload) {
  std::string header;
  header.reserve(kCacheHeaderSize);
  put_u32(&header, kCacheFileMagic);
  put_u32(&header, kCacheFormatVersion);
  put_u64(&header, key_hash);
  put_u64(&header, payload.size());
  put_u32(&header, crc32c(payload));
  put_u32(&header, crc32c(header));  // first 28 bytes
  return header;
}

Result<std::string_view> verify_cache_file(std::string_view file,
                                           std::uint64_t expected_key_hash) {
  if (file.size() < kCacheHeaderSize) {
    return Status(StatusCode::kCorrupt, "cache file shorter than header");
  }
  if (get_u32(file, 28) != crc32c(file.substr(0, 28))) {
    return Status(StatusCode::kCorrupt, "cache header checksum mismatch");
  }
  if (get_u32(file, 0) != kCacheFileMagic) {
    return Status(StatusCode::kCorrupt, "bad cache file magic");
  }
  const std::uint32_t version = get_u32(file, 4);
  if (version != kCacheFormatVersion) {
    return Status(StatusCode::kCorrupt,
                  "unsupported cache format v" + std::to_string(version));
  }
  const std::uint64_t key_hash = get_u64(file, 8);
  if (expected_key_hash != 0 && key_hash != expected_key_hash) {
    return Status(StatusCode::kCorrupt, "cache file key hash mismatch");
  }
  const std::uint64_t payload_len = get_u64(file, 16);
  if (payload_len != file.size() - kCacheHeaderSize) {
    return Status(StatusCode::kCorrupt, "cache file payload length mismatch");
  }
  const std::string_view payload = file.substr(kCacheHeaderSize);
  if (get_u32(file, 24) != crc32c(payload)) {
    return Status(StatusCode::kCorrupt, "cache payload checksum mismatch");
  }
  return payload;
}

// ---- MemoryBackend ----

Result<StorageId> MemoryBackend::put(std::string_view data,
                                     std::uint64_t key_hash) {
  (void)key_hash;  // nothing survives this process; no format to bind it to
  auto blob = std::make_shared<const std::string>(data);  // copy unlocked
  std::lock_guard<std::mutex> lock(mutex_);
  const StorageId id = next_id_++;
  bytes_ += blob->size();
  blobs_.emplace(id, std::move(blob));
  return id;
}

Result<std::string> MemoryBackend::get(StorageId id) {
  const auto blob = resident(id);
  if (!blob) {
    return Status(StatusCode::kNotFound, "no blob " + std::to_string(id));
  }
  return *blob;  // the copy runs with the mutex released
}

std::shared_ptr<const std::string> MemoryBackend::resident(StorageId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = blobs_.find(id);
  return it == blobs_.end() ? nullptr : it->second;
}

void MemoryBackend::erase(StorageId id) {
  std::shared_ptr<const std::string> blob;  // freed after unlocking
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = blobs_.find(id);
  if (it == blobs_.end()) return;
  bytes_ -= it->second->size();
  blob = std::move(it->second);
  blobs_.erase(it);
}

// ---- DiskBackend ----

DiskBackend::DiskBackend(std::string dir, FsOps* fs)
    : dir_(std::move(dir)), fs_(fs != nullptr ? fs : FsOps::real()) {
  counters_.backend = "files";
  init_status_ = make_dirs(fs_, dir_);
  if (!init_status_.is_ok()) {
    SWALA_LOG(Error) << "cache directory unusable: "
                     << init_status_.to_string();
  }
}

DiskBackend::~DiskBackend() {
  // No lock: destruction implies no concurrent users (outstanding pins hold
  // the backend via shared_ptr, so the destructor runs after the last one).
  if (retain_.load(std::memory_order_relaxed)) {
    return;  // warm-restart handoff: a manifest references these
  }
  // Remove files we created; leave foreign files alone.
  for (const auto& [id, size] : sizes_) {
    (void)size;
    (void)fs_->unlink(path_for(id).c_str());
  }
}

std::string DiskBackend::path_for(StorageId id) const {
  return dir_ + "/swala-" + std::to_string(id) + ".cache";
}

Result<std::string> DiskBackend::read_file(const std::string& path) const {
  const int fd = fs_->open(path.c_str(), O_RDONLY, 0);
  if (fd < 0) {
    const auto code =
        errno == ENOENT ? StatusCode::kNotFound : StatusCode::kIoError;
    return Status(code, "open " + path + ": " + std::strerror(errno));
  }
  std::string out;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = fs_->read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      (void)fs_->close(fd);
      return Status(StatusCode::kIoError,
                    "read " + path + ": " + std::strerror(saved));
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  (void)fs_->close(fd);
  return out;
}

void DiskBackend::quarantine(const std::string& path) {
  const std::string target = path + ".corrupt";
  if (fs_->rename(path.c_str(), target.c_str()) != 0) {
    (void)fs_->unlink(path.c_str());
  }
  ++quarantined_;
  SWALA_LOG(Warn) << "quarantined corrupt cache file " << path;
}

Status DiskBackend::adopt(StorageId id, std::uint64_t size,
                          std::uint64_t key_hash) {
  const std::string path = path_for(id);
  auto file = read_file(path);
  if (!file) return file.status();
  if (file.value().size() != size + kCacheHeaderSize) {
    // A torn write could never reach a live name (atomic rename), so a size
    // mismatch means the file was truncated or grown in place — corrupt.
    quarantine(path);
    return Status(StatusCode::kCorrupt,
                  "cache file size mismatch for " + path);
  }
  auto payload = verify_cache_file(file.value(), key_hash);
  if (!payload) {
    quarantine(path);
    return payload.status();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (sizes_.emplace(id, size).second) bytes_ += size;
  key_hashes_[id] = key_hash;
  if (id >= next_id_) next_id_ = id + 1;
  return Status::ok();
}

Result<StorageId> DiskBackend::put(std::string_view data,
                                   std::uint64_t key_hash) {
  if (!init_status_.is_ok()) return init_status_;
  StorageId id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
  }
  const std::string path = path_for(id);
  const std::string tmp = path + ".tmp";

  const int fd = fs_->open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status(StatusCode::kIoError,
                  "open " + tmp + ": " + std::strerror(errno));
  }
  const auto fail = [&](const char* what) {
    const int saved = errno;
    (void)fs_->close(fd);
    (void)fs_->unlink(tmp.c_str());
    return Status(StatusCode::kIoError, std::string(what) + " " + tmp + ": " +
                                            std::strerror(saved));
  };

  const std::string header = encode_cache_header(key_hash, data);
  for (std::string_view chunk : {std::string_view(header), data}) {
    std::size_t off = 0;
    while (off < chunk.size()) {
      const ssize_t n = fs_->write(fd, chunk.data() + off, chunk.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return fail("write");
      }
      if (n == 0) {
        errno = EIO;
        return fail("write");
      }
      off += static_cast<std::size_t>(n);
    }
  }
  if (fs_->fsync(fd) != 0) return fail("fsync");
  if (fs_->close(fd) != 0) {
    const int saved = errno;
    (void)fs_->unlink(tmp.c_str());
    return Status(StatusCode::kIoError,
                  "close " + tmp + ": " + std::strerror(saved));
  }
  if (fs_->rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    (void)fs_->unlink(tmp.c_str());
    return Status(StatusCode::kIoError,
                  "rename " + tmp + ": " + std::strerror(saved));
  }
  if (auto st = fsync_parent_dir(fs_, path); !st.is_ok()) {
    // The rename happened; the entry may or may not survive a power cut.
    // Treat as failure so the caller never records an entry less durable
    // than promised.
    (void)fs_->unlink(path.c_str());
    return st;
  }
  // A put that reached the disk proves it is writable again, so the erase
  // failure run ends here too (mirrors the degradation probe's recovery).
  counters_.consecutive_erase_failures = Counter();
  std::lock_guard<std::mutex> lock(mutex_);
  sizes_[id] = data.size();
  key_hashes_[id] = key_hash;
  bytes_ += data.size();
  return id;
}

Result<std::string> DiskBackend::get(StorageId id) {
  const std::string path = path_for(id);
  auto file = read_file(path);
  if (!file) return file.status();
  std::uint64_t expected_hash = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto kh = key_hashes_.find(id);
    if (kh != key_hashes_.end()) expected_hash = kh->second;
  }
  auto payload = verify_cache_file(file.value(), expected_hash);
  if (!payload) {
    SWALA_LOG(Warn) << "integrity failure reading " << path << ": "
                    << payload.status().to_string();
    return payload.status();
  }
  // Move the verified payload out without copying the header's bytes twice.
  std::string out = std::move(file.value());
  out.erase(0, kCacheHeaderSize);
  return out;
}

void DiskBackend::erase(StorageId id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sizes_.find(id);
    if (it == sizes_.end()) return;
    bytes_ -= it->second;
    sizes_.erase(it);
    key_hashes_.erase(id);
  }
  const std::string path = path_for(id);
  if (fs_->unlink(path.c_str()) != 0 && errno != ENOENT) {
    // The entry is gone from the index but its bytes still occupy the disk —
    // a dying disk that fails unlinks would leak space invisibly. Count it
    // and keep a consecutive-failure run for the manager's degradation probe.
    ++counters_.erase_errors;
    ++counters_.consecutive_erase_failures;
    SWALA_LOG(Warn) << "erase failed to unlink " << path << ": "
                    << std::strerror(errno);
  } else {
    counters_.consecutive_erase_failures = Counter();
  }
}

StorageCounters DiskBackend::counters() const {
  StorageCounters c = counters_;
  std::lock_guard<std::mutex> lock(mutex_);
  c.live_bytes = bytes_;
  return c;
}

ScrubReport DiskBackend::scrub() {
  // Startup-only; holding the lock across the directory walk is fine.
  std::lock_guard<std::mutex> lock(mutex_);
  ScrubReport report;
  report.adopted = sizes_.size();
  report.quarantined = quarantined_.load(std::memory_order_relaxed);

  DIR* handle = ::opendir(dir_.c_str());
  if (handle == nullptr) return report;
  std::vector<std::string> orphans;
  std::vector<std::string> temps;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      temps.push_back(name);
      continue;
    }
    // Only our own namespace: swala-<id>.cache.
    constexpr std::string_view prefix = "swala-";
    constexpr std::string_view suffix = ".cache";
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const StorageId id = std::strtoull(digits.c_str(), nullptr, 10);
    if (sizes_.find(id) == sizes_.end()) orphans.push_back(name);
  }
  ::closedir(handle);

  for (const auto& name : temps) {
    if (fs_->unlink((dir_ + "/" + name).c_str()) == 0) ++report.temps_removed;
  }
  for (const auto& name : orphans) {
    if (fs_->unlink((dir_ + "/" + name).c_str()) == 0) {
      ++report.orphans_removed;
    }
  }
  if (report.quarantined != 0 || report.orphans_removed != 0 ||
      report.temps_removed != 0) {
    SWALA_LOG(Info) << "cache scrub of " << dir_ << ": " << report.adopted
                    << " adopted, " << report.quarantined << " quarantined, "
                    << report.orphans_removed << " orphans and "
                    << report.temps_removed << " temp files removed";
  }
  return report;
}

}  // namespace swala::core

#include "store/result_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace dspaddr::store {
namespace {

constexpr char kMagic[8] = {'D', 'S', 'P', 'A', 'D', 'D', 'R', 'L'};
constexpr std::uint64_t kHeaderSize = 16;
constexpr std::uint64_t kFrameSize = 12;  // key_len + value_len + crc
/// Sanity bounds on frame lengths: a torn tail whose garbage decodes
/// to a huge length must not be chased past the end of the file as if
/// it were a record still being written.
constexpr std::uint32_t kMaxKeyLen = 1u << 20;
constexpr std::uint32_t kMaxValueLen = 1u << 28;

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

void put_u32(std::string& out, std::uint32_t value) {
  out.push_back(static_cast<char>(value & 0xFF));
  out.push_back(static_cast<char>((value >> 8) & 0xFF));
  out.push_back(static_cast<char>((value >> 16) & 0xFF));
  out.push_back(static_cast<char>((value >> 24) & 0xFF));
}

std::uint32_t read_u32(const char* bytes) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[1]))
          << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[2]))
          << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[3]))
          << 24);
}

void write_all(int fd, const char* data, std::size_t size,
               std::uint64_t offset, const std::string& path) {
  while (size > 0) {
    const ssize_t written =
        ::pwrite(fd, data, size, static_cast<off_t>(offset));
    if (written < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw Error("store '" + path +
                  "': write failed: " + std::strerror(errno));
    }
    data += written;
    size -= static_cast<std::size_t>(written);
    offset += static_cast<std::uint64_t>(written);
  }
}

void read_all(int fd, char* data, std::size_t size, std::uint64_t offset,
              const std::string& path) {
  while (size > 0) {
    const ssize_t got = ::pread(fd, data, size, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) {
      continue;
    }
    check_invariant(got > 0, "store '" + path +
                                 "': short read of an indexed record");
    data += got;
    size -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  const auto& table = crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

ResultStore::ResultStore(Options options) : options_(std::move(options)) {
  check_arg(!options_.path.empty(), "store: path must not be empty");
  fd_ = ::open(options_.path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw Error("store '" + options_.path +
                "': cannot open: " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    const std::string message = std::strerror(errno);
    ::close(fd_);
    throw Error("store '" + options_.path + "': cannot stat: " + message);
  }
  std::uint64_t file_size = static_cast<std::uint64_t>(st.st_size);

  try {
    if (file_size == 0) {
      // Fresh log: stamp the header.
      std::string header(kMagic, sizeof(kMagic));
      put_u32(header, kFormatVersion);
      put_u32(header, 0);
      write_all(fd_, header.data(), header.size(), 0, options_.path);
      if (options_.fsync_each_append) {
        ::fsync(fd_);
      }
      append_offset_ = kHeaderSize;
      return;
    }

    if (file_size < kHeaderSize) {
      // A crash before even the 16-byte header completed: nothing to
      // recover, so restart the log on a clean header.
      check_invariant(::ftruncate(fd_, 0) == 0,
                      "store '" + options_.path +
                          "': cannot truncate torn header");
      std::string header(kMagic, sizeof(kMagic));
      put_u32(header, kFormatVersion);
      put_u32(header, 0);
      write_all(fd_, header.data(), header.size(), 0, options_.path);
      if (options_.fsync_each_append) {
        ::fsync(fd_);
      }
      truncated_bytes_ = file_size;
      append_offset_ = kHeaderSize;
      return;
    }
    // Map the file as it exists now; records appended later lie past
    // the map and are read back with pread.
    remap(file_size);

    std::string header(kHeaderSize, '\0');
    if (map_ != nullptr) {
      std::memcpy(header.data(), map_, kHeaderSize);
    } else {
      read_all(fd_, header.data(), kHeaderSize, 0, options_.path);
    }
    check_arg(std::memcmp(header.data(), kMagic, sizeof(kMagic)) == 0,
              "store '" + options_.path +
                  "': not a dspaddr result log (bad magic)");
    const std::uint32_t version = read_u32(header.data() + 8);
    check_arg(version == kFormatVersion,
              "store '" + options_.path + "': format version " +
                  std::to_string(version) + " (this build reads version " +
                  std::to_string(kFormatVersion) + ")");

    append_offset_ = scan_and_index(file_size);
    if (append_offset_ < file_size) {
      // Torn or corrupt tail: measure it, then cut the file back to
      // the last complete record so the next append starts clean.
      truncated_bytes_ = file_size - append_offset_;
      check_invariant(
          ::ftruncate(fd_, static_cast<off_t>(append_offset_)) == 0,
          "store '" + options_.path + "': cannot truncate torn tail");
      // Appends reuse the dropped bytes, so the map must end where the
      // recovered records do.
      remap(append_offset_);
    }
    // Enough dead weight (shadowed records + the tail just dropped)?
    // Rewrite the live records and swap atomically before serving.
    if (options_.compact_min_bytes > 0 &&
        shadowed_bytes_ + truncated_bytes_ >= options_.compact_min_bytes &&
        shadowed_bytes_ > 0) {
      compact();
    }
  } catch (...) {
    remap(0);
    ::close(fd_);
    throw;
  }
}

ResultStore::~ResultStore() {
  remap(0);
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void ResultStore::remap(std::uint64_t size) {
  if (map_ != nullptr) {
    ::munmap(const_cast<char*>(map_), map_size_);
    map_ = nullptr;
    map_size_ = 0;
  }
  if (size == 0) {
    return;
  }
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd_, 0);
  if (mapped != MAP_FAILED) {
    map_ = static_cast<const char*>(mapped);
    map_size_ = size;
  }
}

std::uint64_t ResultStore::scan_and_index(std::uint64_t file_size) {
  std::uint64_t offset = kHeaderSize;
  std::vector<char> frame(kFrameSize);
  std::string record;
  while (offset + kFrameSize <= file_size) {
    const char* frame_bytes;
    if (map_ != nullptr) {
      frame_bytes = map_ + offset;
    } else {
      read_all(fd_, frame.data(), kFrameSize, offset, options_.path);
      frame_bytes = frame.data();
    }
    const std::uint32_t key_len = read_u32(frame_bytes);
    const std::uint32_t value_len = read_u32(frame_bytes + 4);
    const std::uint32_t stored_crc = read_u32(frame_bytes + 8);
    if (key_len == 0 || key_len > kMaxKeyLen || value_len > kMaxValueLen) {
      break;  // garbage lengths: torn tail starts here
    }
    const std::uint64_t body = static_cast<std::uint64_t>(key_len) + value_len;
    if (offset + kFrameSize + body > file_size) {
      break;  // record extends past EOF: torn tail
    }
    const char* body_bytes;
    if (map_ != nullptr) {
      body_bytes = map_ + offset + kFrameSize;
    } else {
      record.resize(body);
      read_all(fd_, record.data(), body, offset + kFrameSize, options_.path);
      body_bytes = record.data();
    }
    if (crc32(std::string_view(body_bytes, body)) != stored_crc) {
      break;  // partially flushed or corrupt: torn tail
    }
    Location location;
    location.offset = offset + kFrameSize + key_len;
    location.length = value_len;
    // Later records shadow earlier ones — the log is append-only, so
    // "update" is simply "append again". A shadowed record is dead
    // weight; its full frame size feeds the compaction decision.
    std::string key(body_bytes, key_len);
    const auto existing = index_.find(key);
    if (existing != index_.end()) {
      shadowed_bytes_ +=
          kFrameSize + key.size() + existing->second.length;
    }
    index_[std::move(key)] = location;
    ++recovered_records_;
    offset += kFrameSize + body;
  }
  return offset;
}

void ResultStore::compact() {
  // Live records in original log order (ascending value offset), so
  // the compacted file reads like the log always had exactly one
  // record per key. Constructor-only: everything is pre-open, mapped
  // (or pread-able) state.
  std::vector<std::pair<const std::string*, const Location*>> live;
  live.reserve(index_.size());
  for (const auto& entry : index_) {
    live.emplace_back(&entry.first, &entry.second);
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) {
              return a.second->offset < b.second->offset;
            });

  const std::string temp_path = options_.path + ".compact";
  const int temp_fd =
      ::open(temp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (temp_fd < 0) {
    return;  // best-effort: keep serving the uncompacted log
  }

  try {
    std::string header(kMagic, sizeof(kMagic));
    put_u32(header, kFormatVersion);
    put_u32(header, 0);
    write_all(temp_fd, header.data(), header.size(), 0, temp_path);

    std::unordered_map<std::string, Location> new_index;
    new_index.reserve(live.size());
    std::uint64_t offset = kHeaderSize;
    std::string value;
    for (const auto& [key, location] : live) {
      if (map_ != nullptr) {
        value.assign(map_ + location->offset, location->length);
      } else {
        value.resize(location->length);
        read_all(fd_, value.data(), location->length, location->offset,
                 options_.path);
      }
      std::string frame;
      frame.reserve(kFrameSize + key->size() + value.size());
      put_u32(frame, static_cast<std::uint32_t>(key->size()));
      put_u32(frame, static_cast<std::uint32_t>(value.size()));
      put_u32(frame, crc32(*key + value));
      frame += *key;
      frame += value;
      write_all(temp_fd, frame.data(), frame.size(), offset, temp_path);
      Location new_location;
      new_location.offset = offset + kFrameSize + key->size();
      new_location.length = static_cast<std::uint32_t>(value.size());
      new_index.emplace(*key, new_location);
      offset += frame.size();
    }
    if (::fsync(temp_fd) != 0) {
      throw Error("store '" + temp_path +
                  "': fsync failed: " + std::strerror(errno));
    }
    if (::rename(temp_path.c_str(), options_.path.c_str()) != 0) {
      throw Error("store '" + options_.path +
                  "': rename failed: " + std::strerror(errno));
    }

    // The swap is durable; retire the old file's map and descriptor
    // and serve from the compacted one.
    remap(0);
    ::close(fd_);
    fd_ = temp_fd;
    remap(offset);
    compacted_bytes_ += (append_offset_ - offset);
    append_offset_ = offset;
    index_ = std::move(new_index);
    shadowed_bytes_ = 0;
    ++compactions_;
  } catch (...) {
    ::close(temp_fd);
    ::unlink(temp_path.c_str());
    // The original file, map and index are untouched — keep serving.
  }
}

std::optional<std::string> ResultStore::get(const std::string& key) {
  Location location;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    location = it->second;
  }
  // An indexed record's bytes are written before it is indexed and are
  // never rewritten, so the read needs no lock. The map ends where the
  // log did at open(); later records are read from the file.
  if (map_ != nullptr && location.offset + location.length <= map_size_) {
    return std::string(map_ + location.offset, location.length);
  }
  std::string value(location.length, '\0');
  read_all(fd_, value.data(), location.length, location.offset,
           options_.path);
  return value;
}

void ResultStore::append(const std::string& key, std::string_view value) {
  check_arg(!key.empty() && key.size() <= kMaxKeyLen,
            "store: key must be non-empty and at most 1 MiB");
  check_arg(value.size() <= kMaxValueLen,
            "store: value exceeds the 256 MiB record limit");
  std::string body;
  body.reserve(key.size() + value.size());
  body += key;
  body.append(value.data(), value.size());

  std::string frame;
  frame.reserve(kFrameSize + body.size());
  put_u32(frame, static_cast<std::uint32_t>(key.size()));
  put_u32(frame, static_cast<std::uint32_t>(value.size()));
  put_u32(frame, crc32(body));
  frame += body;

  std::lock_guard<std::mutex> lock(mutex_);
  write_all(fd_, frame.data(), frame.size(), append_offset_, options_.path);
  if (options_.fsync_each_append) {
    check_invariant(::fsync(fd_) == 0,
                    "store '" + options_.path + "': fsync failed");
  }
  Location location;
  location.offset = append_offset_ + kFrameSize + key.size();
  location.length = static_cast<std::uint32_t>(value.size());
  append_offset_ += frame.size();
  appended_bytes_ += frame.size();
  ++appended_records_;

  const auto existing = index_.find(key);
  if (existing != index_.end()) {
    shadowed_bytes_ += kFrameSize + key.size() + existing->second.length;
  }
  index_[key] = location;
}

StoreStats ResultStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StoreStats stats;
  stats.records = index_.size();
  stats.bytes = append_offset_;
  stats.recovered_records = recovered_records_;
  stats.appended_records = appended_records_;
  stats.appended_bytes = appended_bytes_;
  stats.truncated_bytes = truncated_bytes_;
  stats.shadowed_bytes = shadowed_bytes_;
  stats.compactions = compactions_;
  stats.compacted_bytes = compacted_bytes_;
  stats.hits = hits_;
  stats.misses = misses_;
  return stats;
}

}  // namespace dspaddr::store

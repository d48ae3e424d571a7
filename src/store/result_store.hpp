// store::ResultStore — the persistent fingerprint→result log under the
// engine's RAM cache.
//
// An append-only, versioned key/value log on disk: each record frames
// one (fingerprint, serialized result) pair behind a CRC-32 so the
// reader can tell a complete record from a torn one. The file survives
// process restarts — a serve fleet bounced under load warm-starts from
// the log instead of recompiling its whole traffic mix — and survives
// crashes mid-append: on open the log is scanned record by record, the
// in-memory index is rebuilt, and a truncated or corrupt tail (the
// partially flushed final record of a killed writer) is measured,
// dropped and truncated away so the next append starts on a clean
// frame boundary. Every record that was fully written before the crash
// is recovered.
//
// Layout (all integers little-endian, as written by the host — the log
// is a node-local cache, not an interchange format):
//
//   header   : 8-byte magic "DSPADDRL", u32 format version, u32 zero
//   record   : u32 key_len, u32 value_len, u32 crc32(key||value),
//              key bytes, value bytes
//
// The in-memory index holds only keys and file offsets, never values:
// recovered records are read through one mmap of the log as it was at
// open(), and records appended later are read back from the file with
// pread, so memory does not grow with traffic. Appends take a mutex
// (one writer at a time), optionally fsync per record
// (Options::fsync_each_append — durability against power loss at a
// syscall per result), and a later record for an existing key simply
// shadows the earlier one, so re-computation after a decode failure
// self-heals the log.
//
// The store is deliberately generic (string keys, string values): the
// engine keys it by fingerprint v3 (engine/fingerprint.hpp), so a
// machine-spec or strategy change can never alias a stale result, and
// serializes results via engine/result_codec.hpp. One process per log
// file — the store does no cross-process locking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace dspaddr::store {

/// CRC-32 (IEEE 802.3, reflected) over `data` — the per-record frame
/// checksum. Exposed so tests can craft corrupt records byte by byte.
std::uint32_t crc32(std::string_view data);

/// Operational counters of one store, for `{"stats":true}` /
/// `{"metrics":true}` and the --metrics-csv dump.
struct StoreStats {
  /// Distinct keys currently resolvable (shadowed duplicates count
  /// once).
  std::size_t records = 0;
  /// Current log file size in bytes (header + every retained record).
  std::uint64_t bytes = 0;
  /// Complete records recovered by the open() scan.
  std::size_t recovered_records = 0;
  /// Records appended since open().
  std::uint64_t appended_records = 0;
  /// Bytes appended since open().
  std::uint64_t appended_bytes = 0;
  /// Bytes of torn/corrupt tail dropped by the open() scan (0 after a
  /// clean shutdown).
  std::uint64_t truncated_bytes = 0;
  /// Bytes currently held by shadowed (re-appended) records — dead
  /// weight a compaction would reclaim.
  std::uint64_t shadowed_bytes = 0;
  /// Log rewrites performed by open() (Options::compact_min_bytes).
  std::uint64_t compactions = 0;
  /// Bytes reclaimed by those rewrites.
  std::uint64_t compacted_bytes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

class ResultStore {
 public:
  /// Bumped whenever the record framing or the result codec changes
  /// incompatibly; a file with any other version is refused loudly.
  static constexpr std::uint32_t kFormatVersion = 1;

  struct Options {
    std::string path;
    /// fsync after every append: durable against power loss, one
    /// syscall per new result. Off by default — the log is a cache,
    /// and a torn tail is recovered on the next open anyway.
    bool fsync_each_append = false;
    /// Compaction threshold: when the open() scan finds at least this
    /// many dead bytes (shadowed records + dropped torn tail), the
    /// live records are rewritten in log order to `<path>.compact` and
    /// atomically swapped in. 0 disables compaction. Best-effort: a
    /// rewrite failure keeps serving the uncompacted log.
    std::uint64_t compact_min_bytes = 1 << 20;
  };

  /// Opens (or creates) the log at `options.path`, scans it, builds
  /// the index and maps the scanned region. Throws dspaddr::Error when
  /// the file cannot be opened/created or carries a foreign version.
  explicit ResultStore(Options options);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// The value most recently appended under `key`, or nullopt. Counts
  /// a hit or a miss.
  std::optional<std::string> get(const std::string& key);

  /// Appends one record and indexes it (shadowing any earlier record
  /// with the same key). Throws dspaddr::Error on write failure.
  void append(const std::string& key, std::string_view value);

  StoreStats stats() const;

  const std::string& path() const { return options_.path; }

 private:
  struct Location {
    /// Offset of the value bytes in the log file.
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
  };

  /// Replaces the map with one of the file's first `size` bytes (none
  /// when 0, or when mmap fails: reads then fall back to pread).
  void remap(std::uint64_t size);

  /// Scans the file, fills the index, returns the offset of the first
  /// byte past the last complete record.
  std::uint64_t scan_and_index(std::uint64_t file_size);

  /// Rewrites the live records (in log order) to `<path>.compact`,
  /// fsyncs, renames over the log and re-opens the compacted file.
  /// Constructor-only (no locking). Best-effort: on any failure the
  /// original file, map and index stay in service.
  void compact();

  Options options_;
  int fd_ = -1;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Location> index_;

  /// The file's bytes as of open() (after recovery or compaction);
  /// reads of recovered records come from here. Null when the file held
  /// no records at open (or mmap is unavailable), in which case every
  /// read goes through pread.
  const char* map_ = nullptr;
  std::uint64_t map_size_ = 0;

  std::uint64_t append_offset_ = 0;
  std::size_t recovered_records_ = 0;
  std::uint64_t truncated_bytes_ = 0;
  std::uint64_t shadowed_bytes_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t compacted_bytes_ = 0;
  std::uint64_t appended_records_ = 0;
  std::uint64_t appended_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace dspaddr::store

// GEOSTOR block files: the on-disk shard format of the out-of-core weight
// store (docs/STORAGE.md), in the GEOCKPT mold — magic + version up front,
// integrity checked on every read, atomic temp+rename+fsync writes.
//
// On-disk layout (little-endian):
//
//   offset  size  field
//   0       8     magic        "GEOSTOR\0"
//   8       4     version      format version (kBlockFileVersion)
//   12      4     block_count  number of data blocks
//   16      8     block_bytes  nominal block size (last block may be short)
//   24      8     payload_bytes  total data bytes (float32 payload)
//   32      4*n   crc          CRC-32 of each block's bytes
//   32+4*n  ...   payload      the blocks, back to back
//
// Unlike the checkpoint's single whole-image CRC, integrity is *per block*:
// a scratched block is detected, quarantined, and rebuilt individually
// while its neighbours keep serving. Reads go through the injected-fault
// hooks (GEO_FAULTS io_rot / io_short_read / io_err) so the repair ladder
// above this file is testable deterministically; every corruption — real or
// injected — surfaces as a non-OK Status, never as silent bad floats.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/status.hpp"

namespace geo::store {

inline constexpr std::uint32_t kBlockFileVersion = 1;

// Atomically writes `data` to `path` as a GEOSTOR file with blocks of
// `block_bytes` (any positive multiple of 4; callers size it via
// StoreOptions::block_bytes).
// The image lands in a temp file, is fsync'd, renamed over the target, and
// the parent directory is fsync'd — the commit is durable before this
// returns OK. An injected torn write (GEO_FAULTS io_short_write, keyed by
// `fault_site`) truncates the image silently; the damage is caught by the
// size/CRC checks on the next read, which is the point.
geo::Status write_block_file(const std::string& path,
                             std::span<const float> data,
                             std::int64_t block_bytes,
                             std::uint64_t fault_site);

// One open shard. Move-only; holds the file descriptor. Concurrent
// read_block calls are safe (pread, no shared cursor).
class BlockFile {
 public:
  BlockFile(BlockFile&&) noexcept;
  BlockFile& operator=(BlockFile&&) noexcept;
  ~BlockFile();

  // Opens and validates the header (magic, version, size arithmetic).
  // Fail-closed: kInvalidArgument for foreign files, kFailedPrecondition
  // for version skew or unopenable paths, kDataLoss for truncation.
  static geo::StatusOr<BlockFile> open(const std::string& path);

  std::uint32_t block_count() const noexcept { return block_count_; }
  std::uint64_t block_bytes() const noexcept { return block_bytes_; }
  std::uint64_t payload_bytes() const noexcept { return payload_bytes_; }
  const std::string& path() const noexcept { return path_; }

  // Byte size of block `i` (the last block may be short).
  std::uint64_t block_size(std::uint32_t i) const noexcept;

  // Reads block `i` into `out` (resized to block_size(i)) and verifies its
  // CRC. The injected-fault site is `fault_site ^ i`, so a defect-model
  // io_rot fault pins itself to a specific block. Errors:
  //   kUnavailable  injected transient errno (retryable)
  //   kDataLoss     short read, real or injected corruption (CRC mismatch)
  geo::Status read_block(std::uint32_t i, std::vector<unsigned char>& out,
                         std::uint64_t fault_site) const;

 private:
  BlockFile() = default;

  std::string path_;
  int fd_ = -1;
  std::uint32_t block_count_ = 0;
  std::uint64_t block_bytes_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t data_offset_ = 0;
  std::vector<std::uint32_t> crcs_;
};

}  // namespace geo::store

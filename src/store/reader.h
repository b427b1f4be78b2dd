// DRS reader — loads a store file, parses the footer index, and hands out
// CRC-checked block payloads; store/scan.h decodes them. Two backing modes
// share one API:
//
//   Buffered  the whole file is slurped into an owned string (the
//             original behaviour; works on any filesystem).
//   Mapped    the file is mmap'd read-only and block payloads are views
//             straight into the mapping — no copy of the block region.
//             Falls back to Buffered when mmap is unavailable.
//
// In both modes each block's CRC32C is verified lazily on first touch
// and the verification is recorded per block, so a block touched many
// times (or scanned column-by-column) is checksummed exactly once. The
// whole-file check — every block's CRC and structure — is
// store::check_all (store/scan.h); the store readers run it through
// scenario::CheckedStore, merge_stores on each shard. All failure modes
// (bad magic, unsupported version, truncation, checksum mismatch,
// missing columns) throw StoreError with a message naming the problem.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "store/format.h"

namespace ddos::store {

enum class ReadMode : std::uint8_t {
  Buffered = 0,  // copy the file into memory
  Mapped = 1,    // mmap read-only; zero-copy block payloads
};

class Reader {
 public:
  /// Reads and verifies `path` (header magic/version, trailer, footer
  /// checksum, block-extent sanity, every block at an 8-byte offset and
  /// of a (type, encoding) pair store/epoch.h's ColumnTypes admits).
  /// Throws StoreError on any defect.
  /// Block CRCs are NOT checked here — they verify lazily on first
  /// touch so a mapped open stays O(footer).
  explicit Reader(const std::string& path,
                  ReadMode mode = ReadMode::Buffered);
  ~Reader();

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// True when the file is backed by an mmap (mode Mapped and the map
  /// succeeded); false after the buffered fallback.
  bool mapped() const { return map_ != nullptr; }

  const std::vector<ColumnDesc>& columns() const { return columns_; }
  const std::vector<std::pair<std::string, std::string>>& meta() const {
    return meta_;
  }

  bool has_meta(std::string_view key) const;
  /// Metadata value; throws StoreError when the key is absent.
  std::string meta_value(std::string_view key) const;
  /// Metadata value or `fallback` when absent.
  std::string meta_or(std::string_view key, std::string_view fallback) const;
  /// Metadata value parsed as an unsigned integer / a double; throws
  /// StoreError naming the path and key when absent or malformed.
  std::uint64_t meta_u64(std::string_view key) const;
  double meta_f64(std::string_view key) const;

  bool has_column(std::string_view dataset, std::string_view column) const;
  /// Footer entry for (dataset, column); throws when absent.
  const ColumnDesc& column(std::string_view dataset,
                           std::string_view column) const;
  /// Row count shared by a dataset's columns; throws when the dataset is
  /// absent or its columns disagree.
  std::uint64_t dataset_rows(std::string_view dataset) const;

  /// CRC-checked view of a block's raw payload — bytes of the mapping
  /// itself in Mapped mode, valid for the Reader's lifetime. Column
  /// values are decoded from it by the scan layer (store/scan.h), the
  /// store's one decoder.
  std::string_view verified_payload(const ColumnDesc& desc) const {
    check_crc(desc);
    return payload(desc);
  }

  /// Run `jobs` (independent column decodes) across the exec pool; each
  /// job must write only its own output slot. Dataset readers, scan_all
  /// and check_all use this to fan block work out.
  static void parallel_decode(const std::vector<std::function<void()>>& jobs);

  /// Blocks whose CRC has been verified so far (monotonic; at most one
  /// count per block regardless of how often it is read).
  std::uint64_t lazy_crc_checks() const {
    return lazy_checks_.load(std::memory_order_relaxed);
  }

  std::uint64_t file_size() const { return data_.size(); }
  const std::string& path() const { return path_; }

 private:
  std::string_view payload(const ColumnDesc& desc) const;
  /// CRC-check `desc`'s payload once; throws StoreError on mismatch.
  void check_crc(const ColumnDesc& desc) const;
  void parse(std::string_view data);

  std::string path_;
  std::string buffer_;         // Buffered backing (empty when mapped)
  void* map_ = nullptr;        // Mapped backing
  std::size_t map_size_ = 0;
  std::string_view data_;      // whichever backing is live
  std::vector<ColumnDesc> columns_;
  std::vector<std::pair<std::string, std::string>> meta_;
  // One flag per column block: 1 once its CRC verified OK. Failed checks
  // never set the flag, so a corrupt block throws on every touch.
  mutable std::unique_ptr<std::atomic<std::uint8_t>[]> crc_checked_;
  mutable std::atomic<std::uint64_t> lazy_checks_{0};
};

}  // namespace ddos::store

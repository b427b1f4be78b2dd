// DRS writer — streams encoded column blocks to disk as they are added
// and appends the footer index + trailer on finish(). It encodes no
// values: every block comes from a store/epoch.h appender's flush_to
// (write_column for a whole column). Columns are grouped into named
// datasets ("feed", "events", ...); metadata key/value pairs
// (provenance: config, seed, thread count, result counts) travel in the
// footer. Blocks are checksummed (CRC32C) and padded to an 8-byte file
// offset (format v3) as written.
//
// The file is built under a per-process sibling temp name and renamed
// onto the target path only by a successful finish(), so the path never
// names a torn store: a reader that mapped the previous file keeps its
// intact inode, and a writer abandoned before finish() (an exception
// mid-run) leaves the previous file untouched and no temp file behind.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "store/format.h"

namespace ddos::store {

class Writer {
 public:
  /// Opens `<path>.tmp.<pid>` for writing and emits the header. Throws
  /// StoreError naming `path` when the file cannot be created.
  explicit Writer(const std::string& path);
  /// Removes the temp file unless finish() published it.
  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Footer metadata; later add_meta with the same key overwrites.
  void add_meta(std::string_view key, std::string_view value);

  /// Append one encoded block (the appenders' flush_to). Dataset/column
  /// pairs must be unique. The caller vouches that `payload` is a valid
  /// encoding of `rows` rows; a block that is not fails its decode on
  /// read.
  void add_encoded(std::string_view dataset, std::string_view column,
                   ColumnType type, Encoding encoding, std::uint64_t rows,
                   const std::string& payload) {
    append_block(dataset, column, type, encoding, rows, payload);
  }

  /// Write footer + trailer, close, and rename the temp file onto the
  /// path. Throws StoreError naming the path when any write failed or the
  /// rename does; the writer accepts no further columns afterwards.
  void finish();

  /// Bytes emitted so far (file size after finish()).
  std::uint64_t bytes_written() const { return offset_; }
  std::size_t column_count() const { return columns_.size(); }

 private:
  void append_block(std::string_view dataset, std::string_view column,
                    ColumnType type, Encoding encoding, std::uint64_t rows,
                    const std::string& payload);

  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  std::uint64_t offset_ = 0;
  std::vector<ColumnDesc> columns_;
  std::vector<std::pair<std::string, std::string>> meta_;
  bool finished_ = false;
  bool published_ = false;
};

}  // namespace ddos::store

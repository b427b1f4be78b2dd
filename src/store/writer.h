// DRS writer — streams encoded column blocks to disk as they are added
// and appends the footer index + trailer on finish(). It encodes no
// values: every block comes from store/epoch.h's PieceEncoder, as the
// pieces of a whole-column encode (write_column, merge_stores) or of a
// streamed dataset's batches (DatasetAppender::flush_to). A block goes
// to the file in one writev of its pieces, never joined into one payload
// first. One call per block, not per piece: the same bytes written one
// call per 64Ki-row piece mapped back ~30% slower in analyze_store (the
// scale-10 store, read from the page cache its write filled), as the
// page cache appears to size a write's folios by the call's length.
// Columns are grouped into named datasets ("feed", "events", ...);
// metadata key/value pairs (provenance: config, seed, thread count,
// result counts) travel in the footer. Blocks are checksummed (CRC32C,
// folded from the pieces' own checksums) and padded to an 8-byte file
// offset (format v3) as written.
//
// The file is built under a per-process sibling temp name and renamed
// onto the target path only by a successful finish(), so the path never
// names a torn store: a reader that mapped the previous file keeps its
// intact inode, and a writer abandoned before finish() (an exception
// mid-run) leaves the previous file untouched and no temp file behind.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "store/format.h"

namespace ddos::store {

/// One run of a block's payload and its CRC32C. A block's pieces, in
/// order, join to its payload; a payload built whole is one piece.
struct PayloadPiece {
  PayloadPiece() = default;
  /// `payload` with its checksum computed here.
  explicit PayloadPiece(std::string_view payload);

  std::string_view bytes;
  std::uint32_t crc = 0;
};

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

  /// Append one encoded block, its payload given as `pieces` in order
  /// (a PieceEncoder's, or a DatasetAppender's copy per batch); the
  /// block's CRC is the fold of the pieces' CRCs.
  /// Dataset/column pairs must be unique. The caller vouches that the
  /// payload is a valid encoding of `rows` rows; a block that is not
  /// fails its decode on read.
  void add_encoded(std::string_view dataset, std::string_view column,
                   ColumnType type, Encoding encoding, std::uint64_t rows,
                   std::span<const PayloadPiece> pieces);

  /// Write footer + trailer, close, and rename the temp file onto the
  /// path. Throws StoreError naming the path when any write failed or the
  /// rename does; the writer accepts no further columns afterwards.
  void finish();

  /// Bytes emitted so far (file size after finish()).
  std::uint64_t bytes_written() const { return offset_; }
  std::size_t column_count() const { return columns_.size(); }

 private:
  // Appends `parts` to the file in one writev (more only past IOV_MAX
  // parts or on a short write). The first failure is kept for finish().
  void write_parts(std::span<const std::string_view> parts);

  std::string path_;
  std::string tmp_path_;
  int fd_ = -1;
  int write_errno_ = 0;  // first failed write's errno; 0 while none
  std::uint64_t offset_ = 0;
  std::vector<ColumnDesc> columns_;
  std::vector<std::pair<std::string, std::string>> meta_;
  bool finished_ = false;
  bool published_ = false;
};

}  // namespace ddos::store

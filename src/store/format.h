// DRS ("ddosrepro store") — compact, versioned, binary columnar container
// for the pipeline's intermediate datasets. File layout:
//
//   [header, 16 B]   magic "DRS1" (u32 LE), format version (u32 LE),
//                    reserved (u64)
//   [block 0]...[block k-1]   concatenated column payloads, one block per
//                    column, encoded per the column's Encoding
//   [footer]         metadata key/value pairs + the column index
//                    (dataset, column, type, encoding, rows, offset,
//                    size, CRC32C)
//   [trailer, 16 B]  footer size (u64 LE), footer CRC32C (u32 LE),
//                    magic again (u32 LE)
//
// A reader seeks to the trailer, validates magic + footer checksum, and
// has O(1) access to any column's block from the footer index. Every
// block carries its own CRC32C, validated on read. Each stored value type
// has one encoder, its store/epoch.h appender, and one decoder, scan<V>
// in store/scan.h; store/epoch.h's ColumnTypes is the (type, encoding)
// rule, and a reader refuses any other pair at open. Encodings:
//
//   DeltaVarint  u64 values as zigzag(value - previous) LEB128 varints
//                (timestamps, window indices, sorted keys/ids);
//   Varint       plain LEB128 varints (small unordered counts/ids);
//   Fixed        raw little-endian fixed width (doubles via bit pattern,
//                u8 bytes);
//   StringBlock  per-row varint length + bytes.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ddos::store {

/// Any malformed-file, checksum, or schema failure raises this; readers
/// fail loudly rather than return partial datasets.
class StoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kMagic = 0x31535244u;  // "DRS1" little-endian
// Version history:
//   1  initial layout; measurement keys were (nsset << 32 | time).
//   2  measurement keys flipped to time-major (biased time << 32 | nsset)
//      so sorted-key order is day order and streamed epoch retirement can
//      append sorted chunks. v1 stores would silently mis-join if read
//      with the new layout, hence the bump.
//   3  every block payload starts at an 8-byte-aligned file offset (the
//      writer zero-pads between blocks) so a reader exposes Fixed
//      columns as aligned spans directly over its backing; it refuses a
//      block at any other offset at open. Offsets moved, so v2 footers
//      no longer describe v3 bytes.
inline constexpr std::uint32_t kFormatVersion = 3;
inline constexpr std::size_t kHeaderSize = 16;
inline constexpr std::size_t kTrailerSize = 16;

enum class ColumnType : std::uint8_t { U64 = 0, F64 = 1, U8 = 2, Str = 3 };
enum class Encoding : std::uint8_t {
  DeltaVarint = 0,
  Varint = 1,
  Fixed = 2,
  StringBlock = 3,
};

const char* to_string(ColumnType t);

/// One column block as recorded in the footer index.
struct ColumnDesc {
  std::string dataset;
  std::string column;
  ColumnType type = ColumnType::U64;
  Encoding encoding = Encoding::Varint;
  std::uint64_t rows = 0;
  std::uint64_t offset = 0;  // absolute file offset of the payload
  std::uint64_t size = 0;    // payload bytes
  std::uint32_t crc = 0;     // CRC32C of the payload bytes
};

// ---- byte-buffer primitives (LEB128 varints, zigzag, fixed-width LE).

void put_varint(std::string& out, std::uint64_t v);
/// False when the buffer ends mid-varint or the varint exceeds 64 bits.
bool get_varint(std::string_view buf, std::size_t& pos, std::uint64_t& v);

constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void put_fixed32(std::string& out, std::uint32_t v);
bool get_fixed32(std::string_view buf, std::size_t& pos, std::uint32_t& v);
void put_fixed64(std::string& out, std::uint64_t v);
bool get_fixed64(std::string_view buf, std::size_t& pos, std::uint64_t& v);
void put_string(std::string& out, std::string_view s);
bool get_string(std::string_view buf, std::size_t& pos, std::string& s);

}  // namespace ddos::store

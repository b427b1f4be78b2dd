// Column encoders: one appender per (type, encoding), the only code that
// writes DRS block payloads. Writer::add_* and write_column feed a whole
// column through one; the streaming executor's DatasetAppender
// (store/dataset.h) feeds one day-epoch at a time and keeps only the
// growing encoded payload. DeltaVarint carries its `prev` across append
// calls, so feeding the same values in the same order, whole or chunk by
// chunk, produces the same bytes — which is what keeps a streamed DRS file
// bit-for-bit equal to save_run's.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "store/format.h"
#include "store/writer.h"

namespace ddos::store {

/// One column payload under construction: the encoded bytes so far and
/// their row count.
class BlockAppender {
 public:
  void flush_to(Writer& writer, std::string_view dataset,
                std::string_view column) const {
    writer.add_encoded(dataset, column, type_, encoding_, rows_, payload_);
  }

  std::uint64_t rows() const { return rows_; }
  const std::string& payload() const { return payload_; }

 protected:
  BlockAppender(ColumnType type, Encoding encoding)
      : type_(type), encoding_(encoding) {}

  ColumnType type_;
  Encoding encoding_;
  std::string payload_;
  std::uint64_t rows_ = 0;
};

/// u64 column: DeltaVarint, Varint or Fixed.
class U64Appender : public BlockAppender {
 public:
  explicit U64Appender(Encoding encoding = Encoding::DeltaVarint);

  /// Room for `rows` more values at ~2 bytes each (1-2 byte varints are
  /// the common case; Fixed grows past it).
  void reserve(std::size_t rows) {
    payload_.reserve(payload_.size() + rows * 2);
  }

  void append(std::uint64_t v) {
    if (encoding_ == Encoding::DeltaVarint) {
      // Deltas wrap mod 2^64; zigzag keeps small negative steps short.
      put_varint(payload_,
                 zigzag_encode(static_cast<std::int64_t>(v - prev_)));
      prev_ = v;
    } else if (encoding_ == Encoding::Varint) {
      put_varint(payload_, v);
    } else {
      put_fixed64(payload_, v);
    }
    ++rows_;
  }

 private:
  std::uint64_t prev_ = 0;  // DeltaVarint carry across appends
};

/// f64 column: Fixed little-endian bit patterns, bit-exact.
class F64Appender : public BlockAppender {
 public:
  F64Appender() : BlockAppender(ColumnType::F64, Encoding::Fixed) {}

  void reserve(std::size_t rows) {
    payload_.reserve(payload_.size() + rows * 8);
  }
  void append(double v) {
    put_fixed64(payload_, std::bit_cast<std::uint64_t>(v));
    ++rows_;
  }
};

/// u8 column: Fixed raw bytes.
class U8Appender : public BlockAppender {
 public:
  U8Appender() : BlockAppender(ColumnType::U8, Encoding::Fixed) {}

  void reserve(std::size_t rows) { payload_.reserve(payload_.size() + rows); }
  void append(std::uint8_t v) {
    payload_.push_back(static_cast<char>(v));
    ++rows_;
  }
};

/// String column: StringBlock, a varint length then the bytes per row.
class StringAppender : public BlockAppender {
 public:
  StringAppender() : BlockAppender(ColumnType::Str, Encoding::StringBlock) {}

  /// Room for `rows` more length prefixes (the bytes grow as they come).
  void reserve(std::size_t rows) { payload_.reserve(payload_.size() + rows); }
  void append(std::string_view s) {
    put_string(payload_, s);
    ++rows_;
  }
};

/// Encode one whole column through `appender`, get(row) giving each row's
/// value, and add it to `writer` as one block. Only the column's payload
/// is built, never a column vector of the values.
template <typename Appender, typename Rows, typename Get>
void write_column(Writer& writer, std::string_view dataset,
                  std::string_view column, Appender appender,
                  const Rows& rows, Get get) {
  appender.reserve(std::size(rows));
  for (const auto& row : rows) appender.append(get(row));
  appender.flush_to(writer, dataset, column);
}

}  // namespace ddos::store

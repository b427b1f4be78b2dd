// Column encoders and the column-type rule. One appender per stored
// value type is the only code that writes DRS block payloads; each names
// its Value, its footer ColumnType and the encodings it admits, and
// ColumnTypes below lists them: AppenderFor<V> picks a value type's
// encoder, store/scan.h's scan<V> its decoder, and ColumnTypes::visit
// turns a footer's type byte back into V. write_column feeds a whole
// column through an appender; the streaming executor's DatasetAppender
// (store/dataset.h) feeds one day-epoch at a time and keeps only the
// growing encoded payload. DeltaVarint carries its `prev` across append
// calls, so feeding the same values in the same order, whole or chunk by
// chunk, produces the same bytes — which is what keeps a streamed DRS file
// bit-for-bit equal to save_run's.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "store/format.h"
#include "store/writer.h"

namespace ddos::store {

/// One column payload under construction: the encoded bytes so far and
/// their row count. Throws StoreError when `encoding` is one the column
/// type does not admit.
class BlockAppender {
 public:
  void flush_to(Writer& writer, std::string_view dataset,
                std::string_view column) const {
    writer.add_encoded(dataset, column, type_, encoding_, rows_, payload_);
  }

  std::uint64_t rows() const { return rows_; }
  const std::string& payload() const { return payload_; }

 protected:
  BlockAppender(ColumnType type, Encoding encoding);

  ColumnType type_;
  Encoding encoding_;
  std::string payload_;
  std::uint64_t rows_ = 0;
};

/// u64 column: DeltaVarint, Varint or Fixed.
class U64Appender : public BlockAppender {
 public:
  using Value = std::uint64_t;
  static constexpr ColumnType kType = ColumnType::U64;
  static constexpr bool admits(Encoding e) {
    return e == Encoding::DeltaVarint || e == Encoding::Varint ||
           e == Encoding::Fixed;
  }

  explicit U64Appender(Encoding encoding = Encoding::DeltaVarint)
      : BlockAppender(kType, encoding) {}

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
  using Value = double;
  static constexpr ColumnType kType = ColumnType::F64;
  static constexpr bool admits(Encoding e) { return e == Encoding::Fixed; }

  explicit F64Appender(Encoding encoding = Encoding::Fixed)
      : BlockAppender(kType, encoding) {}

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
  using Value = std::uint8_t;
  static constexpr ColumnType kType = ColumnType::U8;
  static constexpr bool admits(Encoding e) { return e == Encoding::Fixed; }

  explicit U8Appender(Encoding encoding = Encoding::Fixed)
      : BlockAppender(kType, encoding) {}

  void reserve(std::size_t rows) { payload_.reserve(payload_.size() + rows); }
  void append(std::uint8_t v) {
    payload_.push_back(static_cast<char>(v));
    ++rows_;
  }
};

/// String column: StringBlock, a varint length then the bytes per row.
class StringAppender : public BlockAppender {
 public:
  using Value = std::string_view;
  static constexpr ColumnType kType = ColumnType::Str;
  static constexpr bool admits(Encoding e) {
    return e == Encoding::StringBlock;
  }

  explicit StringAppender(Encoding encoding = Encoding::StringBlock)
      : BlockAppender(kType, encoding) {}

  /// Room for `rows` more length prefixes (the bytes grow as they come).
  void reserve(std::size_t rows) { payload_.reserve(payload_.size() + rows); }
  void append(std::string_view s) {
    put_string(payload_, s);
    ++rows_;
  }
};

/// The column-type rule over `Appenders`, one per stored value type.
template <typename... Appenders>
struct ColumnTypeRule {
  using AnyAppender = std::variant<Appenders...>;
  /// std::variant<Of<V>...> over the value types.
  template <template <typename> class Of>
  using AnyOf = std::variant<Of<typename Appenders::Value>...>;

  /// Position of value type V in the list (the list size when absent).
  template <typename V>
  static constexpr std::size_t index() {
    std::size_t i = 0;
    (void)((std::is_same_v<V, typename Appenders::Value> || (++i, false)) ||
           ...);
    return i;
  }

  /// Calls fn(std::type_identity<V>{}) for the value type a `type`
  /// column stores — the static type behind a footer's ColumnType byte.
  /// Does nothing for a type byte no appender names; Reader refuses those
  /// at open, so every desc it hands out names one.
  template <typename Fn>
  static void visit(ColumnType type, Fn&& fn) {
    (void)((type == Appenders::kType &&
            (fn(std::type_identity<typename Appenders::Value>{}), true)) ||
           ...);
  }

  /// True when a `type` column may be stored in `encoding`.
  static constexpr bool admits(ColumnType type, Encoding encoding) {
    return ((type == Appenders::kType && Appenders::admits(encoding)) || ...);
  }
};

/// Every stored value type: u64, f64, u8 and strings.
using ColumnTypes =
    ColumnTypeRule<U64Appender, F64Appender, U8Appender, StringAppender>;

/// The appender encoding value type V.
template <typename V>
using AppenderFor = std::variant_alternative_t<ColumnTypes::index<V>(),
                                               ColumnTypes::AnyAppender>;

/// Encode one whole column through `appender`, get(row) giving each row's
/// value (the row itself by default), and add it to `writer` as one
/// block. Only the column's payload is built, never a column vector of
/// the values.
template <typename Appender, typename Rows, typename Get = std::identity>
void write_column(Writer& writer, std::string_view dataset,
                  std::string_view column, Appender appender,
                  const Rows& rows, Get get = {}) {
  appender.reserve(std::size(rows));
  for (const auto& row : rows) appender.append(get(row));
  appender.flush_to(writer, dataset, column);
}

}  // namespace ddos::store

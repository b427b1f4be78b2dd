// Column encoders and the column-type rule. One appender per stored
// value type is the only code that writes DRS block payloads; each names
// its Value, its footer ColumnType and the encodings it admits, and
// ColumnTypes below lists them: AppenderFor<V> picks a value type's
// encoder, store/scan.h's scan<V> its decoder, and ColumnTypes::visit
// turns a footer's type byte back into V.
//
// One encoder drives the appenders: PieceEncoder cuts rows into
// kPieceRows-row pieces, each encoded by its own appender in an exec-pool
// task, for write_column (a whole column), merge_stores (the shards'
// columns) and the streaming DatasetAppender (store/dataset.h, one
// ingest region at a time). A piece starts from the value before its
// first row (U64Appender::carry), so the same values in the same order,
// whole, region by region or piece by piece, encode to the same bytes —
// which keeps a streamed or merged DRS file bit-for-bit equal to
// save_run's.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "exec/parallel.h"
#include "store/format.h"
#include "store/writer.h"

namespace ddos::store {

/// One column payload under construction. Throws StoreError when
/// `encoding` is one the column type does not admit.
class BlockAppender {
 public:
  Encoding encoding() const { return encoding_; }
  const std::string& payload() const { return payload_; }

  /// Encodes into `buffer` from here on: its bytes are dropped, its
  /// capacity kept. PieceEncoder hands each task a buffer reserved on
  /// the calling thread this way, and takes it back with release().
  void adopt(std::string&& buffer) {
    payload_ = std::move(buffer);
    payload_.clear();
  }
  std::string release() && { return std::move(payload_); }

 protected:
  BlockAppender(ColumnType type, Encoding encoding);

  Encoding encoding_;
  std::string payload_;
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

  /// The most bytes `rows` values can take: 10 per varint, 8 Fixed.
  std::size_t bytes_for(std::size_t rows) const {
    return rows * (encoding_ == Encoding::Fixed ? 8 : 10);
  }

  /// Continues a DeltaVarint column after a row holding `prev`: the next
  /// value is encoded as its delta from `prev`. A fresh appender carries
  /// 0; the piece encoder carries each piece over the row before it.
  void carry(std::uint64_t prev) { prev_ = prev; }

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

  std::size_t bytes_for(std::size_t rows) const { return rows * 8; }
  void append(double v) {
    put_fixed64(payload_, std::bit_cast<std::uint64_t>(v));
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

  std::size_t bytes_for(std::size_t rows) const { return rows; }
  void append(std::uint8_t v) { payload_.push_back(static_cast<char>(v)); }
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

  /// Room for `rows` one-byte length prefixes; the bytes grow as they
  /// come.
  std::size_t bytes_for(std::size_t rows) const { return rows; }
  void append(std::string_view s) { put_string(payload_, s); }
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

/// Rows per piece of a whole-column encode. A constant, so a column's
/// pieces do not depend on the pool width; 64Ki rows of the widest
/// value (a 10-byte varint) is 640 KiB, which keeps the feed's ~1.8M
/// rows at ~28 pieces for the pool to spread.
inline constexpr std::size_t kPieceRows = std::size_t{1} << 16;

/// Encodes columns, or the next rows of one, as kPieceRows-row pieces,
/// one exec-pool task each (region "store.encode"), whose payloads join
/// to the payload one appender fed every row would build, byte for byte.
/// Three allocation rules keep it fast and small:
///   1. a task's appender is its own local, moved onto its buffer and
///      back off it, so no two tasks append into neighbouring state;
///   2. every buffer is reserved on the calling thread for its piece's
///      worst case (Appender::bytes_for), so no task allocates and no
///      piece lands in a worker's malloc arena;
///   3. the buffers are kept across the columns (and batches) one encoder
///      writes, so a dataset's transient is one column's pieces and never
///      a payload that grows by doubling.
/// A StringBlock column is one piece, encoded on the calling thread: its
/// offset walk is serial.
class PieceEncoder {
 public:
  /// Encodes the rows of `segments` (each a random-access range of rows;
  /// the column is their concatenation) through copies of `appender`,
  /// get(row) giving each row's value (the row itself by default).
  /// Pieces never span segments; an empty segment has none. The first
  /// row continues a column whose last value was `carry` (a fresh column
  /// carries 0). Returns the pieces in order, viewing this encoder's
  /// buffers until its next encode.
  template <typename Appender, typename Segments, typename Get = std::identity>
  std::span<const PayloadPiece> encode(
      const Appender& appender, const Segments& segments, Get get = {},
      typename Appender::Value carry = {}) {
    if constexpr (std::is_same_v<Appender, StringAppender>) {
      std::size_t rows = 0;
      for (const auto& segment : segments) rows += std::size(segment);
      Appender local = appender;
      local.adopt(std::move(reserved(0, local.bytes_for(rows))));
      for (const auto& segment : segments) {
        for (const auto& row : segment) local.append(get(row));
      }
      buffers_[0] = std::move(local).release();
      pieces_.assign(1, PayloadPiece(buffers_[0]));
      return pieces_;
    } else {
      // Each piece starts from the value of the row before it: in its own
      // segment, else the last row of the last non-empty one, else `carry`.
      struct Cut {
        std::size_t segment, begin, end;
        typename Appender::Value carry;
      };
      std::vector<Cut> cuts;
      typename Appender::Value last = carry;
      for (std::size_t s = 0; s < std::size(segments); ++s) {
        const auto& segment = segments[s];
        const std::size_t n = std::size(segment);
        for (std::size_t begin = 0; begin < n; begin += kPieceRows) {
          cuts.push_back({s, begin, std::min(n, begin + kPieceRows),
                          begin == 0 ? last : get(segment[begin - 1])});
        }
        if (n > 0) last = get(segment[n - 1]);
      }
      for (std::size_t i = 0; i < cuts.size(); ++i) {
        reserved(i, appender.bytes_for(cuts[i].end - cuts[i].begin));
      }
      pieces_.assign(cuts.size(), PayloadPiece());
      exec::RegionOptions opts;
      opts.label = "store.encode";
      opts.max_shards = cuts.size();  // one claimable task per piece
      exec::parallel_for(cuts.size(), opts, [&](const exec::ShardRange& range) {
        for (std::size_t i = range.begin; i < range.end; ++i) {
          const Cut& cut = cuts[i];
          Appender local = appender;
          local.adopt(std::move(buffers_[i]));
          if constexpr (std::is_same_v<Appender, U64Appender>) {
            local.carry(cut.carry);
          }
          const auto& segment = segments[cut.segment];
          for (std::size_t r = cut.begin; r < cut.end; ++r) {
            local.append(get(segment[r]));
          }
          buffers_[i] = std::move(local).release();
          pieces_[i] = PayloadPiece(buffers_[i]);
        }
      });
      return pieces_;
    }
  }

 private:
  // Buffer i, emptied and reserved for `bytes` on the calling thread.
  std::string& reserved(std::size_t i, std::size_t bytes) {
    if (buffers_.size() <= i) buffers_.resize(i + 1);
    buffers_[i].clear();
    buffers_[i].reserve(bytes);
    return buffers_[i];
  }

  std::vector<std::string> buffers_;
  std::vector<PayloadPiece> pieces_;
};

/// Encodes one whole column through `pieces` and adds it to `writer` as
/// one block; get(row) gives each row's value (the row itself by
/// default). Only the column's pieces are built, never a column vector
/// of the values or one joined payload.
template <typename Appender, typename Rows, typename Get = std::identity>
void write_column(Writer& writer, PieceEncoder& pieces,
                  std::string_view dataset, std::string_view column,
                  const Appender& appender, const Rows& rows, Get get = {}) {
  writer.add_encoded(dataset, column, Appender::kType, appender.encoding(),
                     std::size(rows),
                     pieces.encode(appender, std::span(&rows, 1), get));
}

/// write_column through buffers of its own, for a one-column write.
template <typename Appender, typename Rows, typename Get = std::identity>
void write_column(Writer& writer, std::string_view dataset,
                  std::string_view column, const Appender& appender,
                  const Rows& rows, Get get = {}) {
  PieceEncoder pieces;
  write_column(writer, pieces, dataset, column, appender, rows, get);
}

}  // namespace ddos::store

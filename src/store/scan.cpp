#include "store/scan.h"

#include <bit>
#include <cstring>
#include <functional>
#include <mutex>
#include <type_traits>

#include "store/dataset.h"
#include "store/epoch.h"

namespace ddos::store {

namespace {

[[noreturn]] void bad_block(const char* what) { throw StoreError(what); }

// Every varint, and every string's length prefix, takes at least one
// byte: more rows than payload bytes is a truncated block, caught before
// a hostile row count sizes the output buffers.
void expect_rows_fit(std::string_view payload, std::uint64_t rows,
                     const char* what) {
  if (rows > payload.size()) bad_block(what);
}

// Fully unrolled decode of one LEB128 varint with >= 10 readable bytes.
// Returns the advanced pointer, or nullptr on a non-canonical 10-byte
// varint (same rejection rule as format.h's get_varint). Each step is a
// load + mask + shift + or + compare — no loop counter, no shift
// variable, so the compiler keeps everything in registers and the
// one-byte common case (small counts/ids, tight deltas) is a single
// well-predicted branch.
inline const std::uint8_t* decode_one(const std::uint8_t* p,
                                      std::uint64_t& v) {
  std::uint64_t b = p[0];
  std::uint64_t r = b & 0x7Fu;
  if (b < 0x80u) { v = r; return p + 1; }
  b = p[1]; r |= (b & 0x7Fu) << 7;  if (b < 0x80u) { v = r; return p + 2; }
  b = p[2]; r |= (b & 0x7Fu) << 14; if (b < 0x80u) { v = r; return p + 3; }
  b = p[3]; r |= (b & 0x7Fu) << 21; if (b < 0x80u) { v = r; return p + 4; }
  b = p[4]; r |= (b & 0x7Fu) << 28; if (b < 0x80u) { v = r; return p + 5; }
  b = p[5]; r |= (b & 0x7Fu) << 35; if (b < 0x80u) { v = r; return p + 6; }
  b = p[6]; r |= (b & 0x7Fu) << 42; if (b < 0x80u) { v = r; return p + 7; }
  b = p[7]; r |= (b & 0x7Fu) << 49; if (b < 0x80u) { v = r; return p + 8; }
  b = p[8]; r |= (b & 0x7Fu) << 56; if (b < 0x80u) { v = r; return p + 9; }
  b = p[9];
  if (b > 1) return nullptr;  // continuation past 64 bits / non-canonical
  v = r | (b << 63);
  return p + 10;
}

// Shared skeleton of the two varint decoders: the unrolled loop runs
// while a full 10-byte varint cannot read past the payload; the tail
// (fewer than 10 bytes left) goes through the bounds-checked get_varint.
template <typename Emit>
void decode_varints(std::string_view payload, std::uint64_t rows,
                    Emit&& emit) {
  const auto* base = reinterpret_cast<const std::uint8_t*>(payload.data());
  const std::uint8_t* p = base;
  const std::uint8_t* const end = base + payload.size();
  std::uint64_t i = 0;
  std::uint64_t v = 0;
  while (i < rows && end - p >= 10) {
    const std::uint8_t* next = decode_one(p, v);
    if (next == nullptr) bad_block("malformed varint in block");
    emit(i, v);
    p = next;
    ++i;
  }
  // Tail (< 10 readable bytes) through the bounds-checked slow path.
  std::size_t pos = static_cast<std::size_t>(p - base);
  for (; i < rows; ++i) {
    if (!get_varint(payload, pos, v)) bad_block("truncated varint block");
    emit(i, v);
  }
  if (pos != payload.size()) bad_block("trailing bytes after varint block");
}

// The string block walk: a varint length then that many bytes, per row.
// Calls emit(row, start, len) and returns the defect, or nullptr when
// the rows parse to the block's exact end. Each row takes at least one
// byte, so a hostile `rows` ends the walk at the payload's end.
template <typename Emit>
const char* walk_strings(std::string_view payload, std::uint64_t rows,
                         Emit&& emit) {
  std::size_t pos = 0;
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::uint64_t len = 0;
    if (!get_varint(payload, pos, len)) return "truncated string block";
    // pos <= size here; `pos + len` could wrap for a hostile length.
    if (len > payload.size() - pos) return "truncated string block";
    emit(i, pos, len);
    pos += len;
  }
  if (pos != payload.size()) return "trailing bytes after string block";
  return nullptr;
}

}  // namespace

std::vector<std::uint64_t>& ColumnArena::u64_slot(std::string_view dataset,
                                                  std::string_view column,
                                                  std::string_view aux) {
  std::string key;
  key.reserve(dataset.size() + column.size() + aux.size() + 2);
  key.append(dataset).push_back('.');
  key.append(column);
  if (!aux.empty()) {
    key.push_back('.');
    key.append(aux);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = u64_[key];
  if (!slot) slot = std::make_unique<std::vector<std::uint64_t>>();
  return *slot;
}

void decode_varint_block(std::string_view payload, std::uint64_t rows,
                         std::vector<std::uint64_t>& out) {
  expect_rows_fit(payload, rows, "truncated varint block");
  out.resize(rows);
  std::uint64_t* dst = out.data();
  decode_varints(payload, rows,
                 [dst](std::uint64_t i, std::uint64_t v) { dst[i] = v; });
}

void decode_delta_varint_block(std::string_view payload, std::uint64_t rows,
                               std::vector<std::uint64_t>& out) {
  expect_rows_fit(payload, rows, "truncated varint block");
  out.resize(rows);
  std::uint64_t* dst = out.data();
  std::uint64_t prev = 0;
  decode_varints(payload, rows, [dst, &prev](std::uint64_t i, std::uint64_t zz) {
    // Branch-light prefix sum: zigzag_decode is shift/xor/negate only,
    // and the running value stays in a register across rows.
    prev += static_cast<std::uint64_t>(zigzag_decode(zz));
    dst[i] = prev;
  });
}

void decode_string_offsets(std::string_view payload, std::uint64_t rows,
                           std::vector<std::uint64_t>& starts,
                           std::vector<std::uint64_t>& lens) {
  expect_rows_fit(payload, rows, "truncated string block");
  starts.resize(rows);
  lens.resize(rows);
  const char* defect =
      walk_strings(payload, rows,
                   [&](std::uint64_t i, std::size_t start, std::uint64_t len) {
                     starts[i] = start;
                     lens[i] = len;
                   });
  if (defect != nullptr) bad_block(defect);
}

bool varint_block_well_formed(std::string_view payload, std::uint64_t rows) {
  // Bit 7 of every byte: set on a continuation byte, clear on the last
  // byte of a varint (a terminator).
  constexpr std::uint64_t kTopBits = 0x8080808080808080ull;
  const auto* p = reinterpret_cast<const std::uint8_t*>(payload.data());
  const std::size_t n = payload.size();
  // With the last byte a terminator, every varint ends inside the block,
  // and one is too long when its terminator lies 9+ bytes past its start.
  if (n != 0 && (p[n - 1] & 0x80u) != 0) return false;
  std::uint64_t terminators = 0;
  std::size_t start = 0;  // where the current varint began
  bool overlong = false;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);  // little-endian load; x86/arm64 targets
    const std::uint64_t ends = ~word & kTopBits;
    // One bit per terminator, at bit 7 of its byte: a multiply sums the
    // eight lanes into the top byte (no popcnt in baseline x86-64).
    terminators += ((ends >> 7) * 0x0101010101010101ull) >> 56;
    // The word's first terminator ends the current varint; the next
    // starts after its last one. A word with none gives first = i + 8,
    // flagging a varint begun before it, and start = i, which then loses
    // nothing.
    const std::size_t first = i + std::countr_zero(ends) / 8;
    overlong |= first - start >= 9;
    start = i + 8 - std::countl_zero(ends) / 8;
  }
  for (; i < n; ++i) {
    if ((p[i] & 0x80u) == 0) {
      ++terminators;
      overlong |= i - start >= 9;
      start = i + 1;
    }
  }
  return !overlong && terminators == rows;
}

namespace {

// The block decoders name only the defect; a scan adds the store path and
// the column, so a failure in a multi-shard merge names the corrupt file.
[[noreturn]] void column_error(const Reader& reader, const ColumnDesc& desc,
                               std::string_view what) {
  throw StoreError(reader.path() + ": column '" + desc.dataset + "." +
                   desc.column + "': " + std::string(what));
}

// A Fixed block holds exactly rows values of `width` bytes, checked
// before any span is formed over it — by division, as rows * width can
// wrap for a hostile row count.
bool fixed_size_ok(std::string_view payload, std::uint64_t rows,
                   std::uint64_t width) {
  return payload.size() / width == rows && payload.size() % width == 0;
}

}  // namespace

template <typename V>
ColumnSpan<V> scan(const Reader& reader, const ColumnDesc& desc,
                   ColumnArena& arena) {
  constexpr ColumnType type = AppenderFor<V>::kType;
  if (desc.type != type) {
    column_error(reader, desc,
                 std::string("stored as ") + to_string(desc.type) +
                     ", read as " + to_string(type));
  }
  const std::string_view payload = reader.verified_payload(desc);
  try {
    if constexpr (std::is_same_v<V, std::string_view>) {
      std::vector<std::uint64_t>& starts =
          arena.u64_slot(desc.dataset, desc.column, "starts");
      std::vector<std::uint64_t>& lens =
          arena.u64_slot(desc.dataset, desc.column, "lens");
      decode_string_offsets(payload, desc.rows, starts, lens);
      return {payload, starts, lens};
    } else {
      // Reader admits varint encodings for u64 columns only.
      if constexpr (std::is_same_v<V, std::uint64_t>) {
        if (desc.encoding != Encoding::Fixed) {
          std::vector<std::uint64_t>& buf =
              arena.u64_slot(desc.dataset, desc.column);
          if (desc.encoding == Encoding::DeltaVarint) {
            decode_delta_varint_block(payload, desc.rows, buf);
          } else {
            decode_varint_block(payload, desc.rows, buf);
          }
          return {buf.data(), buf.size()};
        }
      }
      // Reader refused any block not 8-byte aligned at open: the span
      // lies over the backing itself.
      if (!fixed_size_ok(payload, desc.rows, sizeof(V)))
        bad_block("fixed block size does not match row count");
      return {reinterpret_cast<const V*>(payload.data()), desc.rows};
    }
  } catch (const StoreError& e) {
    column_error(reader, desc, e.what());
  }
}

// One scan per stored value type (ColumnTypes).
template ColumnSpan<std::uint64_t> scan<std::uint64_t>(const Reader&,
                                                       const ColumnDesc&,
                                                       ColumnArena&);
template ColumnSpan<double> scan<double>(const Reader&, const ColumnDesc&,
                                         ColumnArena&);
template ColumnSpan<std::uint8_t> scan<std::uint8_t>(const Reader&,
                                                     const ColumnDesc&,
                                                     ColumnArena&);
template ColumnSpan<std::string_view> scan<std::string_view>(
    const Reader&, const ColumnDesc&, ColumnArena&);

core::EventFrame read_event_frame(const Reader& reader, ColumnArena& arena) {
  core::EventFrame f;
  f.rows = reader.dataset_rows("events");
  for_each_event_column(f, [&]<typename Values>(const char* column, Encoding,
                                                Values& values) {
    values = scan<typename Values::value_type>(
        reader, reader.column("events", column), arena);
  });
  return f;
}

namespace {

// Decode one block by its type, as every consumer would.
void scan_column(const Reader& reader, const ColumnDesc& desc,
                 ColumnArena& arena) {
  ColumnTypes::visit(desc.type, [&]<typename V>(std::type_identity<V>) {
    scan<V>(reader, desc, arena);
  });
}

// True when `payload` is a block scan<V> accepts, judged from its
// structure alone. False is not a verdict: the scan decides.
template <typename V>
bool block_well_formed(const ColumnDesc& desc, std::string_view payload) {
  switch (desc.encoding) {
    case Encoding::Fixed: return fixed_size_ok(payload, desc.rows, sizeof(V));
    case Encoding::DeltaVarint:
    case Encoding::Varint:
      return varint_block_well_formed(payload, desc.rows);
    case Encoding::StringBlock:
      return walk_strings(payload, desc.rows,
                          [](std::uint64_t, std::size_t, std::uint64_t) {}) ==
             nullptr;
  }
  return false;
}

// Run `fn(desc)` for every block across the exec pool; returns the
// payload bytes of all blocks.
template <typename Fn>
std::uint64_t for_each_block(const Reader& reader, Fn fn) {
  std::vector<std::function<void()>> jobs;
  std::uint64_t bytes = 0;
  for (const ColumnDesc& desc : reader.columns()) {
    bytes += desc.size;
    jobs.push_back([&fn, &desc] { fn(desc); });
  }
  Reader::parallel_decode(jobs);
  return bytes;
}

void check_column(const Reader& reader, const ColumnDesc& desc) {
  const std::string_view payload = reader.verified_payload(desc);
  ColumnTypes::visit(desc.type, [&]<typename V>(std::type_identity<V>) {
    if (block_well_formed<V>(desc, payload)) return;
    // The structure check only ever accepts. The scan is the one
    // authority on a refusal and its message; a block it accepts (a
    // varint of nine continuation bytes) decodes here once, into a
    // buffer thrown away.
    ColumnArena scratch;
    scan<V>(reader, desc, scratch);
  });
}

}  // namespace

std::uint64_t scan_all(const Reader& reader, ColumnArena& arena) {
  return for_each_block(reader, [&](const ColumnDesc& desc) {
    scan_column(reader, desc, arena);
  });
}

void check_all(const Reader& reader) {
  for_each_block(reader, [&](const ColumnDesc& desc) {
    check_column(reader, desc);
  });
}

}  // namespace ddos::store

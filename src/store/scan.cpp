#include "store/scan.h"

#include <cstring>
#include <functional>
#include <mutex>
#include <type_traits>

#include "store/dataset.h"

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

std::vector<double>& ColumnArena::f64_slot(std::string_view dataset,
                                           std::string_view column) {
  std::string key;
  key.reserve(dataset.size() + column.size() + 1);
  key.append(dataset).push_back('.');
  key.append(column);
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = f64_[key];
  if (!slot) slot = std::make_unique<std::vector<double>>();
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
  std::size_t pos = 0;
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::uint64_t len = 0;
    if (!get_varint(payload, pos, len)) bad_block("truncated string block");
    // pos <= size here; `pos + len` could wrap for a hostile length.
    if (len > payload.size() - pos) bad_block("truncated string block");
    starts[i] = pos;
    lens[i] = len;
    pos += len;
  }
  if (pos != payload.size()) bad_block("trailing bytes after string block");
}

namespace {

bool aligned8(const char* p) {
  return (reinterpret_cast<std::uintptr_t>(p) & 7u) == 0;
}

// The block decoders name only the defect; a scan adds the store path and
// the column, so a failure in a multi-shard merge names the corrupt file.
[[noreturn]] void column_error(const Reader& reader, const ColumnDesc& desc,
                               std::string_view what) {
  throw StoreError(reader.path() + ": column '" + desc.dataset + "." +
                   desc.column + "': " + std::string(what));
}

void expect_type(const Reader& reader, const ColumnDesc& desc,
                 ColumnType type) {
  if (desc.type != type) {
    column_error(reader, desc,
                 std::string("stored as ") + to_string(desc.type) +
                     ", read as " + to_string(type));
  }
}

// A Fixed block holds exactly desc.rows values of `width` bytes, checked
// before any span is formed over it — by division, as rows * width can
// wrap for a hostile row count.
void expect_fixed_size(const Reader& reader, const ColumnDesc& desc,
                       std::string_view payload, std::uint64_t width) {
  if (payload.size() / width != desc.rows || payload.size() % width != 0)
    column_error(reader, desc, "fixed block size does not match row count");
}

}  // namespace

std::span<const std::uint64_t> scan_u64(const Reader& reader,
                                        const ColumnDesc& desc,
                                        ColumnArena& arena) {
  expect_type(reader, desc, ColumnType::U64);
  const std::string_view payload = reader.verified_payload(desc);
  if (desc.encoding == Encoding::Fixed) {
    expect_fixed_size(reader, desc, payload, 8);
    if (aligned8(payload.data()))
      return {reinterpret_cast<const std::uint64_t*>(payload.data()),
              desc.rows};
  }
  auto& buf = arena.u64_slot(desc.dataset, desc.column);
  try {
    switch (desc.encoding) {
      case Encoding::DeltaVarint:
        decode_delta_varint_block(payload, desc.rows, buf);
        break;
      case Encoding::Varint:
        decode_varint_block(payload, desc.rows, buf);
        break;
      case Encoding::Fixed:  // misaligned (never written by our writer)
        buf.resize(desc.rows);
        std::memcpy(buf.data(), payload.data(), payload.size());
        break;
      default:
        bad_block("u64 column needs a varint or fixed encoding");
    }
  } catch (const StoreError& e) {
    column_error(reader, desc, e.what());
  }
  return {buf.data(), buf.size()};
}

std::span<const double> scan_f64(const Reader& reader, const ColumnDesc& desc,
                                 ColumnArena& arena) {
  expect_type(reader, desc, ColumnType::F64);
  const std::string_view payload = reader.verified_payload(desc);
  expect_fixed_size(reader, desc, payload, 8);
  if (aligned8(payload.data()))
    return {reinterpret_cast<const double*>(payload.data()), desc.rows};
  std::vector<double>& buf = arena.f64_slot(desc.dataset, desc.column);
  buf.resize(desc.rows);
  std::memcpy(buf.data(), payload.data(), payload.size());
  return {buf.data(), buf.size()};
}

std::span<const std::uint8_t> scan_u8(const Reader& reader,
                                      const ColumnDesc& desc) {
  expect_type(reader, desc, ColumnType::U8);
  const std::string_view payload = reader.verified_payload(desc);
  expect_fixed_size(reader, desc, payload, 1);
  return {reinterpret_cast<const std::uint8_t*>(payload.data()), desc.rows};
}

core::StringColumnView scan_strings(const Reader& reader,
                                    const ColumnDesc& desc,
                                    ColumnArena& arena) {
  expect_type(reader, desc, ColumnType::Str);
  const std::string_view payload = reader.verified_payload(desc);
  std::vector<std::uint64_t>& starts =
      arena.u64_slot(desc.dataset, desc.column, "starts");
  std::vector<std::uint64_t>& lens =
      arena.u64_slot(desc.dataset, desc.column, "lens");
  try {
    decode_string_offsets(payload, desc.rows, starts, lens);
  } catch (const StoreError& e) {
    column_error(reader, desc, e.what());
  }
  core::StringColumnView view;
  view.bytes = payload;
  view.starts = {starts.data(), starts.size()};
  view.lens = {lens.data(), lens.size()};
  return view;
}

core::EventFrame read_event_frame(const Reader& reader, ColumnArena& arena) {
  core::EventFrame f;
  f.rows = reader.dataset_rows("events");
  for_each_event_column(f, [&](const char* column, Encoding, auto& values) {
    const ColumnDesc& desc = reader.column("events", column);
    using Values = std::remove_reference_t<decltype(values)>;
    if constexpr (std::is_same_v<Values, std::span<const std::uint64_t>>) {
      values = scan_u64(reader, desc, arena);
    } else if constexpr (std::is_same_v<Values, std::span<const double>>) {
      values = scan_f64(reader, desc, arena);
    } else if constexpr (std::is_same_v<Values,
                                         std::span<const std::uint8_t>>) {
      values = scan_u8(reader, desc);
    } else {
      values = scan_strings(reader, desc, arena);
    }
  });
  return f;
}

std::uint64_t scan_all(const Reader& reader, ColumnArena& arena) {
  std::vector<std::function<void()>> jobs;
  std::uint64_t bytes = 0;
  for (const ColumnDesc& desc : reader.columns()) {
    bytes += desc.size;
    jobs.push_back([&reader, &desc, &arena] {
      switch (desc.type) {
        case ColumnType::U64: scan_u64(reader, desc, arena); return;
        case ColumnType::F64: scan_f64(reader, desc, arena); return;
        case ColumnType::U8: scan_u8(reader, desc); return;
        case ColumnType::Str: scan_strings(reader, desc, arena); return;
      }
      column_error(reader, desc, "unknown column type");
    });
  }
  Reader::parallel_decode(jobs);
  return bytes;
}

}  // namespace ddos::store

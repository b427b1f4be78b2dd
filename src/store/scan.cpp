#include "store/scan.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <mutex>
#include <type_traits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "exec/parallel.h"
#include "store/checksum.h"
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

VarintSummary VarintSummary::then(const VarintSummary& next) const {
  VarintSummary joined;
  joined.bytes = bytes + next.bytes;
  joined.terminators = terminators + next.terminators;
  joined.lead = terminators != 0 ? lead : bytes + next.lead;
  joined.trail = next.terminators != 0 ? next.trail : trail + next.bytes;
  // A run across the seam: this side's trailing continuation bytes and
  // the next side's leading ones.
  joined.overlong = overlong || next.overlong || trail + next.lead >= 9;
  return joined;
}

VarintSummary varint_summary_scalar(std::string_view bytes) {
  // Bit 7 of every byte: set on a continuation byte, clear on the last
  // byte of a varint (a terminator).
  constexpr std::uint64_t kTopBits = 0x8080808080808080ull;
  const auto* p = reinterpret_cast<const std::uint8_t*>(bytes.data());
  const std::size_t n = bytes.size();
  VarintSummary s;
  s.bytes = n;
  std::uint64_t run = 0;  // continuation bytes since the last terminator
  bool seen = false;      // a terminator has been seen
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);  // little-endian load; x86/arm64 targets
    const std::uint64_t ends = ~word & kTopBits;
    // One bit per terminator, at bit 7 of its byte: a multiply sums the
    // eight lanes into the top byte (no popcnt in baseline x86-64).
    s.terminators += ((ends >> 7) * 0x0101010101010101ull) >> 56;
    // Runs between two terminators of one word are at most six bytes;
    // the run into the word's first terminator (or through a word with
    // none, first = 8) continues the one before it.
    const std::uint64_t first = std::countr_zero(ends) / 8;
    s.overlong |= run + first >= 9;
    if (!seen) s.lead = run + first;  // final once a terminator is seen
    seen |= ends != 0;
    run = ends != 0 ? std::countl_zero(ends) / 8 : run + 8;
  }
  for (; i < n; ++i) {
    if ((p[i] & 0x80u) != 0) {
      s.overlong |= ++run >= 9;
      continue;
    }
    ++s.terminators;
    if (!seen) s.lead = run;
    seen = true;
    run = 0;
  }
  if (!seen) s.lead = n;
  s.trail = run;
  return s;
}

#if defined(__SSE2__)
VarintSummary varint_summary(std::string_view bytes) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(bytes.data());
  const std::size_t whole = bytes.size() / 64 * 64;
  VarintSummary s;
  s.bytes = whole;
  std::uint64_t run = 0;  // continuation bytes since the last terminator
  bool seen = false;      // a terminator has been seen
  const __m128i zero = _mm_setzero_si128();
  const __m128i minus_one = _mm_set1_epi8(-1);
  __m128i counted = zero;  // terminators, two 64-bit lane sums
  for (std::size_t i = 0; i < whole; i += 64) {
    const auto* at = reinterpret_cast<const __m128i*>(p + i);
    const __m128i v0 = _mm_loadu_si128(at);
    const __m128i v1 = _mm_loadu_si128(at + 1);
    const __m128i v2 = _mm_loadu_si128(at + 2);
    const __m128i v3 = _mm_loadu_si128(at + 3);
    // Bit k set: byte i + k is a continuation byte.
    const std::uint64_t c =
        static_cast<std::uint64_t>(static_cast<std::uint16_t>(
            _mm_movemask_epi8(v0))) |
        static_cast<std::uint64_t>(static_cast<std::uint16_t>(
            _mm_movemask_epi8(v1)))
            << 16 |
        static_cast<std::uint64_t>(static_cast<std::uint16_t>(
            _mm_movemask_epi8(v2)))
            << 32 |
        static_cast<std::uint64_t>(static_cast<std::uint16_t>(
            _mm_movemask_epi8(v3)))
            << 48;
    // Terminators (signed byte > -1) count 1 per byte lane, at most 4 a
    // lane; SAD sums the lanes (no popcnt in baseline x86-64).
    __m128i t = _mm_sub_epi8(zero, _mm_cmpgt_epi8(v0, minus_one));
    t = _mm_sub_epi8(t, _mm_cmpgt_epi8(v1, minus_one));
    t = _mm_sub_epi8(t, _mm_cmpgt_epi8(v2, minus_one));
    t = _mm_sub_epi8(t, _mm_cmpgt_epi8(v3, minus_one));
    counted = _mm_add_epi64(counted, _mm_sad_epu8(t, zero));
    // Nine set bits in a row inside the word: halve the run each step.
    std::uint64_t r = c & c >> 1;  // runs of 2
    r &= r >> 2;                   // of 4
    r &= r >> 4;                   // of 8
    r &= c >> 8;                   // of 9
    // The run into the word's first terminator (or through a word with
    // none, first = 64) continues the one before it.
    const std::uint64_t ends = ~c;
    const std::uint64_t first = std::countr_zero(ends);
    s.overlong |= (r != 0) | (run + first >= 9);
    if (!seen) s.lead = run + first;  // final once a terminator is seen
    seen |= ends != 0;
    run = ends != 0 ? std::countl_zero(ends) : run + 64;
  }
  s.terminators = static_cast<std::uint64_t>(_mm_cvtsi128_si64(counted)) +
                  static_cast<std::uint64_t>(
                      _mm_cvtsi128_si64(_mm_unpackhi_epi64(counted, counted)));
  if (!seen) s.lead = whole;
  s.trail = run;
  // The last bytes (under 64) through the word loop.
  return s.then(varint_summary_scalar(bytes.substr(whole)));
}
#else
VarintSummary varint_summary(std::string_view bytes) {
  return varint_summary_scalar(bytes);
}
#endif

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
bool fixed_size_ok(std::uint64_t bytes, std::uint64_t rows,
                   std::uint64_t width) {
  return bytes / width == rows && bytes % width == 0;
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
      if (!fixed_size_ok(payload.size(), desc.rows, sizeof(V)))
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

namespace {

// Decode one block by its type, as every consumer would.
void scan_column(const Reader& reader, const ColumnDesc& desc,
                 ColumnArena& arena) {
  ColumnTypes::visit(desc.type, [&]<typename V>(std::type_identity<V>) {
    scan<V>(reader, desc, arena);
  });
}

// check_all's pool task: this many bytes of a fixed or varint block, or
// one whole string block. Big enough that a task's fixed cost vanishes,
// small enough that the largest feed block spreads over the pool and
// that a piece is still in cache for the structure pass after the CRC.
constexpr std::size_t kPieceBytes = std::size_t{1} << 20;

struct Piece {
  Piece(const ColumnDesc& block, std::size_t at, std::size_t bytes)
      : desc(&block), offset(at), size(bytes) {}

  const ColumnDesc* desc;
  std::size_t offset;  // into the block's payload
  std::size_t size;
  std::uint32_t crc = 0;
  VarintSummary shape;      // varint blocks
  bool strings_ok = false;  // string blocks: the offset walk accepts
};

std::vector<Piece> cut_pieces(const Reader& reader) {
  std::vector<Piece> pieces;
  for (const ColumnDesc& desc : reader.columns()) {
    if (desc.encoding == Encoding::StringBlock) {
      pieces.emplace_back(desc, 0, desc.size);
      continue;
    }
    std::size_t offset = 0;
    do {
      const std::size_t size = std::min<std::size_t>(kPieceBytes,
                                                     desc.size - offset);
      pieces.emplace_back(desc, offset, size);
      offset += size;
    } while (offset < desc.size);
  }
  return pieces;
}

// Hash one piece and check its structure while it is in cache. Reads the
// unverified payload: the CRC is judged at the fold.
void check_piece(const Reader& reader, Piece& piece) {
  const ColumnDesc& desc = *piece.desc;
  const std::string_view bytes =
      reader.payload(desc).substr(piece.offset, piece.size);
  piece.crc = crc32c(bytes);
  switch (desc.encoding) {
    case Encoding::Fixed: break;
    case Encoding::DeltaVarint:
    case Encoding::Varint: piece.shape = varint_summary(bytes); break;
    case Encoding::StringBlock:
      piece.strings_ok =
          walk_strings(bytes, desc.rows,
                       [](std::uint64_t, std::size_t, std::uint64_t) {}) ==
          nullptr;
      break;
  }
}

// True when scan accepts `desc`'s block, judged from the fold of its
// pieces. False is not a verdict: the scan decides.
bool accepted(const ColumnDesc& desc, const Piece& folded) {
  bool ok = false;
  switch (desc.encoding) {
    case Encoding::Fixed:
      ColumnTypes::visit(desc.type, [&]<typename V>(std::type_identity<V>) {
        ok = fixed_size_ok(desc.size, desc.rows, sizeof(V));
      });
      break;
    case Encoding::DeltaVarint:
    case Encoding::Varint: ok = folded.shape.well_formed(desc.rows); break;
    case Encoding::StringBlock: ok = folded.strings_ok; break;
  }
  return ok;
}

}  // namespace

std::uint64_t scan_all(const Reader& reader, ColumnArena& arena) {
  std::vector<std::function<void()>> jobs;
  std::uint64_t bytes = 0;
  for (const ColumnDesc& desc : reader.columns()) {
    bytes += desc.size;
    jobs.push_back([&reader, &desc, &arena] {
      scan_column(reader, desc, arena);
    });
  }
  Reader::parallel_decode(jobs);
  return bytes;
}

std::size_t check_all(const Reader& reader) {
  std::vector<Piece> pieces = cut_pieces(reader);
  exec::RegionOptions opts;
  opts.label = "store.read";
  opts.max_shards = pieces.size();  // one claimable task per piece
  exec::parallel_for(pieces.size(), opts, [&](const exec::ShardRange& range) {
    for (std::size_t i = range.begin; i < range.end; ++i) {
      check_piece(reader, pieces[i]);
    }
  });

  // Fold each block's pieces in order; a block the structure cannot
  // accept goes to the scan.
  std::vector<std::function<void()>> scans;
  for (std::size_t i = 0; i < pieces.size();) {
    const ColumnDesc& desc = *pieces[i].desc;
    Piece folded = pieces[i];
    for (++i; i < pieces.size() && pieces[i].desc == &desc; ++i) {
      folded.crc = crc32c_combine(folded.crc, pieces[i].crc, pieces[i].size);
      folded.shape = folded.shape.then(pieces[i].shape);
    }
    reader.record_crc(desc, folded.crc);
    if (accepted(desc, folded)) continue;
    // The structure check only ever accepts. The scan is the one
    // authority on a refusal and its message; a block it accepts (a
    // varint of nine continuation bytes) decodes here once, into a
    // buffer thrown away.
    scans.push_back([&reader, &desc] {
      ColumnArena scratch;
      scan_column(reader, desc, scratch);
    });
  }
  Reader::parallel_decode(scans);
  return scans.size();
}

}  // namespace ddos::store

// Columnar scan layer over a store::Reader — the store's one decoder.
// The analysis kernels (core/columnar.h), store/dataset.h's read_dataset
// (load_run and the serving load) and merge_stores all read column values
// through scan<V>, V a stored value type of store/epoch.h's ColumnTypes.
//
//   * Fixed-width columns (f64, u8, and Fixed-encoded u64) are returned
//     as spans directly over the reader's backing — in Mapped mode that
//     is the mmap itself, so no byte of the block is ever copied. Format
//     v3 pads every block to an 8-byte file offset and Reader refuses a
//     store whose blocks are not aligned at open, so every such span is
//     aligned.
//   * Varint and delta-varint columns decode into reusable ColumnArena
//     buffers with an unrolled LEB128 inner loop and a branch-light
//     delta prefix-sum — one resize per column, no per-row allocation.
//   * String columns decode to SoA offsets (starts/lens) into the block
//     payload; the bytes themselves stay in the mapping.
//
// Every scan CRC-checks its block via Reader::verified_payload, which
// verifies lazily and exactly once per block, and throws StoreError
// "<path>: column 'dataset.column': <defect>" on a malformed block. Spans
// borrow from the Reader and the arena: keep both alive while a frame is
// in use. check_all refuses the same blocks with the same errors but
// decodes none it can accept from structure alone, so a reader that
// decodes a few datasets still vets the whole file: the store readers
// run it in their one open (scenario::CheckedStore), merge_stores on
// every shard. It runs near memory speed: fixed and varint blocks are
// cut into 1 MiB pieces, one pool task each, that hash with the
// three-lane CRC32C (store/checksum.h) and summarize their varint
// structure with SSE2 while the piece is in cache; a block's CRC and
// verdict are the fold of its pieces.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/columnar.h"
#include "store/reader.h"

namespace ddos::store {

/// Named decode buffers keyed by dataset.column, reused across scans so a
/// re-analysis of the same store (threshold sweeps, rejoin checks) does
/// zero steady-state allocation. Buffers are heap-stable: growing the
/// arena never invalidates spans handed out earlier. Slot lookup is
/// locked, so scans of distinct columns may share an arena across
/// threads (scan_all, read_dataset).
class ColumnArena {
 public:
  /// Buffer for (dataset, column[, aux]); created on first use, reused
  /// (capacity kept) afterwards.
  std::vector<std::uint64_t>& u64_slot(std::string_view dataset,
                                       std::string_view column,
                                       std::string_view aux = {});

  /// Distinct buffers allocated so far (stable across repeat scans —
  /// the arena-reuse property tests pin).
  std::size_t slots() const { return u64_.size(); }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<std::vector<std::uint64_t>>>
      u64_;
};

// ---- fast block decoders (exposed for bench_micro_decode) ------------

/// `rows` LEB128 varints; unrolled hot loop, canonicality-checked like
/// format.h's get_varint. Throws StoreError on truncation/overflow or
/// trailing bytes.
void decode_varint_block(std::string_view payload, std::uint64_t rows,
                         std::vector<std::uint64_t>& out);
/// As above plus the zigzag delta prefix-sum (DeltaVarint encoding).
void decode_delta_varint_block(std::string_view payload, std::uint64_t rows,
                               std::vector<std::uint64_t>& out);
/// Structure of a run of bytes of a varint or delta-varint block, with
/// no value decoded. Summaries of adjacent pieces chain with `then`, so
/// a block checked in pieces gets the verdict of the whole.
struct VarintSummary {
  std::uint64_t bytes = 0;        // bytes summarized
  std::uint64_t terminators = 0;  // bytes with the top bit clear
  // Continuation bytes before the first and after the last terminator
  // (both `bytes` when there is none).
  std::uint64_t lead = 0;
  std::uint64_t trail = 0;
  // A run of nine or more continuation bytes lies inside these bytes.
  bool overlong = false;

  /// The summary of these bytes followed by `next`'s.
  VarintSummary then(const VarintSummary& next) const;
  /// The structure check of a block of `rows` rows whose whole payload
  /// this summarizes: `rows` terminator bytes, the last byte one of them,
  /// and no run of nine or more continuation bytes. True only for a block
  /// both decoders above accept; false is no verdict (a legal 10-byte
  /// varint is false too), so a caller that needs one runs the decoder.
  bool well_formed(std::uint64_t rows) const {
    return !overlong && trail == 0 && terminators == rows;
  }
  bool operator==(const VarintSummary&) const = default;
};

/// Summary of `bytes`: 64 bytes per step through four SSE2 movemasks on
/// x86-64 (baseline there), varint_summary_scalar elsewhere.
VarintSummary varint_summary(std::string_view bytes);
/// The same summary eight bytes at a time: the oracle of the SSE2 path
/// and the path on other ISAs.
VarintSummary varint_summary_scalar(std::string_view bytes);
/// String block to SoA offsets: starts[i]/lens[i] slice row i out of
/// `payload` itself — the string bytes are not copied.
void decode_string_offsets(std::string_view payload, std::uint64_t rows,
                           std::vector<std::uint64_t>& starts,
                           std::vector<std::uint64_t>& lens);

// ---- column scans ----------------------------------------------------

/// What scan<V> returns: the column's values, or for strings their
/// offsets into the block.
template <typename V>
using ColumnSpan = std::conditional_t<std::is_same_v<V, std::string_view>,
                                      core::StringColumnView,
                                      std::span<const V>>;

/// The values of `desc`'s block, which must store value type V (u64, f64,
/// u8 or std::string_view); spans borrow from `reader` and `arena`.
template <typename V>
ColumnSpan<V> scan(const Reader& reader, const ColumnDesc& desc,
                   ColumnArena& arena);

/// Columnar view of the joined "events" dataset, read through
/// store/dataset.h's decode_dataset<EventColumns> (store/dataset.cpp): the
/// columns decode on the exec pool and are fit-checked against their row
/// fields, so a value a field cannot hold throws StoreError naming
/// `events.column` and the row. Spans borrow from `reader` and `arena`.
core::EventFrame read_event_frame(const Reader& reader, ColumnArena& arena);

/// CRC-check every block and apply the rules its scan applies, without
/// storing a value: fixed blocks by size, varint blocks by their
/// VarintSummary, string blocks by their offset walk. Fixed and varint
/// blocks are checked in 1 MiB pieces across the exec pool (a string
/// block is one task: its walk is serial); each piece yields its CRC and
/// varint summary, and folding them in block order gives the whole
/// block's, whose CRC goes to Reader::record_crc. Refuses exactly the
/// stores scan_all refuses: a CRC mismatch throws record_crc's error
/// (the first mismatched block in footer order), and a block the check
/// cannot accept is scanned into a throwaway arena, so a malformed block
/// throws the scan's own StoreError (path and column). Returns how many
/// blocks went to that scan: 0 on a sound store written by this
/// library, whose varints are all under ten bytes.
std::size_t check_all(const Reader& reader);

/// Decode every column of every dataset once (one scan per block, fanned
/// out across the exec pool). Returns the payload bytes touched — the
/// numerator of a full-file scan-throughput measurement.
std::uint64_t scan_all(const Reader& reader, ColumnArena& arena);

}  // namespace ddos::store

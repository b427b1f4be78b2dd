// Columnar scan layer over a store::Reader — the store's one decoder.
// The analysis kernels (core/columnar.h), store/dataset.h's read_dataset
// (load_run and the serving load) and merge_stores all read column values
// through scan_u64/scan_f64/scan_u8/scan_strings.
//
//   * Fixed-width columns (f64, u8, and Fixed-encoded u64) are returned
//     as spans directly over the reader's backing — in Mapped mode that
//     is the mmap itself, so no byte of the block is ever copied. Format
//     v3 pads every block to an 8-byte file offset, so the alignment
//     check in scan_f64/scan_u64 succeeds on any v3 store; a misaligned
//     payload (never produced by our writer) falls back to an arena copy.
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
// every shard.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
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
  std::vector<double>& f64_slot(std::string_view dataset,
                                std::string_view column);

  /// Distinct buffers allocated so far (stable across repeat scans —
  /// the arena-reuse property tests pin).
  std::size_t slots() const { return u64_.size() + f64_.size(); }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<std::vector<std::uint64_t>>>
      u64_;
  std::unordered_map<std::string, std::unique_ptr<std::vector<double>>> f64_;
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
/// Structure-only check of a varint or delta-varint block, word at a
/// time, storing no value: `rows` terminator bytes (top bit clear), the
/// last byte one of them, and no run of nine or more continuation bytes.
/// True only for a block both decoders above accept; false is no verdict
/// (a legal 10-byte varint is false too), so a caller that needs one runs
/// the decoder.
bool varint_block_well_formed(std::string_view payload, std::uint64_t rows);
/// String block to SoA offsets: starts[i]/lens[i] slice row i out of
/// `payload` itself — the string bytes are not copied.
void decode_string_offsets(std::string_view payload, std::uint64_t rows,
                           std::vector<std::uint64_t>& starts,
                           std::vector<std::uint64_t>& lens);

// ---- column scans ----------------------------------------------------

std::span<const std::uint64_t> scan_u64(const Reader& reader,
                                        const ColumnDesc& desc,
                                        ColumnArena& arena);
std::span<const double> scan_f64(const Reader& reader, const ColumnDesc& desc,
                                 ColumnArena& arena);
std::span<const std::uint8_t> scan_u8(const Reader& reader,
                                      const ColumnDesc& desc);
core::StringColumnView scan_strings(const Reader& reader,
                                    const ColumnDesc& desc,
                                    ColumnArena& arena);

/// Columnar view of the joined "events" dataset, read column by column
/// per store/dataset.h's events schema; spans borrow from `reader` and
/// `arena`.
core::EventFrame read_event_frame(const Reader& reader, ColumnArena& arena);

/// CRC-check every block and apply the rules its scan applies, without
/// storing a value: fixed blocks by size, varint blocks by
/// varint_block_well_formed, string blocks by their offset walk. Fanned
/// out across the exec pool like scan_all, and refuses exactly the stores
/// scan_all refuses: a block the check cannot accept is scanned into a
/// throwaway arena, so a malformed block throws the scan's own StoreError
/// (path and column).
void check_all(const Reader& reader);

/// Decode every column of every dataset once (one scan per block, fanned
/// out across the exec pool). Returns the payload bytes touched — the
/// numerator of a full-file scan-throughput measurement.
std::uint64_t scan_all(const Reader& reader, ColumnArena& arena);

}  // namespace ddos::store

// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the per-block
// checksum of the DRS container. Three kernels compute the same bits:
//
//   Table      a portable slice-by-8 loop over eight compile-time
//              256-entry tables: the reference, and the only kernel on
//              CPUs without SSE4.2.
//   OneLane    the SSE4.2 crc32 instruction in one dependency chain,
//              bound by the instruction's 3-cycle latency.
//   ThreeLane  three crc32 chains over adjacent equal stripes, merged by
//              shifting each chain's state past the stripes after it
//              (a GF(2) multiply by x^(8n), from precomputed tables), so
//              the chains overlap in the pipeline. Inputs shorter than
//              three 256-byte stripes take the one-lane loop.
//
// crc32c() runs ThreeLane where the CPU has SSE4.2 (checked once at run
// time) and Table elsewhere. crc32c_combine merges the checksums of
// pieces hashed apart, which is how store::check_all hashes a big block
// across the exec pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ddos::store {

/// CRC32C of `n` bytes, continuing from `seed` (pass a previous return
/// value to checksum data in chunks). Seed 0 starts a fresh checksum.
std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed = 0);

inline std::uint32_t crc32c(std::string_view bytes, std::uint32_t seed = 0) {
  return crc32c(bytes.data(), bytes.size(), seed);
}

/// CRC32C of A followed by B, from crc_a = crc32c(A), crc_b = crc32c(B)
/// and B's length: equals crc32c(B, crc_a) without reading B again.
std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t len_b);

enum class Crc32cKernel : std::uint8_t { Table, OneLane, ThreeLane };

/// True when this CPU runs `kernel` (the two hardware kernels need
/// SSE4.2; Table runs everywhere).
bool crc32c_supported(Crc32cKernel kernel);

/// crc32c through one named kernel, for the oracle tests and
/// bench_micro_decode; a kernel this CPU does not run computes through
/// Table.
std::uint32_t crc32c_with(Crc32cKernel kernel, const void* data,
                          std::size_t n, std::uint32_t seed = 0);

}  // namespace ddos::store

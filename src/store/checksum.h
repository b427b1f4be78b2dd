// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the per-block
// checksum of the DRS container. On x86-64 CPUs with SSE4.2 it runs on the
// crc32 instruction, picked once at run time; elsewhere a portable
// slice-by-8 table loop (eight compile-time 256-entry tables) computes the
// same bits and stays the reference.
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

}  // namespace ddos::store

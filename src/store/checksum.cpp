#include "store/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define DDOS_CRC32C_HW 1
#endif

namespace ddos::store {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // CRC32C, reflected

// Slice-by-8: eight derived tables let the hot loop fold 8 input bytes
// per iteration with no loop-carried byte dependency chain. Table 0 is
// the classic byte-at-a-time table; table k maps "byte seen k positions
// earlier" contributions, so the tables compose to the same polynomial
// division as the scalar loop (outputs are bit-identical).
struct Tables {
  std::uint32_t t[8][256];
};

constexpr Tables build_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tables.t[0][i];
    for (int k = 1; k < 8; ++k) {
      crc = tables.t[0][crc & 0xFFu] ^ (crc >> 8);
      tables.t[k][i] = crc;
    }
  }
  return tables;
}

constexpr Tables kTables = build_tables();

std::uint32_t crc32c_table(const void* data, std::size_t n,
                           std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  // Align to 8 bytes so the wide loop can load aligned words.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = kTables.t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
    --n;
  }
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);  // little-endian load; x86/arm64 targets
    word ^= crc;
    crc = kTables.t[7][word & 0xFFu] ^ kTables.t[6][(word >> 8) & 0xFFu] ^
          kTables.t[5][(word >> 16) & 0xFFu] ^
          kTables.t[4][(word >> 24) & 0xFFu] ^
          kTables.t[3][(word >> 32) & 0xFFu] ^
          kTables.t[2][(word >> 40) & 0xFFu] ^
          kTables.t[1][(word >> 48) & 0xFFu] ^
          kTables.t[0][(word >> 56) & 0xFFu];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = kTables.t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
    --n;
  }
  return ~crc;
}

// ---- GF(2) shifts -----------------------------------------------------
//
// The CRC register is a polynomial over GF(2) modulo the CRC polynomial
// P, bit 31 holding x^0 (the reflected order). Feeding n zero bytes to a
// register in state s leaves s * x^(8n) mod P, and the register is
// linear in its start state, so crc(A ++ B) = crc(A) * x^(8|B|) mod P
// ^ crc(B): the merge of checksums hashed apart.

// a * b mod P.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// kX2n[k] = x^(2^k) mod P; x8nmodp reads k up to 3 + 63.
constexpr std::array<std::uint32_t, 67> build_x2n() {
  std::array<std::uint32_t, 67> table{};
  table[0] = 1u << 30;  // x^1
  for (std::size_t k = 1; k < table.size(); ++k) {
    table[k] = multmodp(table[k - 1], table[k - 1]);
  }
  return table;
}

constexpr std::array<std::uint32_t, 67> kX2n = build_x2n();

// x^(8n) mod P: the shift past n bytes.
constexpr std::uint32_t x8nmodp(std::uint64_t n) {
  std::uint32_t power = 1u << 31;  // x^0
  for (std::size_t k = 3; n != 0; n >>= 1, ++k) {
    if ((n & 1) != 0) power = multmodp(kX2n[k], power);
  }
  return power;
}

#ifdef DDOS_CRC32C_HW
// A multiply by the fixed x^(8 * Bytes) as four byte-indexed tables: the
// product is linear in the register, so it is the XOR of each byte's.
template <std::size_t Bytes>
struct ShiftTable {
  std::uint32_t t[4][256];
};

template <std::size_t Bytes>
constexpr ShiftTable<Bytes> build_shift() {
  ShiftTable<Bytes> table{};
  const std::uint32_t power = x8nmodp(Bytes);
  for (std::uint32_t k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      table.t[k][b] = multmodp(power, b << (8 * k));
    }
  }
  return table;
}

template <std::size_t Bytes>
inline std::uint32_t shift(const ShiftTable<Bytes>& table, std::uint32_t crc) {
  return table.t[0][crc & 0xFFu] ^ table.t[1][(crc >> 8) & 0xFFu] ^
         table.t[2][(crc >> 16) & 0xFFu] ^ table.t[3][crc >> 24];
}

// The three-lane stripes: long stripes while the input lasts, then short
// ones, then the one-lane loop for the rest (under three short stripes).
constexpr std::size_t kLongStripe = 8192;
constexpr std::size_t kShortStripe = 256;
constexpr ShiftTable<kLongStripe> kLongShift = build_shift<kLongStripe>();
constexpr ShiftTable<kShortStripe> kShortShift = build_shift<kShortStripe>();

// SSE4.2 kernels: the x86 crc32 instruction computes exactly CRC32C over
// the same reflected state the tables carry, so the kernels are
// bit-identical to crc32c_table — the reference, and the only kernel on
// other ISAs or pre-Nehalem parts.

// One crc32 chain over [p, p + n) from raw register state `crc`.
__attribute__((target("sse4.2"))) std::uint32_t one_lane(
    std::uint32_t crc, const unsigned char* p, std::size_t n) {
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  std::uint64_t crc64 = crc;
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc64 = _mm_crc32_u64(crc64, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(crc64);
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  return crc;
}

// Three chains over three adjacent `Stripe`-byte stripes at a time, while
// three stripes remain: lane 0 carries the running state, lanes 1 and 2
// start from zero, and the merge shifts each state past the stripe after
// it. Advances p and n past what it hashed.
template <std::size_t Stripe>
__attribute__((target("sse4.2"))) std::uint32_t three_lanes(
    std::uint32_t crc, const ShiftTable<Stripe>& stripe_shift,
    const unsigned char*& p, std::size_t& n) {
  while (n >= 3 * Stripe) {
    std::uint64_t crc0 = crc;
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < Stripe; i += 8) {
      std::uint64_t w0;
      std::uint64_t w1;
      std::uint64_t w2;
      std::memcpy(&w0, p + i, 8);
      std::memcpy(&w1, p + Stripe + i, 8);
      std::memcpy(&w2, p + 2 * Stripe + i, 8);
      crc0 = _mm_crc32_u64(crc0, w0);
      crc1 = _mm_crc32_u64(crc1, w1);
      crc2 = _mm_crc32_u64(crc2, w2);
    }
    crc = shift(stripe_shift, static_cast<std::uint32_t>(crc0)) ^
          static_cast<std::uint32_t>(crc1);
    crc = shift(stripe_shift, crc) ^ static_cast<std::uint32_t>(crc2);
    p += 3 * Stripe;
    n -= 3 * Stripe;
  }
  return crc;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_one_lane(
    const void* data, std::size_t n, std::uint32_t seed) {
  return ~one_lane(~seed, static_cast<const unsigned char*>(data), n);
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_three_lane(
    const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  if (n >= 3 * kShortStripe) {
    // Align so every lane loads aligned words (stripes are 8-multiples).
    while ((reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
      crc = _mm_crc32_u8(crc, *p++);
      --n;
    }
    crc = three_lanes(crc, kLongShift, p, n);
    crc = three_lanes(crc, kShortShift, p, n);
  }
  return ~one_lane(crc, p, n);
}

const bool kHaveHwCrc = __builtin_cpu_supports("sse4.2");
#else
constexpr bool kHaveHwCrc = false;
#endif

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed) {
#ifdef DDOS_CRC32C_HW
  if (kHaveHwCrc) return crc32c_three_lane(data, n, seed);
#endif
  return crc32c_table(data, n, seed);
}

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t len_b) {
  return multmodp(x8nmodp(len_b), crc_a) ^ crc_b;
}

bool crc32c_supported(Crc32cKernel kernel) {
  return kernel == Crc32cKernel::Table || kHaveHwCrc;
}

std::uint32_t crc32c_with(Crc32cKernel kernel, const void* data,
                          std::size_t n, std::uint32_t seed) {
#ifdef DDOS_CRC32C_HW
  if (kHaveHwCrc && kernel == Crc32cKernel::OneLane) {
    return crc32c_one_lane(data, n, seed);
  }
  if (kHaveHwCrc && kernel == Crc32cKernel::ThreeLane) {
    return crc32c_three_lane(data, n, seed);
  }
#endif
  (void)kernel;
  return crc32c_table(data, n, seed);
}

}  // namespace ddos::store

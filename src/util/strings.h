// Small string utilities shared by parsers, CSV I/O and report emitters.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ddos::util {

/// Split on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Case-insensitive ASCII equality.
bool iequals(std::string_view a, std::string_view b);

/// Lower-case ASCII copy.
std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// Parse an unsigned integer; returns false on any non-digit or overflow.
bool parse_u64(std::string_view s, std::uint64_t& out);

/// Parse a double via std::from_chars semantics; false on failure.
bool parse_double(std::string_view s, double& out);

/// "1234567" -> "1,234,567" (thousands separators for table output).
std::string with_commas(std::uint64_t v);

/// Fixed-precision double formatting, e.g. format_fixed(3.14159, 2) == "3.14".
std::string format_fixed(double v, int precision);

/// Human-readable rate: 1400000000 -> "1.4 Gbps" (powers of 1000).
std::string format_bps(double bits_per_second);

/// Human-readable count: 5790000 -> "5.79M".
std::string format_count(double v);

}  // namespace ddos::util

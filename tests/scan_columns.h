// Test helpers: one stored column copied out of its scan into a vector,
// so a test can compare whole columns with EXPECT_EQ. Each call scans
// through store/scan.h, the store's one decoder, into its own arena.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "store/reader.h"
#include "store/scan.h"

namespace ddos::store::testing_columns {

inline std::vector<std::uint64_t> u64s(const Reader& reader,
                                       std::string_view dataset,
                                       std::string_view column) {
  ColumnArena arena;
  const auto values = scan_u64(reader, reader.column(dataset, column), arena);
  return {values.begin(), values.end()};
}

inline std::vector<double> f64s(const Reader& reader, std::string_view dataset,
                                std::string_view column) {
  ColumnArena arena;
  const auto values = scan_f64(reader, reader.column(dataset, column), arena);
  return {values.begin(), values.end()};
}

inline std::vector<std::uint8_t> u8s(const Reader& reader,
                                     std::string_view dataset,
                                     std::string_view column) {
  const auto values = scan_u8(reader, reader.column(dataset, column));
  return {values.begin(), values.end()};
}

inline std::vector<std::string> strings(const Reader& reader,
                                        std::string_view dataset,
                                        std::string_view column) {
  ColumnArena arena;
  const core::StringColumnView values =
      scan_strings(reader, reader.column(dataset, column), arena);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < values.size(); ++i)
    out.emplace_back(values[i]);
  return out;
}

}  // namespace ddos::store::testing_columns

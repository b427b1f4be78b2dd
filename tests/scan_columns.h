// Test helpers: one stored column copied out of its scan into a vector,
// so a test can compare whole columns with EXPECT_EQ. Each call scans
// through store/scan.h's scan<V>, the store's one decoder, into its own
// arena.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "store/reader.h"
#include "store/scan.h"

namespace ddos::store::testing_columns {

template <typename V>
std::vector<V> column_values(const Reader& reader, std::string_view dataset,
                             std::string_view column) {
  ColumnArena arena;
  const auto values = scan<V>(reader, reader.column(dataset, column), arena);
  std::vector<V> out;
  for (std::size_t i = 0; i < values.size(); ++i) out.push_back(values[i]);
  return out;
}

inline std::vector<std::uint64_t> u64s(const Reader& reader,
                                       std::string_view dataset,
                                       std::string_view column) {
  return column_values<std::uint64_t>(reader, dataset, column);
}

inline std::vector<double> f64s(const Reader& reader, std::string_view dataset,
                                std::string_view column) {
  return column_values<double>(reader, dataset, column);
}

inline std::vector<std::uint8_t> u8s(const Reader& reader,
                                     std::string_view dataset,
                                     std::string_view column) {
  return column_values<std::uint8_t>(reader, dataset, column);
}

inline std::vector<std::string> strings(const Reader& reader,
                                        std::string_view dataset,
                                        std::string_view column) {
  const auto views = column_values<std::string_view>(reader, dataset, column);
  return {views.begin(), views.end()};
}

}  // namespace ddos::store::testing_columns

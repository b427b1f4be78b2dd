// Minimal RFC-4180-ish CSV writer and line parser for the events and feed
// CSV exports.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace ddos::util {

/// Streaming CSV writer. Quotes fields containing delimiter/quote/newline.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out, char delim = ',');

  /// Write one row; fields are escaped as needed.
  void write_row(const std::vector<std::string>& fields);

  /// Convenience variadic row from heterogeneous printable values.
  template <typename... Ts>
  void row(const Ts&... vals) {
    std::vector<std::string> fields;
    fields.reserve(sizeof...(vals));
    (fields.push_back(to_field(vals)), ...);
    write_row(fields);
  }

 private:
  static std::string to_field(const std::string& s) { return s; }
  static std::string to_field(const char* s) { return s; }
  static std::string to_field(std::string_view s) { return std::string(s); }
  template <typename T>
  static std::string to_field(const T& v) {
    return std::to_string(v);
  }

  std::string escape(const std::string& field) const;

  std::ostream& out_;
  char delim_;
};

/// Parse one CSV line honouring quotes and doubled-quote escapes.
std::vector<std::string> parse_csv_line(std::string_view line, char delim = ',');

}  // namespace ddos::util

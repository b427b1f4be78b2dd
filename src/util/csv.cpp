#include "util/csv.h"

#include "util/strings.h"

namespace ddos::util {

CsvWriter::CsvWriter(std::ostream& out, char delim)
    : out_(out), delim_(delim) {}

std::string CsvWriter::escape(const std::string& field) const {
  const bool needs_quote =
      field.find(delim_) != std::string::npos ||
      field.find('"') != std::string::npos ||
      field.find('\n') != std::string::npos ||
      field.find('\r') != std::string::npos;
  if (!needs_quote) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_.put(delim_);
    out_ << escape(fields[i]);
  }
  out_.put('\n');
}

std::vector<std::string> parse_csv_line(std::string_view line, char delim) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delim) {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

}  // namespace ddos::util

#include "util/strings.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace ddos::util {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
           c == '\v';
  };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

namespace {
char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}
}  // namespace

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = ascii_lower(c);
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  s = trim(s);
  if (s.empty()) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool parse_double(std::string_view s, double& out) {
  s = trim(s);
  if (s.empty()) return false;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

std::string with_commas(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t first = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - first) % 3 == 0 && i >= first) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string format_fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string format_bps(double bps) {
  static constexpr const char* kUnits[] = {"bps", "Kbps", "Mbps", "Gbps",
                                           "Tbps"};
  int unit = 0;
  while (bps >= 1000.0 && unit < 4) {
    bps /= 1000.0;
    ++unit;
  }
  const int prec = bps >= 100.0 ? 0 : (bps >= 10.0 ? 1 : 2);
  return format_fixed(bps, prec) + " " + kUnits[unit];
}

std::string format_count(double v) {
  static constexpr const char* kUnits[] = {"", "K", "M", "B"};
  int unit = 0;
  while (std::abs(v) >= 1000.0 && unit < 3) {
    v /= 1000.0;
    ++unit;
  }
  const int prec = std::abs(v) >= 100.0 ? 0 : (std::abs(v) >= 10.0 ? 1 : 2);
  std::string s = format_fixed(v, prec);
  // Trim trailing zeros after the decimal point ("5.790" -> "5.79").
  if (s.find('.') != std::string::npos) {
    while (s.back() == '0') s.pop_back();
    if (s.back() == '.') s.pop_back();
  }
  return s + kUnits[unit];
}

}  // namespace ddos::util

#include "dns/name.h"

#include <stdexcept>

#include "util/strings.h"

namespace ddos::dns {

std::optional<DomainName> DomainName::parse(std::string_view name) {
  if (!name.empty() && name.back() == '.') name.remove_suffix(1);
  if (name.empty() || name.size() > 253) return std::nullopt;
  std::string norm = util::to_lower(name);
  std::size_t label_start = 0;
  for (std::size_t i = 0; i <= norm.size(); ++i) {
    if (i == norm.size() || norm[i] == '.') {
      const std::size_t len = i - label_start;
      if (len == 0 || len > 63) return std::nullopt;
      label_start = i + 1;
    } else {
      const char c = norm[i];
      const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '-' || c == '_';
      if (!ok) return std::nullopt;
    }
  }
  return DomainName(std::move(norm));
}

DomainName DomainName::must(std::string_view name) {
  auto parsed = parse(name);
  if (!parsed)
    throw std::invalid_argument("invalid domain name: " + std::string(name));
  return *parsed;
}

std::vector<std::string_view> DomainName::labels() const {
  std::vector<std::string_view> out;
  std::string_view s = name_;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t pos = s.find('.', start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view DomainName::tld() const {
  const auto pos = name_.rfind('.');
  if (pos == std::string::npos) return name_;
  return std::string_view(name_).substr(pos + 1);
}

}  // namespace ddos::dns

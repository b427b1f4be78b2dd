// Domain names. Stored lower-case without the trailing root dot; label
// structure is validated on construction. Supports the operations the
// pipeline needs: labels (the wire-format name codec) and TLD extraction
// (zone-file export per TLD).
#pragma once

#include <compare>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ddos::dns {

class DomainName {
 public:
  DomainName() = default;

  /// Validates and normalises (lower-case, strips one trailing dot).
  /// Returns nullopt for empty names, empty labels, labels > 63 octets,
  /// or total length > 253 octets.
  static std::optional<DomainName> parse(std::string_view name);

  /// Convenience for trusted literals; throws std::invalid_argument.
  static DomainName must(std::string_view name);

  const std::string& str() const { return name_; }
  bool empty() const { return name_.empty(); }
  auto operator<=>(const DomainName&) const = default;

  /// Labels right-to-left would be DNS order; we return left-to-right,
  /// e.g. "www.mil.ru" -> {"www", "mil", "ru"}.
  std::vector<std::string_view> labels() const;

  /// Rightmost label: "ru" for "www.mil.ru".
  std::string_view tld() const;

 private:
  explicit DomainName(std::string normalised) : name_(std::move(normalised)) {}
  std::string name_;
};

}  // namespace ddos::dns

template <>
struct std::hash<ddos::dns::DomainName> {
  std::size_t operator()(const ddos::dns::DomainName& d) const noexcept {
    return std::hash<std::string>{}(d.str());
  }
};

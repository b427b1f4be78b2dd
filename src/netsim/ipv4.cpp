#include "netsim/ipv4.h"

#include <charconv>
#include <limits>

#include "util/strings.h"

namespace ddos::netsim {

std::string IPv4Addr::to_string() const {
  return std::to_string((v_ >> 24) & 0xFF) + "." +
         std::to_string((v_ >> 16) & 0xFF) + "." +
         std::to_string((v_ >> 8) & 0xFF) + "." + std::to_string(v_ & 0xFF);
}

std::optional<IPv4Addr> IPv4Addr::parse(std::string_view s) {
  const auto parts = util::split(s, '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t v = 0;
  for (const auto& part : parts) {
    std::uint64_t octet = 0;
    if (!util::parse_u64(part, octet) || octet > 255) return std::nullopt;
    v = (v << 8) | static_cast<std::uint32_t>(octet);
  }
  return IPv4Addr(v);
}

Prefix::Prefix(IPv4Addr addr, int length) : len_(length) {
  if (length < 0) len_ = 0;
  if (length > 32) len_ = 32;
  net_ = IPv4Addr(addr.value() & prefix_mask(len_));
}

bool Prefix::contains(IPv4Addr a) const {
  return (a.value() & prefix_mask(len_)) == net_.value();
}

bool Prefix::contains(const Prefix& other) const {
  return other.len_ >= len_ && contains(other.net_);
}

std::uint64_t Prefix::size() const {
  return std::uint64_t{1} << (32 - len_);
}

}  // namespace ddos::netsim

// IPv4 addresses and CIDR prefixes — the common currency between the
// telescope (victim IPs, /16 landing subnets), the DNS registry (NS IPs),
// the topology (prefix2as) and the anycast census (/24 matching).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace ddos::netsim {

/// An IPv4 address stored host-order. Value type, totally ordered.
class IPv4Addr {
 public:
  constexpr IPv4Addr() = default;
  constexpr explicit IPv4Addr(std::uint32_t host_order) : v_(host_order) {}
  constexpr IPv4Addr(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                     std::uint8_t d)
      : v_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
           (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  constexpr std::uint32_t value() const { return v_; }
  constexpr auto operator<=>(const IPv4Addr&) const = default;

  /// Dotted-quad representation, e.g. "8.8.8.8".
  std::string to_string() const;

  /// Parse dotted-quad; nullopt on malformed input.
  static std::optional<IPv4Addr> parse(std::string_view s);

  /// Enclosing /24 network address (x.y.z.0).
  constexpr IPv4Addr slash24() const { return IPv4Addr(v_ & 0xFFFFFF00u); }
  /// Enclosing /16 network address (x.y.0.0).
  constexpr IPv4Addr slash16() const { return IPv4Addr(v_ & 0xFFFF0000u); }

 private:
  std::uint32_t v_ = 0;
};

/// A CIDR prefix. Network bits below the mask are zeroed on construction,
/// so Prefix(1.2.3.4, 24) == Prefix(1.2.3.0, 24).
class Prefix {
 public:
  constexpr Prefix() = default;
  Prefix(IPv4Addr addr, int length);

  IPv4Addr network() const { return net_; }
  int length() const { return len_; }
  auto operator<=>(const Prefix&) const = default;

  bool contains(IPv4Addr a) const;
  bool contains(const Prefix& other) const;

  /// Number of addresses covered (2^(32-len)); 2^32 saturates to max u64.
  std::uint64_t size() const;

  /// First address covered.
  IPv4Addr first() const { return net_; }

 private:
  IPv4Addr net_{};
  int len_ = 0;
};

/// Mask with `len` leading one bits (host order). len in [0, 32].
constexpr std::uint32_t prefix_mask(int len) {
  return len <= 0 ? 0u : (len >= 32 ? 0xFFFFFFFFu : ~(0xFFFFFFFFu >> len));
}

}  // namespace ddos::netsim

template <>
struct std::hash<ddos::netsim::IPv4Addr> {
  std::size_t operator()(const ddos::netsim::IPv4Addr& a) const noexcept {
    // Fibonacci hashing spreads sequential addresses across buckets.
    return static_cast<std::size_t>(a.value()) * 0x9E3779B97F4A7C15ull >> 16;
  }
};

template <>
struct std::hash<ddos::netsim::Prefix> {
  std::size_t operator()(const ddos::netsim::Prefix& p) const noexcept {
    const auto h = std::hash<ddos::netsim::IPv4Addr>{}(p.network());
    return h ^ (static_cast<std::size_t>(p.length()) << 1);
  }
};

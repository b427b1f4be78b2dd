// Response statuses, delegations and NSSets. The paper's unit of analysis is
// the delegation: a registered domain and the set of authoritative NS
// hostnames/IPs serving it. The *NSSet* (§4.1) is the deduplicated set of
// NS IPv4 addresses shared by one or more domains.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/name.h"
#include "netsim/ipv4.h"

namespace ddos::dns {

/// Response codes as recorded by the OpenINTEL-style sweeper. TIMEOUT is
/// not a wire rcode but a measurement outcome; the paper treats it as a
/// first-class status (§3.2).
enum class ResponseStatus : std::uint8_t {
  Ok = 0,
  ServFail = 1,
  NxDomain = 2,
  Timeout = 3,
};

/// A registered domain's delegation: NS hostnames and their resolved
/// IPv4 addresses (glue or out-of-bailiwick resolution collapsed —
/// OpenINTEL stores resolved NS addresses the same way).
struct Delegation {
  DomainName domain;
  std::vector<std::string> ns_names;
  std::vector<netsim::IPv4Addr> ns_ips;  // deduplicated, sorted
};

/// Identifier of an NSSet: canonical sorted list of NS IPv4 addresses.
/// Two domains with the same set of NS IPs share an NSSetKey.
struct NSSetKey {
  std::vector<netsim::IPv4Addr> ips;  // sorted, unique

  bool operator==(const NSSetKey&) const = default;

  static NSSetKey from_ips(std::vector<netsim::IPv4Addr> ips);
};

}  // namespace ddos::dns

template <>
struct std::hash<ddos::dns::NSSetKey> {
  std::size_t operator()(const ddos::dns::NSSetKey& k) const noexcept {
    std::size_t h = 0xcbf29ce484222325ull;
    for (const auto& ip : k.ips) {
      h ^= std::hash<ddos::netsim::IPv4Addr>{}(ip);
      h *= 0x100000001b3ull;
    }
    return h;
  }
};

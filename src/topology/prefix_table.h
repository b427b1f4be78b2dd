// Longest-prefix-match table mapping IPv4 prefixes to origin ASNs — the
// simulated counterpart of CAIDA's Routeviews prefix2as dataset (§3.3).
//
// Implemented as a binary trie over address bits. Announcements may overlap;
// lookup returns the most specific covering prefix, as BGP-derived datasets
// do.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "netsim/ipv4.h"
#include "topology/as_registry.h"

namespace ddos::topology {

struct RouteEntry {
  netsim::Prefix prefix;
  Asn origin = 0;
};

class PrefixTable {
 public:
  PrefixTable();
  ~PrefixTable();
  PrefixTable(PrefixTable&&) noexcept;
  PrefixTable& operator=(PrefixTable&&) noexcept;
  PrefixTable(const PrefixTable&) = delete;
  PrefixTable& operator=(const PrefixTable&) = delete;

  /// Announce a prefix with its origin AS. Re-announcing replaces the origin.
  void announce(const netsim::Prefix& prefix, Asn origin);

  /// Longest-prefix match; nullopt for unrouted space.
  std::optional<RouteEntry> lookup(netsim::IPv4Addr addr) const;

  /// Origin AS of the longest match, or 0 when unrouted.
  Asn origin_of(netsim::IPv4Addr addr) const;

  std::size_t size() const { return size_; }

 private:
  struct Node;
  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

}  // namespace ddos::topology

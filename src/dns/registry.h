// DnsRegistry — the measured DNS universe: registered domains, their
// delegations, the deduplicated NSSets (§4.1), and the nameserver objects
// behind each NS IPv4 address. This is the stand-in for the namespace
// OpenINTEL sweeps daily; the join pipeline (core) and the sweeper
// (openintel) both operate against it.
//
// Compact integer ids (DomainId, NssetId) keep the longitudinal run —
// hundreds of thousands of domains over seventeen months — cache-friendly.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/name.h"
#include "dns/records.h"
#include "dns/server.h"
#include "netsim/ipv4.h"
#include "util/flat_map.h"

namespace ddos::dns {

using DomainId = std::uint32_t;
using NssetId = std::uint32_t;

inline constexpr NssetId kInvalidNsset = 0xFFFFFFFFu;

class DnsRegistry {
 public:
  /// Register a nameserver deployment. A nameserver must be registered for
  /// every NS IP referenced by a delegation before sweeping; duplicate ips
  /// replace the earlier registration.
  void add_nameserver(Nameserver ns);
  bool has_nameserver(netsim::IPv4Addr ip) const;
  const Nameserver& nameserver(netsim::IPv4Addr ip) const;
  Nameserver& mutable_nameserver(netsim::IPv4Addr ip);
  std::size_t nameserver_count() const { return nameserver_index_.size(); }

  /// Register a domain with its NS IPs; the NSSet is deduplicated and
  /// interned. Returns the new domain's id.
  DomainId add_domain(DomainName name, std::vector<netsim::IPv4Addr> ns_ips);

  std::size_t domain_count() const { return domains_.size(); }
  std::size_t nsset_count() const { return nssets_.size(); }

  const DomainName& domain_name(DomainId id) const;
  NssetId nsset_of_domain(DomainId id) const;
  const NSSetKey& nsset_key(NssetId id) const;
  std::span<const DomainId> domains_of_nsset(NssetId id) const;

  /// NSSets whose key contains `ip` — the "nameservers under attack ->
  /// NSSets under attack" hop of the join.
  std::span<const NssetId> nssets_containing(netsim::IPv4Addr ip) const;

  /// Union of domains across all NSSets containing `ip` (deduplicated by
  /// construction: a domain belongs to exactly one NSSet).
  std::vector<DomainId> domains_of_ns_ip(netsim::IPv4Addr ip) const;

  /// All distinct NS IPv4 addresses referenced by any delegation,
  /// ascending (the flat index has no stable iteration order, so the
  /// snapshot is sorted to stay deterministic).
  std::vector<netsim::IPv4Addr> all_ns_ips() const;
  bool is_ns_ip(netsim::IPv4Addr ip) const;

  /// Open-resolver registry (§3.3, Yazdani et al. scans): incidental open
  /// resolvers appearing as NS targets are flagged so the longitudinal
  /// analysis can filter them (Table 5 discussion).
  void mark_open_resolver(netsim::IPv4Addr ip);
  bool is_open_resolver(netsim::IPv4Addr ip) const;
  std::size_t open_resolver_count() const { return open_resolvers_.size(); }

  /// Iteration support for the sweeper.
  DomainId first_domain() const { return 0; }
  DomainId end_domain() const { return static_cast<DomainId>(domains_.size()); }

 private:
  struct DomainEntry {
    DomainName name;
    NssetId nsset = kInvalidNsset;
  };
  struct NssetEntry {
    NSSetKey key;
    std::vector<DomainId> domains;
  };

  // The per-IP lookups (is_ns_ip, nssets_containing, nameserver) run once
  // per simulated query/join probe, so they sit on flat open-addressing
  // indexes; nameserver objects live in a dense pool because they are not
  // default-constructible (FlatMap slots must be). The NSSet interning
  // index keys on a composite vector key and only runs at registration
  // time, so it stays node-based.
  std::vector<DomainEntry> domains_;
  std::vector<NssetEntry> nssets_;
  std::unordered_map<NSSetKey, NssetId> nsset_index_;
  std::vector<Nameserver> nameserver_pool_;
  util::FlatMap<netsim::IPv4Addr, std::uint32_t> nameserver_index_;
  util::FlatMap<netsim::IPv4Addr, std::vector<NssetId>> ip_to_nssets_;
  util::FlatSet<netsim::IPv4Addr> open_resolvers_;
};

}  // namespace ddos::dns

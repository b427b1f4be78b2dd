#include "dns/registry.h"

#include <algorithm>
#include <stdexcept>

namespace ddos::dns {

void DnsRegistry::add_nameserver(Nameserver ns) {
  const netsim::IPv4Addr ip = ns.ip();
  const auto [slot, inserted] = nameserver_index_.try_emplace(
      ip, static_cast<std::uint32_t>(nameserver_pool_.size()));
  if (inserted) {
    nameserver_pool_.push_back(std::move(ns));
  } else {
    nameserver_pool_[*slot] = std::move(ns);
  }
}

bool DnsRegistry::has_nameserver(netsim::IPv4Addr ip) const {
  return nameserver_index_.contains(ip);
}

const Nameserver& DnsRegistry::nameserver(netsim::IPv4Addr ip) const {
  const std::uint32_t* idx = nameserver_index_.find(ip);
  if (!idx)
    throw std::out_of_range("DnsRegistry: unknown nameserver " +
                            ip.to_string());
  return nameserver_pool_[*idx];
}

Nameserver& DnsRegistry::mutable_nameserver(netsim::IPv4Addr ip) {
  const std::uint32_t* idx = nameserver_index_.find(ip);
  if (!idx)
    throw std::out_of_range("DnsRegistry: unknown nameserver " +
                            ip.to_string());
  return nameserver_pool_[*idx];
}

DomainId DnsRegistry::add_domain(DomainName name,
                                 std::vector<netsim::IPv4Addr> ns_ips) {
  if (ns_ips.empty())
    throw std::invalid_argument("add_domain: empty nameserver set");
  NSSetKey key = NSSetKey::from_ips(std::move(ns_ips));

  NssetId nsset_id;
  const auto it = nsset_index_.find(key);
  if (it != nsset_index_.end()) {
    nsset_id = it->second;
  } else {
    nsset_id = static_cast<NssetId>(nssets_.size());
    for (const auto& ip : key.ips) ip_to_nssets_[ip].push_back(nsset_id);
    nsset_index_.emplace(key, nsset_id);
    nssets_.push_back(NssetEntry{std::move(key), {}});
  }

  const auto domain_id = static_cast<DomainId>(domains_.size());
  domains_.push_back(DomainEntry{std::move(name), nsset_id});
  nssets_[nsset_id].domains.push_back(domain_id);
  return domain_id;
}

const DomainName& DnsRegistry::domain_name(DomainId id) const {
  return domains_.at(id).name;
}

NssetId DnsRegistry::nsset_of_domain(DomainId id) const {
  return domains_.at(id).nsset;
}

const NSSetKey& DnsRegistry::nsset_key(NssetId id) const {
  return nssets_.at(id).key;
}

std::span<const DomainId> DnsRegistry::domains_of_nsset(NssetId id) const {
  return nssets_.at(id).domains;
}

std::span<const NssetId> DnsRegistry::nssets_containing(
    netsim::IPv4Addr ip) const {
  const std::vector<NssetId>* nssets = ip_to_nssets_.find(ip);
  return nssets ? std::span<const NssetId>(*nssets)
                : std::span<const NssetId>();
}

std::vector<DomainId> DnsRegistry::domains_of_ns_ip(
    netsim::IPv4Addr ip) const {
  std::vector<DomainId> out;
  for (const NssetId ns : nssets_containing(ip)) {
    const auto& doms = nssets_[ns].domains;
    out.insert(out.end(), doms.begin(), doms.end());
  }
  return out;
}

std::vector<netsim::IPv4Addr> DnsRegistry::all_ns_ips() const {
  std::vector<netsim::IPv4Addr> out;
  out.reserve(ip_to_nssets_.size());
  ip_to_nssets_.for_each(
      [&out](netsim::IPv4Addr ip, const std::vector<NssetId>&) {
        out.push_back(ip);
      });
  std::sort(out.begin(), out.end());
  return out;
}

bool DnsRegistry::is_ns_ip(netsim::IPv4Addr ip) const {
  return ip_to_nssets_.contains(ip);
}

void DnsRegistry::mark_open_resolver(netsim::IPv4Addr ip) {
  open_resolvers_.insert(ip);
}

bool DnsRegistry::is_open_resolver(netsim::IPv4Addr ip) const {
  return open_resolvers_.contains(ip);
}

}  // namespace ddos::dns

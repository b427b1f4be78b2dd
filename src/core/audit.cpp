#include "core/audit.h"

#include <unordered_set>

namespace ddos::core {

DelegationAuditor::DelegationAuditor(const dns::DnsRegistry& registry,
                                     const anycast::AnycastCensus& census,
                                     const topology::PrefixTable& routes)
    : registry_(registry), census_(census), routes_(routes) {}

std::vector<DelegationIssue> DelegationAuditor::audit_domain(
    dns::DomainId domain, netsim::DayIndex /*day*/) const {
  std::vector<DelegationIssue> issues;
  const auto& key = registry_.nsset_key(registry_.nsset_of_domain(domain));

  if (key.ips.size() < 2) issues.push_back(DelegationIssue::SingleNameserver);

  std::unordered_set<netsim::IPv4Addr> nets;
  std::unordered_set<topology::Asn> asns;
  bool lame = false, resolver_ns = false;
  for (const auto& ip : key.ips) {
    nets.insert(ip.slash24());
    const topology::Asn asn = routes_.origin_of(ip);
    if (asn != 0) asns.insert(asn);
    if (!registry_.has_nameserver(ip)) lame = true;
    if (registry_.is_open_resolver(ip)) resolver_ns = true;
  }
  if (key.ips.size() >= 2 && nets.size() == 1)
    issues.push_back(DelegationIssue::SingleSlash24);
  if (key.ips.size() >= 2 && asns.size() <= 1)
    issues.push_back(DelegationIssue::SingleAsn);
  if (lame) issues.push_back(DelegationIssue::LameNameserver);
  if (resolver_ns) issues.push_back(DelegationIssue::OpenResolverAsNs);
  return issues;
}

AuditSummary DelegationAuditor::audit_all(
    netsim::DayIndex day, std::vector<DelegationFinding>* findings) const {
  AuditSummary summary;
  for (dns::DomainId d = registry_.first_domain(); d < registry_.end_domain();
       ++d) {
    ++summary.domains;
    for (const DelegationIssue issue : audit_domain(d, day)) {
      switch (issue) {
        case DelegationIssue::SingleNameserver: ++summary.single_ns; break;
        case DelegationIssue::SingleSlash24: ++summary.single_slash24; break;
        case DelegationIssue::SingleAsn: ++summary.single_asn; break;
        case DelegationIssue::LameNameserver: ++summary.with_lame_ns; break;
        case DelegationIssue::OpenResolverAsNs:
          ++summary.with_open_resolver_ns;
          break;
      }
      if (findings) findings->push_back(DelegationFinding{d, issue});
    }

    // Adoption view (no issue, just classification).
    const auto& key = registry_.nsset_key(registry_.nsset_of_domain(d));
    switch (census_.classify(key.ips, day)) {
      case anycast::AnycastClass::Full: ++summary.full_anycast; break;
      case anycast::AnycastClass::Partial: ++summary.partial_anycast; break;
      case anycast::AnycastClass::None: break;
    }
    std::unordered_set<topology::Asn> asns;
    std::unordered_set<netsim::IPv4Addr> nets;
    for (const auto& ip : key.ips) {
      const topology::Asn asn = routes_.origin_of(ip);
      if (asn != 0) asns.insert(asn);
      nets.insert(ip.slash24());
    }
    if (asns.size() > 1) ++summary.multi_asn;
    if (nets.size() > 1) ++summary.multi_prefix;
  }
  return summary;
}

}  // namespace ddos::core

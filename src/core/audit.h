// Structural DNS robustness audit — the ecosystem-health view behind the
// paper's resilience recommendations (§9) and its related work: Allman's
// "Comments on DNS Robustness" (IMC 2018), RFC 1034's two-nameserver
// minimum, RFC 2182's topological-diversity guidance, the anycast-adoption
// characterisation of Sommese et al. (TMA 2021), and the lame-delegation
// study of Akiwate et al. (IMC 2020).
//
// The auditor walks the registry and classifies every delegation before
// any attack happens: the paper's central finding is precisely that these
// static properties predict who survives (§6.6).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "anycast/census.h"
#include "dns/registry.h"
#include "topology/prefix_table.h"

namespace ddos::core {

enum class DelegationIssue : std::uint8_t {
  SingleNameserver,    // violates RFC 1034's >=2 requirement
  SingleSlash24,       // all NS in one /24 (the mil.ru anti-pattern)
  SingleAsn,           // one organisation's infrastructure end to end
  LameNameserver,      // NS address with no server behind it
  OpenResolverAsNs,    // NS record pointing at a public resolver
};

struct DelegationFinding {
  dns::DomainId domain = 0;
  DelegationIssue issue = DelegationIssue::SingleNameserver;
};

/// Ecosystem-level audit aggregates (per-domain counts).
struct AuditSummary {
  std::uint64_t domains = 0;

  std::uint64_t single_ns = 0;
  std::uint64_t single_slash24 = 0;
  std::uint64_t single_asn = 0;
  std::uint64_t with_lame_ns = 0;
  std::uint64_t with_open_resolver_ns = 0;

  // Adoption view (Sommese et al. 2021 / Fig. 11 priors).
  std::uint64_t full_anycast = 0;
  std::uint64_t partial_anycast = 0;
  std::uint64_t multi_asn = 0;
  std::uint64_t multi_prefix = 0;

  double share(std::uint64_t count) const {
    return domains ? static_cast<double>(count) / domains : 0.0;
  }
};

class DelegationAuditor {
 public:
  DelegationAuditor(const dns::DnsRegistry& registry,
                    const anycast::AnycastCensus& census,
                    const topology::PrefixTable& routes);

  /// Classify one domain's delegation (census snapshot as of `day`).
  std::vector<DelegationIssue> audit_domain(dns::DomainId domain,
                                            netsim::DayIndex day) const;

  /// Audit the whole registry; `findings` (optional) receives per-domain
  /// issue rows for reporting.
  AuditSummary audit_all(netsim::DayIndex day,
                         std::vector<DelegationFinding>* findings =
                             nullptr) const;

 private:
  const dns::DnsRegistry& registry_;
  const anycast::AnycastCensus& census_;
  const topology::PrefixTable& routes_;
};

}  // namespace ddos::core

// Telescope-event analyses (§6.1–6.2) — pure functions over the RSDoS
// events behind Table 3/4/5 and Figs. 5/6. The joined NSSet-attack
// statistics (Figs. 7–13, Table 6) are frame kernels in core/columnar.h.
// Benches and examples format these; the logic lives here so tests can
// pin it down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dns/registry.h"
#include "telescope/rsdos.h"
#include "topology/as_registry.h"
#include "topology/prefix_table.h"
#include "util/histogram.h"

namespace ddos::core {

// ---------------------------------------------------------------- Table 3

struct MonthlyRow {
  int year = 0;
  int month = 0;
  std::uint64_t dns_attacks = 0;
  std::uint64_t other_attacks = 0;
  std::uint64_t dns_ips = 0;    // unique victim IPs that are nameservers
  std::uint64_t other_ips = 0;  // unique victim IPs that are not
  std::uint64_t total_attacks() const { return dns_attacks + other_attacks; }
  std::uint64_t total_ips() const { return dns_ips + other_ips; }
  double dns_attack_share() const {
    return total_attacks()
               ? static_cast<double>(dns_attacks) / total_attacks()
               : 0.0;
  }
};

/// Per-month split of telescope events into DNS-infrastructure attacks
/// (victim is a nameserver IP; open resolvers filtered) and the rest.
std::vector<MonthlyRow> monthly_summary(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry);

/// Column totals of Table 3.
MonthlyRow summary_totals(const std::vector<MonthlyRow>& rows);

// ----------------------------------------------------------------- Fig 5

struct MonthlyAffectedDomains {
  int year = 0;
  int month = 0;
  std::uint64_t affected_domains = 0;   // distinct domains, union over month
  std::uint64_t largest_single_event = 0;  // biggest same-day blast radius
  std::uint64_t attacked_ns_ips = 0;
};

std::vector<MonthlyAffectedDomains> monthly_affected_domains(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry);

// ------------------------------------------------------------ Tables 4/5

struct TargetCount {
  std::string label;  // organisation (Table 4) or ip + type (Table 5)
  std::uint64_t attacks = 0;
};

/// Top-k organisations by attack-event count over DNS-related victims
/// (nameserver IPs and open resolvers appearing as NS targets, as in the
/// paper's Table 4 which includes Google/Cloudflare resolver IPs).
std::vector<TargetCount> top_attacked_orgs(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry, const topology::PrefixTable& routes,
    const topology::AsRegistry& orgs, std::size_t k);

struct IpTargetCount {
  netsim::IPv4Addr ip;
  std::uint64_t attacks = 0;
  std::string type;  // "open-resolver", "authoritative-ns"
};

std::vector<IpTargetCount> top_attacked_ips(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry, std::size_t k);

// ----------------------------------------------------------------- Fig 6

struct PortDistribution {
  std::uint64_t total = 0;
  std::uint64_t single_port = 0;      // 80.7% in the paper
  util::CategoryCounter by_protocol;  // among single-port attacks
  util::CategoryCounter tcp_ports;    // "80", "53", "443", "other"
  util::CategoryCounter udp_ports;
  double single_port_share() const {
    return total ? static_cast<double>(single_port) / total : 0.0;
  }
};

/// Protocol/port mix over DNS-infrastructure attack events (§6.2).
PortDistribution port_distribution(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry);

/// Collapse a port number to the paper's buckets: "80", "53", "443",
/// "other".
std::string port_bucket(std::uint16_t port);

}  // namespace ddos::core

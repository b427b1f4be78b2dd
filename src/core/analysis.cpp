#include "core/analysis.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "obs/obs.h"

namespace ddos::core {

namespace {

struct YearMonth {
  int year = 0;
  int month = 0;
  auto operator<=>(const YearMonth&) const = default;
};

YearMonth ym_of(const telescope::RSDoSEvent& ev) {
  int year = 0, month = 0, dom = 0;
  netsim::day_to_ymd(ev.start_time().day(), year, month, dom);
  return YearMonth{year, month};
}

}  // namespace

std::vector<MonthlyRow> monthly_summary(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry) {
  obs::ScopedSpan span(obs::installed_tracer(), "analysis.monthly_summary");
  span.set_items(events.size());
  struct Acc {
    std::uint64_t dns_attacks = 0;
    std::uint64_t other_attacks = 0;
    std::unordered_set<netsim::IPv4Addr> dns_ips;
    std::unordered_set<netsim::IPv4Addr> other_ips;
  };
  // Month buckets and victim-IP sets are order-independent, and one
  // serial pass over ~thousands of events costs less than sharding saves.
  std::map<YearMonth, Acc> by_month;
  for (const auto& ev : events) {
    Acc& acc = by_month[ym_of(ev)];
    // Table 3 counts every attack on an IP appearing in NS records as a
    // DNS attack; open resolvers are filtered later, in the impact join
    // (the paper surfaces them in Table 5 first).
    if (registry.is_ns_ip(ev.victim)) {
      ++acc.dns_attacks;
      acc.dns_ips.insert(ev.victim);
    } else {
      ++acc.other_attacks;
      acc.other_ips.insert(ev.victim);
    }
  }
  std::vector<MonthlyRow> rows;
  rows.reserve(by_month.size());
  for (const auto& [ym, acc] : by_month) {
    MonthlyRow row;
    row.year = ym.year;
    row.month = ym.month;
    row.dns_attacks = acc.dns_attacks;
    row.other_attacks = acc.other_attacks;
    row.dns_ips = acc.dns_ips.size();
    row.other_ips = acc.other_ips.size();
    rows.push_back(row);
  }
  return rows;
}

MonthlyRow summary_totals(const std::vector<MonthlyRow>& rows) {
  MonthlyRow total;
  for (const auto& r : rows) {
    total.dns_attacks += r.dns_attacks;
    total.other_attacks += r.other_attacks;
    total.dns_ips += r.dns_ips;
    total.other_ips += r.other_ips;
  }
  return total;
}

std::vector<MonthlyAffectedDomains> monthly_affected_domains(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry) {
  struct Acc {
    std::unordered_set<dns::NssetId> nssets;
    std::unordered_set<netsim::IPv4Addr> ns_ips;
    // Per-day affected NSSets: a coordinated multi-nameserver campaign
    // (the Fig. 5 mega-events) lands on one day, so the largest same-day
    // blast radius is the figure's peak statistic.
    std::map<netsim::DayIndex, std::unordered_set<dns::NssetId>> by_day;
  };
  std::map<YearMonth, Acc> by_month;
  for (const auto& ev : events) {
    if (!registry.is_ns_ip(ev.victim) || registry.is_open_resolver(ev.victim))
      continue;
    Acc& acc = by_month[ym_of(ev)];
    acc.ns_ips.insert(ev.victim);
    auto& day_set = acc.by_day[ev.start_time().day()];
    for (const dns::NssetId nsset : registry.nssets_containing(ev.victim)) {
      acc.nssets.insert(nsset);
      day_set.insert(nsset);
    }
  }
  std::vector<MonthlyAffectedDomains> rows;
  rows.reserve(by_month.size());
  for (const auto& [ym, acc] : by_month) {
    MonthlyAffectedDomains row;
    row.year = ym.year;
    row.month = ym.month;
    // Distinct domains: NSSets partition domains, so summing NSSet sizes
    // over the distinct affected NSSets is an exact distinct-domain count.
    for (const dns::NssetId nsset : acc.nssets)
      row.affected_domains += registry.domains_of_nsset(nsset).size();
    for (const auto& [day, nssets] : acc.by_day) {
      std::uint64_t blast = 0;
      for (const dns::NssetId nsset : nssets)
        blast += registry.domains_of_nsset(nsset).size();
      row.largest_single_event = std::max(row.largest_single_event, blast);
    }
    row.attacked_ns_ips = acc.ns_ips.size();
    rows.push_back(row);
  }
  return rows;
}

std::vector<TargetCount> top_attacked_orgs(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry, const topology::PrefixTable& routes,
    const topology::AsRegistry& orgs, std::size_t k) {
  util::CategoryCounter counter;
  for (const auto& ev : events) {
    if (!registry.is_ns_ip(ev.victim)) continue;  // resolvers stay in: Table 4
    const topology::Asn asn = routes.origin_of(ev.victim);
    if (asn == 0) continue;
    std::string org = orgs.org_of(asn);
    if (org.empty()) org = "AS" + std::to_string(asn);
    counter.add(org);
  }
  std::vector<TargetCount> out;
  for (const auto& [org, n] : counter.top(k))
    out.push_back(TargetCount{org, n});
  return out;
}

std::vector<IpTargetCount> top_attacked_ips(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry, std::size_t k) {
  std::unordered_map<netsim::IPv4Addr, std::uint64_t> counter;
  for (const auto& ev : events) {
    if (!registry.is_ns_ip(ev.victim)) continue;
    ++counter[ev.victim];
  }
  std::vector<IpTargetCount> all;
  all.reserve(counter.size());
  for (const auto& [ip, n] : counter) {
    IpTargetCount row;
    row.ip = ip;
    row.attacks = n;
    row.type =
        registry.is_open_resolver(ip) ? "open-resolver" : "authoritative-ns";
    all.push_back(row);
  }
  std::sort(all.begin(), all.end(),
            [](const IpTargetCount& a, const IpTargetCount& b) {
              if (a.attacks != b.attacks) return a.attacks > b.attacks;
              return a.ip < b.ip;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

std::string port_bucket(std::uint16_t port) {
  switch (port) {
    case 80: return "80";
    case 53: return "53";
    case 443: return "443";
    default: return "other";
  }
}

PortDistribution port_distribution(
    const std::vector<telescope::RSDoSEvent>& events,
    const dns::DnsRegistry& registry) {
  PortDistribution dist;
  for (const auto& ev : events) {
    if (!registry.is_ns_ip(ev.victim) || registry.is_open_resolver(ev.victim))
      continue;
    ++dist.total;
    if (ev.max_unique_ports > 1) continue;
    ++dist.single_port;
    dist.by_protocol.add(attack::to_string(ev.protocol));
    if (ev.protocol == attack::Protocol::TCP) {
      dist.tcp_ports.add(port_bucket(ev.first_port));
    } else if (ev.protocol == attack::Protocol::UDP) {
      dist.udp_ports.add(port_bucket(ev.first_port));
    }
  }
  return dist;
}

}  // namespace ddos::core

#include "scenario/world.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"

namespace ddos::scenario {

const char* to_string(DeployStyle s) {
  switch (s) {
    case DeployStyle::UnicastSinglePrefix: return "unicast-single-prefix";
    case DeployStyle::UnicastMultiPrefix: return "unicast-multi-prefix";
    case DeployStyle::UnicastMultiAS: return "unicast-multi-as";
    case DeployStyle::PartialAnycast: return "partial-anycast";
    case DeployStyle::FullAnycast: return "full-anycast";
  }
  return "unknown";
}

namespace {

struct NamedOrg {
  const char* name;
  topology::Asn asn;
  const char* cc;
};

// Table-4 flavour: the large DNS/cloud organisations the paper finds most
// attacked, placed on the top size ranks.
constexpr NamedOrg kFamous[] = {
    {"Google", 15169, "US"},         {"Unified Layer", 46606, "US"},
    {"Cloudflare", 13335, "US"},     {"OVH", 16276, "FR"},
    {"Hetzner", 24940, "DE"},        {"Amazon", 16509, "US"},
    {"Microsoft", 8068, "US"},       {"Fastly", 54113, "US"},
    {"GoDaddy", 26496, "US"},        {"Birbir", 199608, "TR"},
    {"Pendc", 48678, "TR"},          {"TransIP", 20857, "NL"},
};

// Table-6 flavour: small-to-medium hosting organisations that absorbed the
// worst RTT impacts, plus the §6 case organisations. `rank_frac` places
// each on the provider-size scale (0 = largest): nic.ru is a large
// registrar, Euskaltel a mid-size regional ISP, the rest small-to-medium
// hosters. All are forced to unicast deployments — that is what made them
// impactable in the paper (§6.6.1).
struct MidOrg {
  NamedOrg org;
  double rank_frac;
};
constexpr MidOrg kMidOrgs[] = {
    {{"nic.ru", 48287, "RU"}, 0.012},
    {{"Euskaltel", 12338, "ES"}, 0.018},
    {{"Beeline RU", 3216, "RU"}, 0.030},
    {{"Contabo", 51167, "DE"}, 0.045},
    {{"Linode", 63949, "US"}, 0.060},
    {{"NForce B.V.", 43350, "NL"}, 0.080},
    {{"Co-Co NL", 205970, "NL"}, 0.110},
    {{"NMU Group", 203989, "SE"}, 0.150},
    {{"My Lock De", 205601, "DE"}, 0.200},
    {{"DigiHosting NL", 206264, "NL"}, 0.260},
    {{"Apple Russia", 6735, "RU"}, 0.330},
    {{"ITandTEL", 42473, "AT"}, 0.420},
};

constexpr const char* kCountries[] = {"US", "DE", "NL", "FR", "GB", "RU",
                                      "BR", "JP", "IN", "CN", "ES", "IT",
                                      "SE", "PL", "TR", "CA", "AU", "AT"};

constexpr const char* kTlds[] = {"com", "com", "com", "com", "net", "org",
                                 "nl",  "ru",  "de",  "fr",  "info", "io"};

/// Sequential /24 allocator over synthetic unicast space (60.0.0.0/6-ish),
/// avoiding the darknet blocks.
class PrefixAllocator {
 public:
  explicit PrefixAllocator(std::uint32_t base) : next_(base) {}
  netsim::Prefix next24() {
    const netsim::Prefix p(netsim::IPv4Addr(next_), 24);
    next_ += 256;
    return p;
  }

 private:
  std::uint32_t next_;
};

}  // namespace

const std::vector<std::string>& table6_provider_names() {
  static const std::vector<std::string> names = {
      "NForce B.V.", "Co-Co NL",       "NMU Group", "Hetzner",
      "My Lock De",  "DigiHosting NL", "Apple Russia",
      "GoDaddy",     "Linode",         "ITandTEL"};
  return names;
}

netsim::IPv4Addr World::random_other_ip(netsim::Rng& rng) const {
  if (other_prefixes.empty())
    throw std::logic_error("World: no non-DNS prefixes");
  const auto& p = other_prefixes[static_cast<std::size_t>(
      rng.uniform_u64(other_prefixes.size()))];
  const std::uint64_t host = 1 + rng.uniform_u64(p.size() - 2);
  return netsim::IPv4Addr(p.network().value() +
                          static_cast<std::uint32_t>(host));
}

int World::provider_index(const std::string& name) const {
  for (std::size_t i = 0; i < providers.size(); ++i) {
    if (providers[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

WorldParams small_world_params(std::uint64_t seed) {
  WorldParams p;
  p.seed = seed;
  p.provider_count = 40;
  p.domain_count = 2000;
  p.open_resolver_misconfigs = 10;
  return p;
}

std::unique_ptr<World> build_world(const WorldParams& params) {
  if (params.provider_count == 0 || params.domain_count == 0)
    throw std::invalid_argument("build_world: empty world");

  auto world = std::make_unique<World>();
  world->params = params;
  netsim::Rng rng(params.seed);

  const std::uint32_t n = params.provider_count;
  world->providers.resize(n);

  // ---- Organisations: famous providers on the top ranks, the Table-6 /
  // case organisations spread through the middle, synthetic orgs elsewhere.
  std::vector<bool> named(n, false);
  std::uint32_t next_synthetic_asn = 64512;
  const auto assign = [&](std::uint32_t rank, const NamedOrg& org) {
    rank = std::min(rank, n - 1);
    while (named[rank]) rank = (rank + 1) % n;  // first free rank
    named[rank] = true;
    world->providers[rank].name = org.name;
    world->providers[rank].asns = {org.asn};
    world->orgs.add(topology::AsInfo{org.asn, org.name, org.cc});
  };

  for (std::uint32_t i = 0; i < std::size(kFamous); ++i) {
    assign(i, kFamous[i]);
  }
  // Mid-tier named organisations at their designated size ranks.
  for (const auto& mid : kMidOrgs) {
    assign(static_cast<std::uint32_t>(n * mid.rank_frac + 12), mid.org);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (named[i]) continue;
    Provider& p = world->providers[i];
    char buf[32];
    std::snprintf(buf, sizeof(buf), "Provider-%04u", i);
    p.name = buf;
    const topology::Asn asn = next_synthetic_asn++;
    p.asns = {asn};
    world->orgs.add(topology::AsInfo{
        asn, p.name,
        kCountries[rng.uniform_u64(std::size(kCountries))]});
  }

  // ---- Domain -> provider assignment: rank-weighted (w = (rank+1)^-a)
  // via a cumulative table + binary search.
  std::vector<double> cumulative(n);
  double acc = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    acc += std::pow(static_cast<double>(i + 1), -params.size_exponent);
    cumulative[i] = acc;
  }
  std::vector<std::uint32_t> domain_provider(params.domain_count);
  for (auto& dp : domain_provider) {
    const double r = rng.uniform() * acc;
    dp = static_cast<std::uint32_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), r) -
        cumulative.begin());
  }
  for (const auto dp : domain_provider) ++world->providers[dp].domains_hosted;

  // ---- Cloud superblocks: customer deployments hosted inside a large
  // org's address space get attributed to that org via prefix2as, exactly
  // as the paper attributes Hetzner/Linode/GoDaddy impact events.
  const std::vector<std::string> cloud_orgs = {
      "Hetzner", "OVH", "Unified Layer", "Linode", "Contabo", "GoDaddy"};
  std::unordered_map<std::string, PrefixAllocator> cloud_alloc;
  {
    std::uint32_t base = netsim::IPv4Addr(80, 0, 0, 0).value();
    for (const auto& org : cloud_orgs) {
      cloud_alloc.emplace(org, PrefixAllocator(base));
      base += 1u << 18;  // a /14 superblock per cloud org
    }
  }
  const auto cloud_asn_of = [&](const std::string& org) -> topology::Asn {
    for (const auto& o : kFamous)
      if (org == o.name) return o.asn;
    for (const auto& o : kMidOrgs)
      if (org == o.org.name) return o.org.asn;
    return 0;
  };
  const auto is_named_mid = [&](const std::string& name) {
    for (const auto& o : kMidOrgs)
      if (name == o.org.name) return true;
    return false;
  };

  PrefixAllocator unicast_alloc(netsim::IPv4Addr(60, 0, 0, 0).value());
  PrefixAllocator anycast_alloc(netsim::IPv4Addr(76, 0, 0, 0).value());

  // ---- Per-provider deployment.
  struct Plan {
    std::vector<netsim::IPv4Addr> ips;
  };
  std::vector<std::vector<Plan>> plans(n);

  for (std::uint32_t rank = 0; rank < n; ++rank) {
    Provider& p = world->providers[rank];
    const double rank_frac = static_cast<double>(rank) / n;

    // Style stratified by size (cf. anycast adoption skewing large).
    if (rank < 12) {
      p.style = DeployStyle::FullAnycast;
    } else if (rank_frac < 0.08) {
      const double u = rng.uniform();
      p.style = u < 0.45   ? DeployStyle::FullAnycast
                : u < 0.70 ? DeployStyle::PartialAnycast
                : u < 0.85 ? DeployStyle::UnicastMultiAS
                           : DeployStyle::UnicastMultiPrefix;
    } else if (rank_frac < 0.35) {
      const double u = rng.uniform();
      p.style = u < 0.12   ? DeployStyle::FullAnycast
                : u < 0.28 ? DeployStyle::PartialAnycast
                : u < 0.42 ? DeployStyle::UnicastMultiAS
                : u < 0.72 ? DeployStyle::UnicastMultiPrefix
                           : DeployStyle::UnicastSinglePrefix;
    } else {
      const double u = rng.uniform();
      p.style = u < 0.04   ? DeployStyle::PartialAnycast
                : u < 0.10 ? DeployStyle::UnicastMultiAS
                : u < 0.38 ? DeployStyle::UnicastMultiPrefix
                           : DeployStyle::UnicastSinglePrefix;
    }
    // The named case organisations are unicast in the paper — that is
    // precisely why attacks against them were impactful (§6.6.1). About
    // half run everything out of one /24 (the Fig. 13 worst case), the
    // rest spread over a few prefixes (which §5.2.3 shows is not enough
    // against an all-nameserver attack).
    if (is_named_mid(p.name)) {
      static const std::unordered_set<std::string> kSinglePrefix = {
          "Euskaltel",   "My Lock De",   "DigiHosting NL",
          "ITandTEL",    "Apple Russia", "NForce B.V."};
      p.style = kSinglePrefix.contains(p.name)
                    ? DeployStyle::UnicastSinglePrefix
                    : DeployStyle::UnicastMultiPrefix;
    }

    // Pool size: number of NS addresses the provider operates.
    std::size_t pool = 0;
    if (rank < 12) pool = 4 + rng.uniform_u64(6);         // 4..9
    else if (rank_frac < 0.35) pool = 3 + rng.uniform_u64(3);  // 3..5
    else pool = 2 + rng.uniform_u64(2);                   // 2..3

    // Cloud hosting for small synthetic providers.
    const bool cloud_hosted =
        rank_frac > 0.45 && p.asns[0] >= 64512 && rng.chance(0.30);
    std::string cloud_org;
    if (cloud_hosted) {
      cloud_org = cloud_orgs[rng.uniform_u64(cloud_orgs.size())];
      p.hosted_on = cloud_org;
    }

    // Prefix allocation per style.
    std::vector<netsim::Prefix> prefixes;
    std::vector<topology::Asn> prefix_asn;
    const auto take24 = [&](bool anycast_block) -> netsim::Prefix {
      if (cloud_hosted) return cloud_alloc.at(cloud_org).next24();
      return anycast_block ? anycast_alloc.next24() : unicast_alloc.next24();
    };
    std::size_t prefix_count = 1;
    switch (p.style) {
      case DeployStyle::UnicastSinglePrefix: prefix_count = 1; break;
      case DeployStyle::UnicastMultiPrefix:
        prefix_count = 2 + rng.uniform_u64(2);
        break;
      case DeployStyle::UnicastMultiAS: prefix_count = 2 + rng.uniform_u64(2); break;
      case DeployStyle::PartialAnycast: prefix_count = 2; break;
      case DeployStyle::FullAnycast: prefix_count = 1 + rng.uniform_u64(2); break;
    }
    for (std::size_t i = 0; i < prefix_count; ++i) {
      const bool anycast_pfx =
          p.style == DeployStyle::FullAnycast ||
          (p.style == DeployStyle::PartialAnycast && i == 0);
      prefixes.push_back(take24(anycast_pfx));
      topology::Asn asn = cloud_hosted ? cloud_asn_of(cloud_org) : p.asns[0];
      if (p.style == DeployStyle::UnicastMultiAS && i > 0 && !cloud_hosted) {
        // Secondary NS with a partner organisation: new ASN.
        asn = next_synthetic_asn++;
        world->orgs.add(topology::AsInfo{asn, p.name + " partner",
                                         world->orgs.country_of(p.asns[0])});
        p.asns.push_back(asn);
      }
      prefix_asn.push_back(asn);
      world->routes.announce(prefixes.back(), asn);
    }

    // Capacity model: sublinear over-provisioning with hosted size.
    const double headroom =
        std::pow(1.0 + static_cast<double>(p.domains_hosted),
                 params.capacity_exponent);
    const double capacity =
        params.capacity_base_pps * headroom * rng.uniform(0.7, 1.4);
    p.site_capacity_pps = capacity;
    const double legit =
        std::max(params.legit_pps_floor,
                 params.legit_pps_per_domain *
                     static_cast<double>(p.domains_hosted));

    // European case organisations sit close to the NL vantage: low base
    // RTT, which is what makes their extreme Impact_on_RTT ratios
    // arithmetically possible (a 348x spike over a 12 ms baseline is a
    // ~4 s resolution; over a 60 ms baseline it could not fit a resolver's
    // retry budget).
    const auto& t6 = table6_provider_names();
    const bool near_vantage =
        std::find(t6.begin(), t6.end(), p.name) != t6.end();

    // Instantiate nameservers from the pool, round-robin over prefixes.
    for (std::size_t k = 0; k < pool; ++k) {
      const std::size_t pfx = k % prefixes.size();
      const netsim::IPv4Addr ip(prefixes[pfx].network().value() +
                                static_cast<std::uint32_t>(10 + k));
      const bool ip_anycast =
          p.style == DeployStyle::FullAnycast ||
          (p.style == DeployStyle::PartialAnycast && pfx == 0);

      std::vector<dns::Site> sites;
      if (ip_anycast) {
        // Anycast operators are the well-provisioned class: more headroom
        // per site on top of the catchment spreading (§6.6.1).
        const std::size_t site_count = 6 + rng.uniform_u64(19);  // 6..24
        sites.reserve(site_count);
        for (std::size_t s = 0; s < site_count; ++s) {
          sites.push_back(dns::Site{
              "site" + std::to_string(s), capacity * 2.2,
              rng.uniform(8.0, 45.0), rng.uniform(0.5, 1.5)});
        }
      } else {
        const double base_rtt =
            near_vantage ? rng.uniform(11.0, 13.5) : rng.uniform(12.0, 60.0);
        sites.push_back(dns::Site{"uni", capacity, base_rtt, 1.0});
      }
      // Hostname label from the org name: lower-case, non-alphanumerics
      // collapsed to dashes (zone-file safe).
      std::string org_label;
      for (const char c : util::to_lower(p.name)) {
        org_label.push_back(
            (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ? c : '-');
      }
      dns::Nameserver ns(ip, std::move(sites),
                         "ns" + std::to_string(k + 1) + "." + org_label +
                             ".example");
      ns.set_legit_pps(legit);
      ns.set_home_country(world->orgs.country_of(prefix_asn[pfx]));
      world->registry.add_nameserver(std::move(ns));
      p.ns_ips.push_back(ip);
    }

    // Hosting plans: fixed NS subsets customers delegate to. Large
    // providers shard customers over *disjoint* pool slices (an attack on
    // one address reaches one shard; only an all-pool attack blasts the
    // whole customer base — the Fig. 5 mega-event signature). Smaller
    // providers reuse overlapping subsets, plan 0 being the default tier.
    if (pool >= 4 && p.domains_hosted > params.domain_count / 50) {
      std::vector<netsim::IPv4Addr> pool_copy = p.ns_ips;
      rng.shuffle(pool_copy);
      for (std::size_t at = 0; at + 2 <= pool_copy.size();) {
        const std::size_t take =
            std::min<std::size_t>(pool_copy.size() - at, 3);
        Plan plan;
        plan.ips.assign(pool_copy.begin() + static_cast<long>(at),
                        pool_copy.begin() + static_cast<long>(at + take));
        plans[rank].push_back(std::move(plan));
        at += take;
      }
    } else {
      const std::size_t plan_count =
          p.domains_hosted > 200 ? 3 : (p.domains_hosted > 20 ? 2 : 1);
      for (std::size_t pl = 0; pl < plan_count; ++pl) {
        Plan plan;
        const std::size_t take = std::min<std::size_t>(
            p.ns_ips.size(), 2 + rng.uniform_u64(3));  // 2..4 NS per domain
        std::vector<netsim::IPv4Addr> pool_copy = p.ns_ips;
        rng.shuffle(pool_copy);
        plan.ips.assign(pool_copy.begin(),
                        pool_copy.begin() + static_cast<long>(take));
        plans[rank].push_back(std::move(plan));
      }
    }
  }

  // ---- Public open resolvers (Table 5): heavily provisioned anycast.
  struct Resolver {
    netsim::IPv4Addr ip;
    const char* org;
    topology::Asn asn;
  };
  const std::vector<Resolver> resolvers = {
      {netsim::IPv4Addr(8, 8, 8, 8), "Google", 15169},
      {netsim::IPv4Addr(8, 8, 4, 4), "Google", 15169},
      {netsim::IPv4Addr(1, 1, 1, 1), "Cloudflare", 13335},
  };
  for (const auto& r : resolvers) {
    std::vector<dns::Site> sites;
    for (int s = 0; s < 30; ++s) {
      sites.push_back(dns::Site{"pop" + std::to_string(s), 5e6,
                                rng.uniform(5.0, 20.0), 1.0});
    }
    dns::Nameserver ns(r.ip, std::move(sites), "public-resolver");
    ns.set_legit_pps(50e3);
    world->registry.add_nameserver(std::move(ns));
    world->registry.mark_open_resolver(r.ip);
    world->routes.announce(netsim::Prefix(r.ip, 24), r.asn);
    world->open_resolver_ips.push_back(r.ip);
  }

  // ---- Register domains.
  for (std::uint32_t d = 0; d < params.domain_count; ++d) {
    const std::uint32_t pr = domain_provider[d];
    const auto& pr_plans = plans[pr];
    // Very large providers spread customers evenly across plans (no
    // single NSSet carries the whole base); smaller ones funnel ~70%
    // through the default plan.
    const bool spread = world->providers[pr].domains_hosted >
                        params.domain_count / 50;
    const std::size_t plan_idx =
        pr_plans.size() == 1 ? 0
        : spread             ? rng.uniform_u64(pr_plans.size())
        : (rng.chance(0.7) ? 0 : 1 + rng.uniform_u64(pr_plans.size() - 1));
    std::vector<netsim::IPv4Addr> ns_ips = pr_plans[plan_idx].ips;

    // A sprinkle of misconfigured domains use public resolvers as NS.
    if (d < params.open_resolver_misconfigs) {
      ns_ips = {world->open_resolver_ips[d % world->open_resolver_ips.size()]};
      if (rng.chance(0.5)) ns_ips.push_back(pr_plans[0].ips[0]);
    } else if (rng.chance(params.single_ns_share)) {
      // RFC 1034 violators: a single nameserver end to end.
      ns_ips = {ns_ips.front()};
    } else if (rng.chance(params.lame_ns_share)) {
      // Lame entries: a stale NS record pointing into decommissioned
      // space (a small pool — stale records cluster on old servers).
      ns_ips.push_back(netsim::IPv4Addr(
          netsim::IPv4Addr(70, 0, 0, 10).value() +
          static_cast<std::uint32_t>(rng.uniform_u64(16))));
    }

    char buf[40];
    std::snprintf(buf, sizeof(buf), "d%06u.%s", d,
                  kTlds[rng.uniform_u64(std::size(kTlds))]);
    world->registry.add_domain(dns::DomainName::must(buf), std::move(ns_ips));
  }

  // Decommissioned space the lame entries point into: routed (so the
  // audit can attribute it) but with no nameservers behind it.
  world->routes.announce(
      netsim::Prefix(netsim::IPv4Addr(70, 0, 0, 0), 24), 64999);
  world->orgs.add(topology::AsInfo{64999, "Decommissioned-Hosting", "US"});

  // ---- Non-DNS victim space (the other ~98-99% of attacks).
  {
    std::uint32_t base = netsim::IPv4Addr(120, 0, 0, 0).value();
    const std::size_t blocks = std::max<std::size_t>(64, n / 4);
    for (std::size_t i = 0; i < blocks; ++i) {
      const netsim::Prefix pfx(netsim::IPv4Addr(base), 16);
      base += 1u << 16;
      const topology::Asn asn = 90000 + static_cast<topology::Asn>(i);
      char buf[24];
      std::snprintf(buf, sizeof(buf), "Org-%04zu", i);
      world->orgs.add(topology::AsInfo{
          asn, buf, kCountries[rng.uniform_u64(std::size(kCountries))]});
      world->routes.announce(pfx, asn);
      world->other_prefixes.push_back(pfx);
    }
  }

  // ---- Anycast census: quarterly snapshots with detection recall.
  world->census = anycast::AnycastCensus::from_registry(
      world->registry, anycast::paper_census_days(), params.anycast_recall,
      params.seed ^ 0xCE45u);

  return world;
}

}  // namespace ddos::scenario

// Synthetic DNS hosting world. The paper measures the production Internet
// through OpenINTEL and CAIDA datasets; those are proprietary, so this
// generator builds a population with the same structural properties:
//
//   * heavy-tailed provider sizes (a few providers host a large share of
//     domains; the biggest hosts ~5% — mirroring the ~10M-domain peaks on
//     a ~217M namespace in Fig. 5);
//   * deployment styles stratified by provider size: large providers run
//     anycast, small ones run unicast on a single /24 (cf. §6.6 and the
//     anycast-adoption characterisation of Sommese et al. 2021);
//   * server/site capacity grows sublinearly with hosted-domain count
//     (big providers over-provision), which produces the paper's central
//     finding that attack intensity does not predict impact (Fig. 9);
//   * a small population of misconfigured domains whose NS records point
//     at public open resolvers (8.8.8.8, 8.8.4.4, 1.1.1.1) — the Table 5
//     artefact the paper filters;
//   * named real-world organisations (Google, Cloudflare, TransIP, NForce
//     B.V., ...) occupy the size ranks their role in the paper implies, so
//     leaderboard benches reproduce recognisable rows.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "anycast/census.h"
#include "dns/registry.h"
#include "netsim/ipv4.h"
#include "netsim/rng.h"
#include "topology/as_registry.h"
#include "topology/prefix_table.h"

namespace ddos::scenario {

enum class DeployStyle : std::uint8_t {
  UnicastSinglePrefix,  // all NS in one /24 — the mil.ru anti-pattern
  UnicastMultiPrefix,   // unicast, several /24s (TransIP-style)
  UnicastMultiAS,       // unicast across providers
  PartialAnycast,       // some NS anycast, some unicast
  FullAnycast,          // all NS anycast
};
const char* to_string(DeployStyle s);

struct Provider {
  std::string name;
  std::vector<topology::Asn> asns;
  DeployStyle style = DeployStyle::UnicastSinglePrefix;
  std::vector<netsim::IPv4Addr> ns_ips;
  std::uint64_t domains_hosted = 0;
  double site_capacity_pps = 0.0;  // representative per-site capacity
  /// Cloud organisation whose address space hosts this provider's
  /// nameservers ("" when self-hosted). Attacks on such deployments are
  /// attributed to the cloud org via prefix2as, as in the paper.
  std::string hosted_on;
};

struct WorldParams {
  std::uint64_t seed = 42;
  std::uint32_t provider_count = 1200;
  std::uint32_t domain_count = 120'000;
  /// Rank-weight exponent for provider sizes (w_i = rank^-exponent);
  /// 0.85 puts ~5-6% of domains on the largest provider.
  double size_exponent = 0.85;
  /// Census detection probability per anycast /24 (lower-bound knob, §3.3).
  double anycast_recall = 0.85;
  /// Misconfigured domains pointing NS records at public resolvers.
  std::uint32_t open_resolver_misconfigs = 150;
  /// Share of domains violating RFC 1034's two-nameserver minimum.
  double single_ns_share = 0.015;
  /// Share of domains carrying a lame NS entry (an address with no server
  /// behind it — Akiwate et al. 2020).
  double lame_ns_share = 0.004;
  /// Site capacity = base * (1 + hosted_domains)^exponent * jitter.
  double capacity_base_pps = 18e3;
  double capacity_exponent = 0.40;
  /// Legitimate query load folded into utilisation.
  double legit_pps_per_domain = 0.02;
  double legit_pps_floor = 100.0;
};

struct World {
  WorldParams params;
  dns::DnsRegistry registry;
  topology::PrefixTable routes;
  topology::AsRegistry orgs;
  anycast::AnycastCensus census;
  std::vector<Provider> providers;
  std::vector<netsim::IPv4Addr> open_resolver_ips;

  /// Non-DNS victim space: synthetic "rest of the Internet" prefixes used
  /// as targets for the ~98-99% of attacks that do not hit DNS (Table 3).
  std::vector<netsim::Prefix> other_prefixes;

  /// A random host address in the non-DNS space.
  netsim::IPv4Addr random_other_ip(netsim::Rng& rng) const;

  /// Provider index by organisation name; -1 when absent.
  int provider_index(const std::string& name) const;
};

/// Build the world. Deterministic in params.seed.
std::unique_ptr<World> build_world(const WorldParams& params);

/// Small-world preset for unit tests (fast to build and sweep).
WorldParams small_world_params(std::uint64_t seed = 7);

/// The Table-6 organisations (small-to-medium providers hit hardest).
const std::vector<std::string>& table6_provider_names();

}  // namespace ddos::scenario

#include "scenario/world.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace ddos::scenario {
namespace {

class WorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldParams params = small_world_params(11);
    params.provider_count = 120;
    params.domain_count = 8000;
    world_ = build_world(params).release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static World* world_;
};

World* WorldTest::world_ = nullptr;

TEST_F(WorldTest, PopulationCounts) {
  EXPECT_EQ(world_->registry.domain_count(), 8000u);
  EXPECT_EQ(world_->providers.size(), 120u);
  EXPECT_GT(world_->registry.nsset_count(), 120u);  // multiple plans
  EXPECT_GT(world_->registry.nameserver_count(), 200u);
}

TEST_F(WorldTest, ProviderSizesHeavyTailed) {
  const auto& providers = world_->providers;
  // Rank 0 hosts the most; top provider around 4-8% of the namespace.
  std::uint64_t max_hosted = 0;
  for (const auto& p : providers) max_hosted = std::max(max_hosted, p.domains_hosted);
  EXPECT_EQ(providers[0].domains_hosted, max_hosted);
  const double top_share =
      static_cast<double>(providers[0].domains_hosted) / 8000.0;
  EXPECT_GT(top_share, 0.02);
  EXPECT_LT(top_share, 0.15);
}

TEST_F(WorldTest, FamousOrgsOnTopRanks) {
  EXPECT_EQ(world_->providers[0].name, "Google");
  EXPECT_EQ(world_->providers[1].name, "Unified Layer");
  EXPECT_EQ(world_->providers[2].name, "Cloudflare");
  EXPECT_EQ(world_->provider_index("TransIP"), 11);
}

TEST_F(WorldTest, LargeProvidersRunAnycast) {
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(world_->providers[i].style, DeployStyle::FullAnycast)
        << world_->providers[i].name;
    for (const auto& ip : world_->providers[i].ns_ips) {
      EXPECT_TRUE(world_->registry.nameserver(ip).anycast());
    }
  }
}

TEST_F(WorldTest, CaseOrgsAreUnicast) {
  for (const char* org : {"nic.ru", "Euskaltel", "NForce B.V.", "Contabo"}) {
    const int idx = world_->provider_index(org);
    ASSERT_GE(idx, 0) << org;
    const auto& p = world_->providers[static_cast<std::size_t>(idx)];
    EXPECT_NE(p.style, DeployStyle::FullAnycast) << org;
    EXPECT_NE(p.style, DeployStyle::PartialAnycast) << org;
    EXPECT_GT(p.domains_hosted, 0u) << org;
  }
}

TEST_F(WorldTest, NicRuIsLargerThanNForce) {
  const auto& providers = world_->providers;
  const auto hosted = [&](const char* name) {
    return providers[static_cast<std::size_t>(world_->provider_index(name))]
        .domains_hosted;
  };
  EXPECT_GT(hosted("nic.ru"), hosted("NForce B.V."));
}

TEST_F(WorldTest, EveryNsIpHasRegisteredNameserverAndRoute) {
  const netsim::Prefix lame_pool(netsim::IPv4Addr(70, 0, 0, 0), 24);
  std::size_t lame = 0;
  for (const auto& ip : world_->registry.all_ns_ips()) {
    if (lame_pool.contains(ip)) {
      // Planted lame delegations: routed decommissioned space with no
      // server behind it (Akiwate et al. 2020).
      EXPECT_FALSE(world_->registry.has_nameserver(ip)) << ip.to_string();
      EXPECT_EQ(world_->orgs.org_of(world_->routes.origin_of(ip)),
                "Decommissioned-Hosting");
      ++lame;
      continue;
    }
    EXPECT_TRUE(world_->registry.has_nameserver(ip)) << ip.to_string();
    EXPECT_NE(world_->routes.origin_of(ip), 0u) << ip.to_string();
  }
  EXPECT_GT(lame, 0u);  // the lame share knob plants some
}

TEST_F(WorldTest, PlantedMisconfigurationShares) {
  std::uint64_t single_ns = 0;
  for (dns::DomainId d = 0; d < world_->registry.end_domain(); ++d) {
    const auto& key =
        world_->registry.nsset_key(world_->registry.nsset_of_domain(d));
    if (key.ips.size() == 1 &&
        !world_->registry.is_open_resolver(key.ips[0])) {
      ++single_ns;
    }
  }
  // ~1.5% of domains violate the RFC 1034 two-nameserver minimum.
  EXPECT_GT(single_ns, 8000 * 0.005);
  EXPECT_LT(single_ns, 8000 * 0.04);
}

TEST_F(WorldTest, OrgAttributionResolvesForProviders) {
  for (const auto& p : world_->providers) {
    const topology::Asn asn = world_->routes.origin_of(p.ns_ips.front());
    const std::string org = world_->orgs.org_of(asn);
    EXPECT_FALSE(org.empty()) << p.name;
    if (p.hosted_on.empty()) {
      EXPECT_EQ(org, p.name);
    } else {
      EXPECT_EQ(org, p.hosted_on);  // cloud-hosted: attributed to the cloud
    }
  }
}

TEST_F(WorldTest, OpenResolversRegisteredAndMarked) {
  ASSERT_EQ(world_->open_resolver_ips.size(), 3u);
  for (const auto& ip : world_->open_resolver_ips) {
    EXPECT_TRUE(world_->registry.is_open_resolver(ip));
    EXPECT_TRUE(world_->registry.has_nameserver(ip));
    EXPECT_TRUE(world_->registry.nameserver(ip).anycast());
    EXPECT_FALSE(world_->registry.domains_of_ns_ip(ip).empty());
  }
  EXPECT_TRUE(
      world_->registry.is_open_resolver(netsim::IPv4Addr(8, 8, 8, 8)));
}

TEST_F(WorldTest, CensusDetectsAnycastProviders) {
  // Google's nameservers should be census-flagged for the paper's window
  // (recall < 1, so check that at least one is).
  int flagged = 0;
  for (const auto& ip : world_->providers[0].ns_ips) {
    if (world_->census.is_anycast(ip, 100)) ++flagged;
  }
  EXPECT_GT(flagged, 0);
  // A unicast case org must never be census-flagged.
  const int nf = world_->provider_index("NForce B.V.");
  for (const auto& ip :
       world_->providers[static_cast<std::size_t>(nf)].ns_ips) {
    EXPECT_FALSE(world_->census.is_anycast(ip, 100));
  }
}

TEST_F(WorldTest, CapacityGrowsWithSize) {
  // Compare the largest and an (order-of-magnitude smaller) mid provider.
  const auto& big = world_->providers[0];
  const auto& small = world_->providers[world_->providers.size() - 1];
  EXPECT_GT(big.site_capacity_pps, small.site_capacity_pps);
}

TEST_F(WorldTest, NonDnsSpaceDisjointFromNsSpace) {
  netsim::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto ip = world_->random_other_ip(rng);
    EXPECT_FALSE(world_->registry.is_ns_ip(ip));
    EXPECT_NE(world_->routes.origin_of(ip), 0u);  // routed space
  }
}

TEST_F(WorldTest, LookupHelpers) {
  EXPECT_EQ(world_->provider_index("Google"), 0);
  EXPECT_EQ(world_->provider_index("NoSuchOrg"), -1);
}

TEST(WorldBuild, DeterministicInSeed) {
  WorldParams params = small_world_params(3);
  const auto w1 = build_world(params);
  const auto w2 = build_world(params);
  ASSERT_EQ(w1->providers.size(), w2->providers.size());
  for (std::size_t i = 0; i < w1->providers.size(); ++i) {
    EXPECT_EQ(w1->providers[i].name, w2->providers[i].name);
    EXPECT_EQ(w1->providers[i].domains_hosted, w2->providers[i].domains_hosted);
    EXPECT_EQ(w1->providers[i].ns_ips, w2->providers[i].ns_ips);
    EXPECT_DOUBLE_EQ(w1->providers[i].site_capacity_pps,
                     w2->providers[i].site_capacity_pps);
  }
}

TEST(WorldBuild, RejectsEmptyWorld) {
  WorldParams params;
  params.provider_count = 0;
  EXPECT_THROW(build_world(params), std::invalid_argument);
  params = WorldParams{};
  params.domain_count = 0;
  EXPECT_THROW(build_world(params), std::invalid_argument);
}

TEST(WorldBuild, DomainsDelegateToOwnProviderPlans) {
  WorldParams params = small_world_params(9);
  params.domain_count = 500;
  const auto world = build_world(params);
  // Every domain's NS IPs belong to exactly one provider's pool (or to the
  // open-resolver set for misconfigured ones).
  for (dns::DomainId d = 0; d < world->registry.end_domain(); ++d) {
    const auto& key =
        world->registry.nsset_key(world->registry.nsset_of_domain(d));
    EXPECT_GE(key.ips.size(), 1u);
    EXPECT_LE(key.ips.size(), 4u);
  }
}

}  // namespace
}  // namespace ddos::scenario

// Reactive measurement platform (§4.3.1). The paper built this on
// Kafka/Spark/Flume; the plumbing here is an in-process event loop with the
// same measurement semantics:
//
//   * a new RSDoS attack on a nameserver IP triggers a probing campaign
//     within at most 10 minutes of the attack's start;
//   * each campaign probes up to 50 domains delegating to the attacked
//     server, every 5-minute window, for the attack duration plus 24 hours
//     (the post-attack baseline), spreading the 50 probes evenly across
//     the window (~one query every 6 seconds — the ethical rate cap, §8);
//   * unlike OpenINTEL's agnostic resolution, probes target the *full*
//     nameserver list of each domain individually, so per-server
//     responsiveness is observable (mil.ru: "none of the three nameservers
//     responsive").
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "attack/schedule.h"
#include "dns/load_model.h"
#include "dns/registry.h"
#include "netsim/ipv4.h"
#include "netsim/simtime.h"
#include "telescope/rsdos.h"

namespace ddos::reactive {

struct ReactiveParams {
  std::uint32_t domains_per_window = 50;
  double probe_timeout_ms = 1500.0;  // slower answers count as unresponsive
  std::int64_t max_trigger_delay_s = 600;   // <= 10 minutes (§4.3.1)
  std::int64_t post_attack_tail_s = 24 * netsim::kSecondsPerHour;
  dns::LoadModelParams model;
  std::uint64_t vantage_id = 7;        // single NL vantage, stable catchment
  std::string vantage_country = "NL";
  std::uint64_t seed = 99;
};

/// Per-nameserver tallies inside one probing window.
struct NsWindowProbe {
  std::uint32_t probes = 0;
  std::uint32_t responses = 0;
  bool responsive() const { return responses > 0; }
};

/// One 5-minute window of a campaign.
struct CampaignWindow {
  netsim::WindowIndex window = 0;
  bool during_attack = false;
  std::uint32_t domains_probed = 0;
  /// A domain "resolved" if at least one of its nameservers answered.
  std::uint32_t domains_resolved = 0;
  std::map<netsim::IPv4Addr, NsWindowProbe> per_ns;

  double resolution_rate() const {
    return domains_probed
               ? static_cast<double>(domains_resolved) / domains_probed
               : 0.0;
  }
};

/// A full probing campaign for one attack.
struct Campaign {
  netsim::IPv4Addr victim;
  netsim::WindowIndex attack_start = 0;
  netsim::WindowIndex attack_end = 0;   // inclusive
  netsim::WindowIndex trigger_window = 0;
  std::vector<CampaignWindow> windows;

  /// Trigger latency in seconds from attack start.
  std::int64_t trigger_delay_s() const {
    return (trigger_window - attack_start) * netsim::kSecondsPerWindow;
  }
  /// Windows (during the attack) where no probed domain resolved.
  std::size_t fully_unresolvable_attack_windows() const;
  std::size_t attack_windows_probed() const;
  /// First post-attack window with resolution rate >= threshold;
  /// -1 when the campaign never observes recovery.
  netsim::WindowIndex recovery_window(double threshold = 0.9) const;
};

class ReactivePlatform {
 public:
  ReactivePlatform(const dns::DnsRegistry& registry,
                   const attack::AttackSchedule& schedule,
                   ReactiveParams params);

  /// React to one stitched RSDoS event: run the full campaign and return
  /// it. Victims that are not nameserver IPs yield an empty campaign
  /// (no domains to probe) — mirroring the production join.
  Campaign run_campaign(const telescope::RSDoSEvent& event) const;

  const ReactiveParams& params() const { return params_; }

  /// The (stable) domain sample probed for a victim: up to
  /// `domains_per_window` domains delegating to the victim address.
  std::vector<dns::DomainId> probe_set(netsim::IPv4Addr victim) const;

 private:
  CampaignWindow probe_window(const std::vector<dns::DomainId>& domains,
                              netsim::WindowIndex window, bool during_attack,
                              std::uint64_t vantage_id,
                              const std::string& vantage_country) const;

  const dns::DnsRegistry& registry_;
  const attack::AttackSchedule& schedule_;
  ReactiveParams params_;
};

// ---- Multi-vantage mode (§9 future work) ---------------------------------
//
// A single vantage point sits in one anycast catchment: if the attack
// saturates other sites, that vantage sees nothing ("catchment can mask
// ongoing attacks in specific geographic regions", §4.3). Probing the same
// campaign from several vantage points bounds the masked share.

struct VantagePoint {
  std::uint64_t id = 0;     // stable catchment identity
  std::string country;      // geofence interaction
  std::string label;        // e.g. "NL-AMS"
};

struct MultiVantageWindow {
  netsim::WindowIndex window = 0;
  bool during_attack = false;
  /// Resolution rate observed from each vantage (parallel to the
  /// campaign's vantage list).
  std::vector<double> rate_per_vantage;

  double min_rate() const;
  double max_rate() const;
  /// Catchment masking: some vantages see an outage others do not.
  bool masked(double spread = 0.5) const {
    return max_rate() - min_rate() >= spread;
  }
};

struct MultiVantageCampaign {
  netsim::IPv4Addr victim;
  netsim::WindowIndex attack_start = 0;
  netsim::WindowIndex attack_end = 0;
  std::vector<VantagePoint> vantages;
  std::vector<MultiVantageWindow> windows;

  /// Attack windows with a masked (vantage-dependent) outage.
  std::size_t masked_windows(double spread = 0.5) const;
};

class MultiVantagePlatform {
 public:
  MultiVantagePlatform(const dns::DnsRegistry& registry,
                       const attack::AttackSchedule& schedule,
                       ReactiveParams params, std::vector<VantagePoint> vps);

  const std::vector<VantagePoint>& vantages() const { return vantages_; }

  /// Probe the attack windows of `event` from every vantage point.
  /// (No 24h tail: the multi-vantage analysis targets attack visibility.)
  MultiVantageCampaign run_campaign(const telescope::RSDoSEvent& event) const;

 private:
  ReactivePlatform single_;
  const dns::DnsRegistry& registry_;
  const attack::AttackSchedule& schedule_;
  ReactiveParams params_;
  std::vector<VantagePoint> vantages_;
};

}  // namespace ddos::reactive

#include "reactive/platform.h"

#include <algorithm>

namespace ddos::reactive {

std::size_t Campaign::fully_unresolvable_attack_windows() const {
  std::size_t n = 0;
  for (const auto& w : windows) {
    if (w.during_attack && w.domains_probed > 0 && w.domains_resolved == 0)
      ++n;
  }
  return n;
}

std::size_t Campaign::attack_windows_probed() const {
  std::size_t n = 0;
  for (const auto& w : windows) {
    if (w.during_attack) ++n;
  }
  return n;
}

netsim::WindowIndex Campaign::recovery_window(double threshold) const {
  for (const auto& w : windows) {
    if (w.window > attack_end && w.resolution_rate() >= threshold)
      return w.window;
  }
  return -1;
}

ReactivePlatform::ReactivePlatform(const dns::DnsRegistry& registry,
                                   const attack::AttackSchedule& schedule,
                                   ReactiveParams params)
    : registry_(registry), schedule_(schedule), params_(params) {}

std::vector<dns::DomainId> ReactivePlatform::probe_set(
    netsim::IPv4Addr victim) const {
  std::vector<dns::DomainId> domains = registry_.domains_of_ns_ip(victim);
  if (domains.size() > params_.domains_per_window) {
    // Stable subsample: shuffle with a victim-keyed stream, then truncate.
    netsim::Rng rng(netsim::mix64(
        params_.seed ^ static_cast<std::uint64_t>(victim.value())));
    rng.shuffle(domains);
    domains.resize(params_.domains_per_window);
  }
  std::sort(domains.begin(), domains.end());
  return domains;
}

CampaignWindow ReactivePlatform::probe_window(
    const std::vector<dns::DomainId>& domains, netsim::WindowIndex window,
    bool during_attack, std::uint64_t vantage_id,
    const std::string& vantage_country) const {
  CampaignWindow cw;
  cw.window = window;
  cw.during_attack = during_attack;
  cw.domains_probed = static_cast<std::uint32_t>(domains.size());

  // Probes are spread evenly over the window (ethics: ~1 query / 6 s).
  const std::int64_t window_start_s =
      window * netsim::kSecondsPerWindow;
  const double spacing =
      domains.empty()
          ? 0.0
          : static_cast<double>(netsim::kSecondsPerWindow) / domains.size();

  for (std::size_t i = 0; i < domains.size(); ++i) {
    const dns::DomainId d = domains[i];
    const netsim::SimTime probe_time(
        window_start_s + static_cast<std::int64_t>(spacing * i));
    netsim::Rng rng(netsim::mix64(params_.seed ^
                                  netsim::mix64(probe_time.seconds()) ^
                                  netsim::mix64(d) ^
                                  netsim::mix64(vantage_id * 0x9E37u)));
    bool resolved = false;
    // Iterative mode: target each nameserver of the domain directly.
    const auto& key = registry_.nsset_key(registry_.nsset_of_domain(d));
    for (const auto& ip : key.ips) {
      if (!registry_.has_nameserver(ip)) {  // lame: probe, no answer
        ++cw.per_ns[ip].probes;
        continue;
      }
      const dns::Nameserver& ns = registry_.nameserver(ip);
      const dns::OfferedLoad load{
          schedule_.attack_pps_at(ip, window),
          schedule_.link_utilisation_at(ip, window),
      };
      const dns::QueryOutcome q = ns.query(rng, load, params_.model,
                                           probe_time, vantage_id,
                                           vantage_country);
      NsWindowProbe& tally = cw.per_ns[ip];
      ++tally.probes;
      if (q.responded && q.rtt_ms <= params_.probe_timeout_ms) {
        ++tally.responses;
        if (!q.servfail) resolved = true;
      }
    }
    if (resolved) ++cw.domains_resolved;
  }
  return cw;
}

Campaign ReactivePlatform::run_campaign(
    const telescope::RSDoSEvent& event) const {
  Campaign campaign;
  campaign.victim = event.victim;
  campaign.attack_start = event.start_window;
  campaign.attack_end = event.end_window;

  // Trigger latency: the feed emits a window's records when the window
  // closes; the platform reacts in the next window — within 10 minutes of
  // the attack start, as the paper's pipeline guarantees.
  campaign.trigger_window = event.start_window + 1;

  const std::vector<dns::DomainId> domains = probe_set(event.victim);
  if (domains.empty()) return campaign;

  const netsim::WindowIndex tail_windows =
      params_.post_attack_tail_s / netsim::kSecondsPerWindow;
  const netsim::WindowIndex last = event.end_window + tail_windows;
  for (netsim::WindowIndex w = campaign.trigger_window; w <= last; ++w) {
    campaign.windows.push_back(probe_window(domains, w, w <= event.end_window,
                                            params_.vantage_id,
                                            params_.vantage_country));
  }
  return campaign;
}

// ---- Multi-vantage mode ---------------------------------------------------

double MultiVantageWindow::min_rate() const {
  double lo = 1.0;
  for (const double r : rate_per_vantage) lo = std::min(lo, r);
  return rate_per_vantage.empty() ? 0.0 : lo;
}

double MultiVantageWindow::max_rate() const {
  double hi = 0.0;
  for (const double r : rate_per_vantage) hi = std::max(hi, r);
  return hi;
}

std::size_t MultiVantageCampaign::masked_windows(double spread) const {
  std::size_t n = 0;
  for (const auto& w : windows) {
    if (w.during_attack && w.masked(spread)) ++n;
  }
  return n;
}

MultiVantagePlatform::MultiVantagePlatform(
    const dns::DnsRegistry& registry, const attack::AttackSchedule& schedule,
    ReactiveParams params, std::vector<VantagePoint> vps)
    : single_(registry, schedule, params),
      registry_(registry),
      schedule_(schedule),
      params_(params),
      vantages_(std::move(vps)) {}

MultiVantageCampaign MultiVantagePlatform::run_campaign(
    const telescope::RSDoSEvent& event) const {
  MultiVantageCampaign campaign;
  campaign.victim = event.victim;
  campaign.attack_start = event.start_window;
  campaign.attack_end = event.end_window;
  campaign.vantages = vantages_;

  const std::vector<dns::DomainId> domains = single_.probe_set(event.victim);
  if (domains.empty()) return campaign;

  // One single-vantage platform per vantage point, tail disabled: the
  // multi-vantage analysis targets attack-time visibility only. Each
  // vantage probes the same stable domain sample through its own catchment
  // and geofence perspective, with independent randomness streams.
  std::vector<ReactivePlatform> platforms;
  platforms.reserve(vantages_.size());
  for (const auto& vp : vantages_) {
    ReactiveParams vp_params = params_;
    vp_params.vantage_id = vp.id;
    vp_params.vantage_country = vp.country;
    vp_params.post_attack_tail_s = 0;
    platforms.emplace_back(registry_, schedule_, vp_params);
  }

  std::vector<Campaign> per_vantage;
  per_vantage.reserve(platforms.size());
  for (const auto& platform : platforms) {
    per_vantage.push_back(platform.run_campaign(event));
  }

  for (netsim::WindowIndex w = event.start_window + 1; w <= event.end_window;
       ++w) {
    MultiVantageWindow mvw;
    mvw.window = w;
    mvw.during_attack = true;
    for (const auto& c : per_vantage) {
      double rate = 0.0;
      for (const auto& cw : c.windows) {
        if (cw.window == w) rate = cw.resolution_rate();
      }
      mvw.rate_per_vantage.push_back(rate);
    }
    campaign.windows.push_back(std::move(mvw));
  }
  return campaign;
}

}  // namespace ddos::reactive

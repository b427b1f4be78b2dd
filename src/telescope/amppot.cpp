#include "telescope/amppot.h"

#include <cmath>
#include <stdexcept>

namespace ddos::telescope {

AmpPotFleet::AmpPotFleet(AmpPotParams params) : params_(params) {
  if (params_.honeypots == 0)
    throw std::invalid_argument("AmpPotFleet: no honeypots");
  if (params_.reflector_population < params_.honeypots)
    throw std::invalid_argument(
        "AmpPotFleet: fleet larger than reflector population");
}

std::optional<AmpPotObservation> AmpPotFleet::observe(
    const attack::AttackSpec& attack, netsim::Rng& rng) const {
  if (attack.spoof != attack::SpoofType::Reflected) return std::nullopt;

  // Reflector count per attack: geometric-like spread around the mean.
  const double mean = static_cast<double>(params_.mean_reflectors_used);
  const auto reflectors_used = static_cast<std::uint32_t>(
      std::max(1.0, rng.exponential(1.0 / mean)));

  // Expected honeypots drawn into the attack (hypergeometric ~ binomial
  // at these scales).
  const double expected_hits =
      static_cast<double>(params_.honeypots) * reflectors_used /
      params_.reflector_population;
  const std::uint64_t hits = rng.poisson(expected_hits);
  if (hits == 0) return std::nullopt;

  AmpPotObservation obs;
  obs.first_window = attack.first_window();
  obs.last_window = attack.last_window();
  obs.victim = attack.target;
  obs.honeypots_hit = static_cast<std::uint32_t>(hits);
  obs.protocol = attack.protocol;
  obs.port = attack.first_port;
  // Each reflector contributes ~equally to the victim-side rate; the
  // fleet extrapolates from its members' request rates. The attacker's
  // request rate is the victim rate divided by the amplification factor.
  const double per_reflector_request_pps =
      attack.peak_pps / params_.amplification_factor / reflectors_used;
  obs.estimated_pps = per_reflector_request_pps * reflectors_used *
                      params_.amplification_factor *
                      rng.uniform(0.8, 1.2);  // estimation noise
  return obs;
}

std::vector<AmpPotObservation> AmpPotFleet::observe_all(
    const std::vector<attack::AttackSpec>& attacks) const {
  std::vector<AmpPotObservation> out;
  for (const auto& a : attacks) {
    // Per-attack stream keyed by (fleet seed, attack identity).
    netsim::Rng rng(netsim::mix64(params_.seed ^
                                  a.id * 0x9E3779B97F4A7C15ull ^
                                  a.target.value()));
    if (auto obs = observe(a, rng)) out.push_back(*obs);
  }
  return out;
}

}  // namespace ddos::telescope

// AmpPot-style amplification honeypot fleet (Krämer et al., RAID 2015).
//
// The telescope's structural blind spot (§4.3): reflected attacks spoof
// the *victim's* address toward reflectors, so no backscatter reaches a
// darknet. Jonker et al. (IMC 2017) paired the telescope with AmpPot —
// honeypots masquerading as open reflectors — and found ~60% of attacks
// randomly spoofed (telescope-visible) and ~40% reflected
// (honeypot-visible). The paper lists this pairing as the way to widen
// coverage; this module implements it so the coverage analysis can run.
//
// Model: a reflection attack drives `reflectors_used` reflectors drawn
// uniformly from the global open-reflector population. A fleet of H
// honeypot reflectors observes the attack iff at least one of its members
// is drawn — probability 1 - (1 - H/R)^M — and estimates the attack rate
// from the per-honeypot request rate times the amplification factor.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "attack/attack.h"
#include "netsim/rng.h"
#include "netsim/simtime.h"

namespace ddos::telescope {

struct AmpPotParams {
  std::uint32_t honeypots = 48;              // fleet size (AmpPot ran ~21)
  std::uint32_t reflector_population = 2'000'000;  // global open reflectors
  std::uint32_t mean_reflectors_used = 6'000;      // per attack, geometric-ish
  double amplification_factor = 30.0;        // response/request byte ratio
  std::uint64_t seed = 77;
};

/// One honeypot-fleet sighting of a reflection attack.
struct AmpPotObservation {
  netsim::WindowIndex first_window = 0;
  netsim::WindowIndex last_window = 0;
  netsim::IPv4Addr victim;
  std::uint32_t honeypots_hit = 0;
  double estimated_pps = 0.0;  // victim-side, extrapolated from the fleet
  attack::Protocol protocol = attack::Protocol::UDP;
  std::uint16_t port = 0;

  std::int64_t duration_s() const {
    return (last_window - first_window + 1) * netsim::kSecondsPerWindow;
  }
};

class AmpPotFleet {
 public:
  explicit AmpPotFleet(AmpPotParams params);

  const AmpPotParams& params() const { return params_; }

  /// Observe one attack. Returns nullopt for non-reflected attacks (the
  /// honeypots never see direct or randomly-spoofed floods) and for
  /// reflected attacks whose reflector draw misses the fleet.
  std::optional<AmpPotObservation> observe(const attack::AttackSpec& attack,
                                           netsim::Rng& rng) const;

  /// Run a whole schedule through the fleet (deterministic in the fleet
  /// seed; independent of schedule order).
  std::vector<AmpPotObservation> observe_all(
      const std::vector<attack::AttackSpec>& attacks) const;

 private:
  AmpPotParams params_;
};

/// Coverage accounting for the telescope + honeypot pairing (§4.3 and
/// Jonker et al.'s 60/40 split).
struct CoverageSummary {
  std::uint64_t total_attacks = 0;
  std::uint64_t random_spoofed = 0;   // telescope-eligible
  std::uint64_t reflected = 0;        // honeypot-eligible
  std::uint64_t direct = 0;           // invisible to both
  std::uint64_t telescope_seen = 0;
  std::uint64_t amppot_seen = 0;

  double union_coverage() const {
    return total_attacks ? static_cast<double>(telescope_seen + amppot_seen) /
                               total_attacks
                         : 0.0;
  }
  double telescope_coverage() const {
    return total_attacks
               ? static_cast<double>(telescope_seen) / total_attacks
               : 0.0;
  }
};

}  // namespace ddos::telescope

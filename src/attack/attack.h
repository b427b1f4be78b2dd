// DDoS attack specifications (§2.1). An attack is a flood of `peak_pps`
// packets/s toward one victim IP over a time interval, with a protocol and
// destination-port profile. Spoofing type controls observability: only
// randomly-and-uniformly spoofed attacks generate backscatter that a
// network telescope can attribute (§3.1); reflected and direct attacks are
// invisible to it — modelling the paper's stated blind spot (§4.3, ~40% of
// attacks per Jonker et al.).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/ipv4.h"
#include "netsim/rng.h"
#include "netsim/simtime.h"

namespace ddos::attack {

enum class Protocol : std::uint8_t { TCP = 6, UDP = 17, ICMP = 1 };
std::string to_string(Protocol p);

enum class SpoofType : std::uint8_t {
  RandomUniform,  // telescope-visible (RSDoS)
  Reflected,      // amplification via reflectors — telescope-invisible
  Direct,         // unspoofed botnet traffic — telescope-invisible
};

struct AttackSpec {
  std::uint64_t id = 0;
  netsim::IPv4Addr target;
  Protocol protocol = Protocol::TCP;
  SpoofType spoof = SpoofType::RandomUniform;
  netsim::SimTime start;
  std::int64_t duration_s = 900;
  double peak_pps = 10e3;        // flood rate at the victim
  std::uint16_t first_port = 80; // first-observed destination port
  std::uint16_t unique_ports = 1;
  /// Backscatter packets emitted per received attack packet (SYN->SYN/ACK
  /// retransmits push this above 1 for responsive victims; dead or
  /// filtered victims emit less).
  double response_ratio = 1.0;
  /// Disable the per-window rate wobble — "skilled attacker" floods with a
  /// flat rate, used by the scripted/calibrated case events.
  bool steady = false;
  /// Fraction of the flood removed upstream by a scrubbing service before
  /// it reaches the victim (TransIP's March 2021 mitigation, §5.1). The
  /// spoofed traffic still flows — and still elicits backscatter — so the
  /// telescope keeps seeing the attack at full rate while the victim only
  /// feels (1 - scrubbed_fraction) of it.
  double scrubbed_fraction = 0.0;

  netsim::SimTime end() const { return start + duration_s; }
  bool active_at(netsim::SimTime t) const { return t >= start && t < end(); }
  /// Windows [first_window, last_window] overlapped by the attack.
  netsim::WindowIndex first_window() const { return start.window(); }
  netsim::WindowIndex last_window() const {
    return (start + (duration_s - 1)).window();
  }

  /// Flood rate during `window`, with a deterministic per-window wobble
  /// (attack tooling rarely holds a perfectly flat rate). Zero outside the
  /// attack interval. Partial windows are pro-rated by overlap.
  double pps_in_window(netsim::WindowIndex window) const;

  /// Flood rate actually *reaching the victim* (after scrubbing).
  double victim_pps_in_window(netsim::WindowIndex window) const {
    return pps_in_window(window) * (1.0 - scrubbed_fraction);
  }
};

}  // namespace ddos::attack

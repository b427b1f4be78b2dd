#include "attack/attack.h"

#include <algorithm>

namespace ddos::attack {

std::string to_string(Protocol p) {
  switch (p) {
    case Protocol::TCP: return "TCP";
    case Protocol::UDP: return "UDP";
    case Protocol::ICMP: return "ICMP";
  }
  return "PROTO";
}

double AttackSpec::pps_in_window(netsim::WindowIndex window) const {
  const std::int64_t win_start = window * netsim::kSecondsPerWindow;
  const std::int64_t win_end = win_start + netsim::kSecondsPerWindow;
  const std::int64_t a_start = start.seconds();
  const std::int64_t a_end = end().seconds();
  const std::int64_t overlap =
      std::min(win_end, a_end) - std::max(win_start, a_start);
  if (overlap <= 0) return 0.0;
  const double coverage =
      static_cast<double>(overlap) / netsim::kSecondsPerWindow;
  if (steady) return peak_pps * coverage;
  // Stable +/-10% wobble derived from (attack id, window).
  const std::uint64_t h =
      netsim::mix64(id * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(window));
  const double wobble =
      0.9 + 0.2 * (static_cast<double>(h >> 11) * 0x1.0p-53);
  return peak_pps * coverage * wobble;
}

}  // namespace ddos::attack

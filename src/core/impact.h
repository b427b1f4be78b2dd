// The paper's impact metric (Equation 1, §4.1):
//
//     Impact_on_RTT = avgRTT(5-minute window) / avgRTT(day before)
//
// computed per NSSet. Values near 1 mean the attack was absorbed; the
// paper's headline findings are the ~5% of attacks at >=10x and the ~1/3
// of those at >=100x (Fig. 8).
#pragma once

#include "openintel/storage.h"

namespace ddos::core {

/// Impact of one 5-minute window against a baseline average RTT.
/// Returns 0.0 when the window has no answered queries or the baseline is
/// non-positive (callers treat 0 as "no signal", not "no impact").
double impact_on_rtt(const openintel::Aggregate& window_agg,
                     double baseline_avg_rtt_ms);

/// Conventional thresholds used throughout the paper's discussion.
inline constexpr double kImpairedThreshold = 10.0;   // "10-fold increase"
inline constexpr double kSevereThreshold = 100.0;    // "100-fold increase"

}  // namespace ddos::core
